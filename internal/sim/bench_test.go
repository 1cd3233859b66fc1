package sim

import "testing"

// The kernel microbenchmarks time one scheduler interaction per op:
// the cost every simulated wait, hand-off and wake-up pays on the host.

// BenchmarkSleep: 128 processes sleeping with distinct periods, so the
// event heap holds about as many events as a kv-serve run keeps
// pending; an op is one wake-up.
func BenchmarkSleep(b *testing.B) {
	k := New()
	for i := range 128 {
		k.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(Time(100 + i))
			}
		})
	}
	b.ReportAllocs()
	for b.Loop() {
		k.step()
	}
	k.Shutdown()
}

// BenchmarkQueuePingPong: an op is one round trip between two
// processes over a pair of queues.
func BenchmarkQueuePingPong(b *testing.B) {
	k := New()
	ping, pong := NewQueue[int](k), NewQueue[int](k)
	k.Go("echo", func(p *Proc) {
		for {
			v, _ := ping.Get(p)
			pong.Put(v)
		}
	})
	k.Go("caller", func(p *Proc) {
		for {
			ping.Put(1)
			pong.Get(p)
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	for b.Loop() {
		k.RunFor(Microsecond)
	}
	k.Shutdown()
}

// BenchmarkResourceHandoff: two processes contend for a capacity-1
// resource; an op is one hold and the hand-off to the other.
func BenchmarkResourceHandoff(b *testing.B) {
	k := New()
	r := NewResource(k, 1)
	for range 2 {
		k.Go("user", func(p *Proc) {
			for {
				r.Use(p, Microsecond)
			}
		})
	}
	b.ReportAllocs()
	for b.Loop() {
		k.RunFor(Microsecond)
	}
	k.Shutdown()
}

// BenchmarkSignalFanOut: an op fires a Signal that 64 parked processes
// wait on and runs until all of them have moved on to the next one.
func BenchmarkSignalFanOut(b *testing.B) {
	k := New()
	sig := &Signal{}
	for range 64 {
		k.Go("waiter", func(p *Proc) {
			for {
				sig.Wait(p)
			}
		})
	}
	k.Run()
	b.ReportAllocs()
	for b.Loop() {
		fired := sig
		sig = &Signal{}
		fired.Fire()
		k.RunFor(Microsecond)
	}
	k.Shutdown()
}
