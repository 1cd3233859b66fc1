package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestKernelOrderingOracle pins the kernel's resume order on a mixed
// scenario: every (time, process, step) a process records, in the order
// it records them. The golden literal is the observable contract of the
// scheduler; any change to the kernel's internals must leave it intact.
func TestKernelOrderingOracle(t *testing.T) {
	k := New()
	var got []string
	logf := func(format string, args ...any) {
		got = append(got, fmt.Sprintf("%d ", int64(k.Now()))+fmt.Sprintf(format, args...))
	}
	rec := func(p *Proc, step string) { logf("%s %s", p.Name(), step) }

	// Plain events sharing instants with process wake-ups.
	k.After(0, func() { logf("event e0") })
	k.After(10, func() { logf("event e10") })

	// Sleep(0) and Yield interleave at the current instant.
	for _, name := range []string{"y1", "y2"} {
		k.Go(name, func(p *Proc) {
			rec(p, "start")
			p.Yield()
			rec(p, "yield")
			p.Sleep(0)
			rec(p, "sleep0")
			p.Sleep(10)
			rec(p, "sleep10")
		})
	}

	// A queue drained by several consumers.
	q := NewQueue[int](k)
	for _, name := range []string{"c1", "c2", "c3"} {
		k.Go(name, func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					rec(p, "closed")
					return
				}
				rec(p, fmt.Sprintf("got%d", v))
				p.Sleep(Time(v))
			}
		})
	}
	k.Go("producer", func(p *Proc) {
		p.Sleep(5)
		for i := 1; i <= 5; i++ {
			q.Put(i)
		}
		rec(p, "put5")
		p.Sleep(20)
		q.Put(6)
		q.Put(7)
		rec(p, "put2")
		p.Sleep(20)
		q.Close()
		rec(p, "close")
	})

	// A capacity-1 resource handed from holder to holder.
	r := NewResource(k, 1)
	for i, name := range []string{"r1", "r2", "r3"} {
		k.Go(name, func(p *Proc) {
			p.Sleep(Time(i))
			r.Acquire(p)
			rec(p, "acquire")
			p.Sleep(7)
			r.Release()
			rec(p, "release")
		})
	}

	// An alarm interrupted before its deadline, whose stale deadline
	// then falls inside a second wait and must not end it.
	a := NewAlarm(k)
	k.Go("alarm", func(p *Proc) {
		pre := a.Wait(p, 30)
		rec(p, fmt.Sprintf("wait1 preempted=%v", pre))
		pre = a.Wait(p, 25)
		rec(p, fmt.Sprintf("wait2 preempted=%v", pre))
	})
	k.Go("poker", func(p *Proc) {
		p.Sleep(12)
		a.Interrupt()
		rec(p, "interrupt")
		a.Interrupt()
	})

	// A signal fanned out to several waiters; the firer starts a child.
	var sig Signal
	for _, name := range []string{"s1", "s2", "s3"} {
		k.Go(name, func(p *Proc) {
			sig.Wait(p)
			rec(p, "fired")
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(15)
		sig.Fire()
		rec(p, "fire")
		p.Kernel().Go("child", func(c *Proc) {
			rec(c, "start")
			c.Sleep(3)
			rec(c, "done")
		})
		p.Yield()
		rec(p, "after-go")
		sig.Wait(p)
		rec(p, "late-wait")
	})

	// A process that panics after running a defer.
	k.Go("boom", func(p *Proc) {
		defer rec(p, "defer")
		p.Sleep(40)
		panic("boom")
	})

	// Processes parked at Shutdown whose defers park again.
	hold := NewQueue[int](k)
	for _, name := range []string{"d1", "d2"} {
		k.Go(name, func(p *Proc) {
			defer rec(p, "defer-outer")
			defer func() {
				rec(p, "defer-park")
				p.Sleep(1)
				rec(p, "defer-unreachable")
			}()
			hold.Get(p)
		})
	}
	k.Go("sleeper", func(p *Proc) {
		defer rec(p, "defer")
		p.Sleep(Second)
	})

	func() {
		defer func() {
			if v := recover(); v != nil {
				msg := fmt.Sprint(v)
				logf("kernel panic %q", msg[:strings.IndexByte(msg, '\n')])
			}
		}()
		k.RunUntil(100)
	}()
	k.RunUntil(100)
	logf("shutdown alive=%d pending=%d", k.Alive(), k.Pending())
	k.Shutdown()
	logf("after alive=%d pending=%d", k.Alive(), k.Pending())

	want := []string{
		"0 event e0",
		"0 y1 start",
		"0 y2 start",
		"0 y1 yield",
		"0 y2 yield",
		"0 r1 acquire",
		"0 y1 sleep0",
		"0 y2 sleep0",
		"5 producer put5",
		"5 c1 got1",
		"5 c2 got2",
		"5 c3 got3",
		"6 c1 got4",
		"7 r1 release",
		"7 c2 got5",
		"7 r2 acquire",
		"10 event e10",
		"10 y1 sleep10",
		"10 y2 sleep10",
		"12 poker interrupt",
		"12 alarm wait1 preempted=true",
		"14 r2 release",
		"14 r3 acquire",
		"15 firer fire",
		"15 s1 fired",
		"15 s2 fired",
		"15 s3 fired",
		"15 child start",
		"15 firer after-go",
		"15 firer late-wait",
		"18 child done",
		"21 r3 release",
		"25 producer put2",
		"25 c3 got6",
		"25 c1 got7",
		"37 alarm wait2 preempted=false",
		"40 boom defer",
		"40 kernel panic \"sim: process panic: boom\"",
		"45 producer close",
		"45 c2 closed",
		"45 c3 closed",
		"45 c1 closed",
		"100 shutdown alive=3 pending=1",
		"100 d1 defer-park",
		"100 d1 defer-outer",
		"100 d2 defer-park",
		"100 d2 defer-outer",
		"100 sleeper defer",
		"100 after alive=0 pending=0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resume order changed:\n got: %#v\nwant: %#v", got, want)
	}
}
