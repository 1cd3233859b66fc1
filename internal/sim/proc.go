package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// procKilledError is the panic value that unwinds a process killed by
// Shutdown.
type procKilledError struct{}

func (procKilledError) Error() string { return "sim: process killed by Shutdown" }

var errKilled = procKilledError{}

type procState uint8

const (
	procNew     procState = iota // started by Go, not yet resumed
	procRunning                  // executing: the kernel is inside its next call
	procParked                   // suspended in park
	procDone                     // returned, panicked or killed
)

// Proc is a simulated process: a coroutine (iter.Pull) that the kernel
// resumes from its event loop and that hands control back whenever it
// blocks. Only one process executes at any instant, so code between two
// blocking calls (Sleep, Queue.Get, Resource.Acquire) is atomic with
// respect to other processes. A process is only ever resumed by the
// kernel's Run loop or by Shutdown, never concurrently, which is the
// single-caller rule iter.Pull requires.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	next  func() (struct{}, bool) // runs the process until it parks or ends
	stop  func()                  // unwinds it from its park (Shutdown)
	yield func(struct{}) bool     // inside the process: suspends it
	// older and newer link the kernel's live-process list.
	older, newer *Proc
}

// Go starts a new process running fn. The process begins executing at the
// current simulated time, after already-scheduled events for that time.
// It may be called from process context or from outside Run.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	k.alive++
	p.older = k.newest
	if k.newest != nil {
		k.newest.newer = p
	} else {
		k.oldest = p
	}
	k.newest = p
	k.wakeAt(k.now, p)
	return p
}

// exit runs as the process's outermost defer. A panic other than a
// kill is trapped for the kernel to re-raise on its own goroutine.
func (p *Proc) exit() {
	r := recover()
	p.finish()
	if r == nil {
		return
	}
	if _, ok := r.(procKilledError); !ok {
		// Preserve the process's stack; the kernel's re-panic would
		// otherwise lose it.
		p.k.panicv = fmt.Sprintf("%v\nprocess %q stack:\n%s", r, p.name, debug.Stack())
		p.k.trapped = true
	}
}

// finish retires the process and unlinks it from the live list.
func (p *Proc) finish() {
	k := p.k
	p.state = procDone
	k.alive--
	if p.older != nil {
		p.older.newer = p.newer
	} else {
		k.oldest = p.newer
	}
	if p.newer != nil {
		p.newer.older = p.older
	} else {
		k.newest = p.older
	}
	p.older, p.newer = nil, nil
}

// resume runs p until it parks or terminates.
func (p *Proc) resume() {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	p.next()
}

// kill unwinds a parked process, running its defers, or drops one that
// never ran without running it.
func (p *Proc) kill() {
	switch p.state {
	case procRunning:
		panic("sim: Shutdown called from inside a running process")
	case procNew:
		p.stop() // fn never starts
		p.finish()
	default:
		p.stop() // park panics with errKilled; exit retires p
	}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d of simulated time. d <= 0 yields the
// processor: the process resumes at the same instant after other events
// already scheduled for it.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.wakeAt(p.k.now+d, p)
	p.park()
}

// SleepUntil suspends the process until simulated time t (no-op if t is
// in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Sleep(0)
		return
	}
	p.Sleep(t - p.k.now)
}

// Yield lets every other event scheduled for the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// park hands control back to the kernel without scheduling a wake-up.
// Something else (an event, Queue.Put, Resource.Release) must later
// resume p. Once Shutdown has stopped p, park no longer suspends: it
// panics with errKilled, so a defer that blocks is cut short.
func (p *Proc) park() {
	p.state = procParked
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// wakeLater schedules p to resume at the current instant (FIFO after
// already-pending events).
func (p *Proc) wakeLater() { p.k.wakeAt(p.k.now, p) }
