package sim

import "fmt"

// event is a scheduled wake-up: it resumes process p or, for plain
// callbacks (After, Alarm deadlines), calls fn. Events with equal time
// fire in insertion order (seq), which makes the simulation
// deterministic.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq), held by
// value so that scheduling allocates nothing once the slice has grown.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	// Move the hole up from the new leaf instead of swapping.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop references for the GC
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Move the hole down from the root to where the last event belongs.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Kernel is a deterministic discrete-event scheduler. Create kernels
// with New.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	// oldest and newest bound the list of live processes in the order
	// they were started; Shutdown walks it.
	oldest, newest *Proc
	alive          int
	panicv         any
	trapped        bool
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Alive reports the number of processes that have started and not yet
// terminated.
func (k *Kernel) Alive() int { return k.alive }

// Pending reports the number of scheduled, not yet fired events.
func (k *Kernel) Pending() int { return len(k.events) }

// After schedules fn to run d after the current time. It may be called
// from process context or from outside Run. Negative delays fire
// immediately (at the current time).
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.at(k.now+d, fn)
}

func (k *Kernel) at(t Time, fn func()) {
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// wakeAt schedules p to resume at time t.
func (k *Kernel) wakeAt(t Time, p *Proc) {
	k.seq++
	k.events.push(event{at: t, seq: k.seq, p: p})
}

// Run executes events until the queue drains. Processes blocked on a
// queue or resource with no future wake-up are left parked; call
// Shutdown to unwind them.
func (k *Kernel) Run() {
	for len(k.events) > 0 {
		k.step()
	}
}

// RunUntil executes all events scheduled at or before t, then advances
// the clock to t.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for the next d of simulated time.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

func (k *Kernel) step() {
	e := k.events.pop()
	if e.at > k.now {
		k.now = e.at
	}
	if e.p != nil {
		e.p.resume()
	} else {
		e.fn()
	}
	if k.trapped {
		v := k.panicv
		k.trapped = false
		k.panicv = nil
		panic(fmt.Sprintf("sim: process panic: %v", v))
	}
}

// Shutdown ends every live process, oldest first: one that has run
// unwinds with its deferred functions executing, and one that never ran
// is dropped without running. It then clears the event queue. It must
// be called from outside any process. The kernel remains usable
// afterwards.
func (k *Kernel) Shutdown() {
	// A dying process's defers may start new processes; they join the
	// end of the list and are unwound in turn.
	for k.oldest != nil {
		k.oldest.kill()
	}
	k.events = nil
}
