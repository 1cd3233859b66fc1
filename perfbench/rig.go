package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// Stream tags of the background machinery (per-request tagging).
const (
	tagWriters      = 0xDB0001
	tagCheckpointer = 0xDB0002
)

// flushPolicy is the engine's write-back policy, held as the experiment
// drivers run it: commit-time WAL flush with the engine's group commit,
// die-wise db-writers, and a periodic checkpointer.
type flushPolicy struct {
	Writers int
	// The checkpointer wakes every CkptPoll and checkpoints once
	// CkptEvery has passed (0: never on time alone) or the log since the
	// last anchor exceeds 1/CkptLogShare of its capacity.
	CkptPoll     sim.Time
	CkptEvery    sim.Time
	CkptLogShare uint64
}

// workload is one benchmark workload: its stack, its load, its clients
// and the check of the engine's state against the workload's model.
type workload interface {
	stack() stackConfig
	policy() flushPolicy
	// phases returns the warm-up and the measured window in sim time.
	phases() (warm, window sim.Time)
	load(ctx *storage.IOCtx, e *storage.Engine) error
	// start launches the client processes on the rig's kernel.
	start(r *rig) error
	// stop asks the clients to finish their current operation and exit.
	stop()
	// check verifies the engine's contents against the model of every
	// acknowledged operation and returns the rows it read.
	check(ctx *storage.IOCtx, e *storage.Engine) (int64, error)
	// scanRows is the rows delivered by the workload's own scans so far
	// (0 for workloads without scan clients).
	scanRows() int64
}

// rig is one deterministic run of a workload on a freshly built stack.
type rig struct {
	st *stack
	k  *sim.Kernel
	pr *probe // nil in untraced runs

	counting bool // inside the measured window
	stopped  bool // background processes observe it
	fatal    error

	clients     int     // live client processes
	checkpoints int64   // checkpoints completed by the checkpointer
	lat         []int64 // sim latency of every operation completed in the window
	ops         int64   // operations completed in the window (all streams)
	attempts    int64   // attempts started in the window
	fails       int64   // attempts that ended in a retried error

	stopBG []func()

	state stateSamples // trace mode only
}

// stateSamples are the trace-mode samples of kernel and volume state.
type stateSamples struct {
	procSum, pendSum, n int64
	freeMin             int64 // fewest free blocks of the data region seen
}

func (r *rig) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
	}
}

// client runs fn as a client process; the rig counts live clients so it
// can wait for them to drain.
func (r *rig) client(name string, fn func(p *sim.Proc)) {
	r.clients++
	r.k.Go(name, func(p *sim.Proc) {
		defer func() { r.clients-- }()
		fn(p)
	})
}

// done records one finished operation that started (or was due) at t0.
// Latency samples are taken only for the stream the workload reports.
func (r *rig) done(p *sim.Proc, t0 sim.Time, reported bool) {
	counted := r.counting
	if counted {
		r.ops++
		if reported {
			r.lat = append(r.lat, int64(p.Now()-t0))
		}
	}
	r.pr.opEnd(p, t0, counted && reported)
}

// startBackground launches the db-writers, the checkpointer, the flash
// maintenance workers and (with a read-ahead window) the prefetchers.
// Background requests declare their class and tag at the origin.
func (r *rig) startBackground(pol flushPolicy) {
	k, e := r.k, r.st.eng
	maint := sched.StartMaintenance(k, r.st.data, sched.MaintConfig{OnError: r.fail})
	r.stopBG = append(r.stopBG, maint.Stop)
	r.stopBG = append(r.stopBG, e.StartWriters(k, storage.WriterConfig{
		N:           pol.Writers,
		Association: storage.AssocDieWise,
		Class:       ioreq.ClassProgram,
		Tag:         tagWriters,
	}))
	if e.PrefetchWindow() > 0 {
		r.stopBG = append(r.stopBG, e.StartPrefetchers(k, storage.PrefetcherConfig{
			N: e.DataVolume().Regions(), OnError: r.fail,
		}))
	}
	k.Go("checkpointer", func(p *sim.Proc) {
		ctx := (&storage.IOCtx{W: sim.ProcWaiter{P: p}}).
			WithClass(ioreq.ClassProgram).WithTag(tagCheckpointer)
		wal := e.Log()
		last := p.Now()
		for !r.stopped {
			p.Sleep(pol.CkptPoll)
			if r.stopped {
				return
			}
			due := pol.CkptEvery > 0 && p.Now()-last >= pol.CkptEvery
			if !due && wal.SinceAnchor()*pol.CkptLogShare < wal.Capacity() {
				continue
			}
			if err := e.Checkpoint(ctx); err != nil {
				r.fail(err)
				return
			}
			last = p.Now()
			r.checkpoints++
		}
	})
}

// startSampler samples kernel and volume state every millisecond of the
// window (trace mode only; it reads state and changes nothing).
func (r *rig) startSampler() {
	s := &r.state
	s.freeMin = -1
	r.k.Go("probe-sampler", func(p *sim.Proc) {
		for !r.stopped {
			if r.counting {
				s.procSum += int64(r.k.Alive())
				s.pendSum += int64(r.k.Pending())
				s.n++
				if fb := r.st.data.FreeBlocks(); s.freeMin < 0 || fb < s.freeMin {
					s.freeMin = fb
				}
			}
			p.Sleep(sim.Millisecond)
		}
	})
}

// snapshot holds every layer's cumulative counters at one instant.
type snapshot struct {
	dev     flash.Stats
	ftl     ftl.Stats
	sch     sched.Stats
	buf     storage.BufferStats
	walApp  int64
	walB    int64
	rt      [4]float64 // allocs:objects, allocs:bytes, gc cpu-s, total cpu-s
	scanned int64
	front   serve.Stats // zero for workloads without a serving front
}

var rtMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func (r *rig) snap(w workload) snapshot {
	wal := r.st.eng.Log()
	var front serve.Stats
	if f, ok := w.(interface{ frontStats() serve.Stats }); ok {
		front = f.frontStats()
	}
	return snapshot{
		front:   front,
		dev:     r.st.dev.Stats(),
		ftl:     r.st.ftl(),
		sch:     r.st.sch.Stats(),
		buf:     r.st.eng.Buffer().Stats(),
		walApp:  wal.Appends,
		walB:    wal.BytesLogged,
		rt:      readRuntime(),
		scanned: w.scanRows(),
	}
}

// repResult is what one run of a workload measured.
type repResult struct {
	setup     time.Duration // build + load + warm-up
	wall      time.Duration // host time of the measured window
	window    sim.Time
	before    snapshot
	after     snapshot
	lat       []int64
	ops       int64
	attempts  int64
	fails     int64
	checkRows int64    // rows the check after restart read (cold pool)
	checkTime sim.Time // its sim time
	recovery  sim.Time // sim time of rebuild + ARIES recovery
	profile   []byte   // CPU profile of the window (trace mode)
	pr        *probe
	state     stateSamples
	// Data region size and live pages at the end of the window.
	dataPages, livePages int64
}

// drain stops the clients, waits for every in-flight operation to
// finish, then stops the background processes.
func (r *rig) drain(w workload) error {
	w.stop()
	deadline := r.k.Now() + 10*sim.Second
	for r.clients > 0 && r.fatal == nil {
		if r.k.Now() > deadline {
			return fmt.Errorf("%d clients still running 10s after stop", r.clients)
		}
		r.k.RunFor(sim.Millisecond)
	}
	r.stopped = true
	for _, stop := range r.stopBG {
		stop()
	}
	r.k.RunFor(10 * sim.Millisecond)
	return r.fatal
}

// runInProc runs fn as a process on the rig's kernel until it returns.
func (r *rig) runInProc(fn func(ctx *storage.IOCtx) error) error {
	var err error
	finished := false
	r.k.Go("check", func(p *sim.Proc) {
		err = fn(storage.NewIOCtx(sim.ProcWaiter{P: p}))
		finished = true
	})
	for !finished {
		r.k.RunFor(sim.Millisecond)
	}
	return err
}

// setup builds the stack, loads the workload, starts the background
// and client processes and runs the warm-up. It returns the rig and the
// host time all of that took.
func setup(w workload, pr *probe, build func(stackConfig, *probe) (*stack, error)) (*rig, time.Duration, error) {
	t0 := wallNow()
	st, err := build(w.stack(), pr)
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	if err := w.load(ctx, st.eng); err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	if err := st.eng.Checkpoint(ctx); err != nil {
		return nil, 0, fmt.Errorf("load checkpoint: %w", err)
	}
	// The load ran on a private serial clock; restart the device
	// timelines and counters for the timed phase.
	st.dev.ResetTime()
	st.dev.ResetStats()
	r := &rig{st: st, k: st.k, pr: pr}
	r.startBackground(w.policy())
	if pr != nil {
		r.startSampler()
	}
	if err := w.start(r); err != nil {
		return nil, 0, err
	}
	warm, _ := w.phases()
	r.k.RunFor(warm)
	if r.fatal != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", r.fatal)
	}
	return r, wallNow().Sub(t0), nil
}

// runRep runs a workload once: set up, measure the window, drain, check
// the live engine, shut the kernel down, restart from the device alone
// and check again.
func runRep(w workload, pr *probe, build func(stackConfig, *probe) (*stack, error),
	measure func(r *rig, window sim.Time) (time.Duration, []byte, error)) (*repResult, error) {
	runtime.GC() // return the previous run's device before building the next
	r, setupTime, err := setup(w, pr, build)
	if err != nil {
		return nil, err
	}
	st := r.st
	_, window := w.phases()
	res := &repResult{setup: setupTime, window: window, pr: pr}

	res.before = r.snap(w)
	r.counting = true
	if pr != nil {
		pr.counting = true
	}
	res.wall, res.profile, err = measure(r, window)
	if err != nil {
		return nil, err
	}
	r.counting = false
	if pr != nil {
		pr.counting = false
	}
	res.after = r.snap(w)
	if r.fatal != nil {
		return nil, fmt.Errorf("window: %w", r.fatal)
	}
	if r.ops == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	res.lat, res.ops, res.attempts, res.fails = r.lat, r.ops, r.attempts, r.fails
	res.state = r.state
	res.dataPages, res.livePages = st.data.LogicalPages(), st.data.LivePages()

	// Cut the run a fixed stretch of load after a checkpoint, so the log
	// the restart replays has the same extent whatever the seed.
	ckpt := r.checkpoints
	for deadline := r.k.Now() + 10*sim.Second; r.checkpoints == ckpt && r.fatal == nil; {
		if r.k.Now() > deadline {
			return nil, fmt.Errorf("no checkpoint within 10s after the window")
		}
		r.k.RunFor(sim.Millisecond)
	}
	r.k.RunFor(crashAfterCheckpoint)
	if err := r.drain(w); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if err := r.runInProc(func(ctx *storage.IOCtx) error {
		_, err := w.check(ctx, st.eng)
		return err
	}); err != nil {
		return nil, fmt.Errorf("check after run: %w", err)
	}
	r.k.Shutdown()

	e2, ctx2, rec, err := st.restart()
	if err != nil {
		return nil, err
	}
	res.recovery = rec
	t0 := ctx2.W.Now()
	if res.checkRows, err = w.check(ctx2, e2); err != nil {
		return nil, fmt.Errorf("check after restart: %w", err)
	}
	res.checkTime = ctx2.W.Now() - t0
	return res, nil
}

// crashAfterCheckpoint is how much load runs between the checkpoint
// that follows the window and the cut before the restart.
const crashAfterCheckpoint = 200 * sim.Millisecond

// timedWindow runs the measured window and times it on the wall clock.
func timedWindow(r *rig, window sim.Time) (time.Duration, []byte, error) {
	t0 := wallNow()
	r.k.RunFor(window)
	return wallNow().Sub(t0), nil, nil
}
