// Package bench implements the paper's experiments: every table and
// figure of the evaluation has a driver here that regenerates it
// (Figure 3 GC overhead, Figures 4a/4b writer association, the headline
// stack comparison, the latency study, emulator validation) plus the
// ablations DESIGN.md calls out.
//
// Every kernel-driven experiment is a table of modes over one harness:
// RunScenario loads a Scenario's workloads on a freshly built system
// (package system) and measures it under the DES kernel.
package bench

import (
	"fmt"
	"slices"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
	"noftl/internal/telemetry/health"
	"noftl/internal/trace"
	"noftl/internal/workload"
)

// Well-known stream tags for background machinery (per-tag attribution
// in command logs; terminal tags are caller-chosen and should avoid
// them).
const (
	tagWriters      = 0xDB0001 // db-writer pool
	tagCheckpointer = 0xDB0002
)

// Group is one terminal group of a scenario: N closed-loop terminals
// sharing a workload, a request descriptor and a seed. Groups number
// their terminals consecutively in scenario order, so span IDs never
// collide between groups.
type Group struct {
	// Name labels the group in tables and JSON rows; on a system with a
	// serving front it is also the tenant whose admission counters the
	// group's result carries.
	Name string
	// Workload is loaded before the run and drives every terminal
	// without a PerTerminal entry.
	Workload workload.Workload
	// PerTerminal, when set, gives terminal i of the group its own
	// workload (N entries; the serve experiment binds sessions this way).
	PerTerminal []workload.Workload
	N           int
	// Seed derives each terminal's RNG (workload.TerminalConfig.Seed).
	Seed int64
	// Think is idle time between transactions (0: closed loop).
	Think sim.Time
	// Class, Tag and Deadline form the request descriptor every
	// transaction of the group carries (zero: none declared; a deadline
	// is stamped that far past each transaction's start).
	Class    ioreq.Class
	Tag      uint32
	Deadline sim.Time
	// Retry classifies extra errors as retryable (lock timeouts always
	// are).
	Retry func(error) bool
	// TenantGauge, on a system with telemetry, registers the live gauge
	// serve.tenant.<Name>_commit_p99_us: the group's p99 commit latency
	// in µs, the per-tenant tail a serving front acts on.
	TenantGauge bool
}

// CkptPolicy decides when the checkpointer truncates the log: every
// Tick it checkpoints if Every has passed since the last checkpoint or
// the log holds 1/LogShare of its capacity since the anchor.
type CkptPolicy struct {
	Tick     sim.Time
	Every    sim.Time // 0: no periodic checkpoint
	LogShare uint64
}

// ckptPeriodic is the zero-value policy: a 100 ms tick, a checkpoint
// every 2 s or once the log is half full.
var ckptPeriodic = CkptPolicy{Tick: 100 * sim.Millisecond, Every: 2 * sim.Second, LogShare: 2}

// Scenario is one measured run: terminal groups and optional
// analytical readers next to db-writers, flash maintenance (or
// writer-driven inline GC), read-ahead prefetchers and a checkpointer.
type Scenario struct {
	Groups []Group
	// Readers run Workload's queries in N analytical reader processes
	// (N == 0: none); only Workload, N and Seed apply.
	Readers     Group
	Writers     int
	Association storage.WriterAssociation
	// Tagged makes db-writers and the checkpointer declare themselves
	// background work (program class, own stream tags), so their log
	// writes stop outranking commit-path appends. False keeps static
	// per-volume class routing.
	Tagged bool
	// Ckpt is the checkpoint policy; the zero value checkpoints every
	// 2 s or at half a log, on a 100 ms tick.
	Ckpt CkptPolicy
	// Warm runs before counting starts. Settle then runs with counting
	// (and so spans) live, after which terminal counters reset — a
	// transient such as an admission guard's escalation stays out of
	// the Measure window.
	Warm, Settle, Measure sim.Time
}

// GroupResult is one terminal group's measure window.
type GroupResult struct {
	Name           string
	Tag            uint32
	Terminals      int
	Committed      int64
	DeadlineMisses int64
	TPS            float64
	CommitHist     stats.Histogram
	// Admission is the serving front's whole-run accounting for the
	// group's tenant (zero without a front).
	Admission serve.TenantStats
}

// Result is one scenario run: measure-window totals over every group,
// the per-group split, and the system's counters and artifacts.
type Result struct {
	// Mode names the run within its experiment.
	Mode  string
	Stack system.Stack

	TPS            float64
	Committed      int64
	Retries        int64 // lock-timeout and retryable restarts
	DeadlineMisses int64
	CommitHist     stats.Histogram
	Groups         []GroupResult
	// ReadHist is buffer-pool read-miss latency over the measure window.
	ReadHist stats.Histogram

	// Analytical readers: queries, rows visited and query latency.
	Queries   int64
	QPS       float64
	RowsPerS  float64
	QueryHist stats.Histogram

	// Buffer is the pool's delta over the measure window; the other
	// counters run from the post-load reset to the end of the run.
	Buffer    storage.BufferStats
	FTL       ftl.Stats
	Device    flash.Stats
	Sched     sched.Stats
	GCSteps   int64 // background maintenance (zero without it)
	WearMoves int64
	// Occupancy is the data volume's live fraction at the end (NoFTL).
	Occupancy float64
	Regions   []region.RegionStats // region-managed stack only
	Front     serve.Stats          // serving front only

	// Observability artifacts, when the system was built with them.
	Tel    *telemetry.Telemetry
	CmdLog *trace.CmdLog
	Blame  *blame.Report
	Health *health.Snapshot
}

// Group returns the named group's result (nil if absent).
func (r *Result) Group(name string) *GroupResult {
	for i := range r.Groups {
		if r.Groups[i].Name == name {
			return &r.Groups[i]
		}
	}
	return nil
}

// BytesPerTx divides the device's program bytes over warm-up AND
// measure by the commits of the measure window alone — an upper bound
// whose bias shrinks with the measure/warm ratio, comparable across the
// rows of one experiment.
func (r *Result) BytesPerTx() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Device.ProgramBytes) / float64(r.Committed)
}

// ErasesPerKTx normalizes block erases per thousand committed
// transactions — the flash-lifetime metric. (The window is fixed time,
// so absolute erase counts would punish a faster stack for its own
// throughput.)
func (r *Result) ErasesPerKTx() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Device.Erases) * 1000 / float64(r.Committed)
}

// ReadP99 is the p99 buffer read-miss latency in ns (a Sweep.Ratio
// metric).
func (r *Result) ReadP99() float64 { return float64(r.ReadHist.Percentile(99)) }

// rowCounter is the optional analytical-workload capability reporting
// rows visited (workload.TPCH implements it).
type rowCounter interface{ RowsScanned() int64 }

func rowsScanned(wl workload.Workload) int64 {
	if rc, ok := wl.(rowCounter); ok {
		return rc.RowsScanned()
	}
	return 0
}

// RunScenario loads the scenario's workloads on sys (serial phase),
// checkpoints, resets the device clock and counters, then measures the
// scenario under the DES kernel. Processes start in a fixed order —
// maintenance, db-writers, prefetchers, terminal groups, readers,
// checkpointer — which fixes the event order and so the results.
func RunScenario(sys *system.System, sc Scenario) (*Result, error) {
	e := sys.Engine
	for _, g := range append(slices.Clip(sc.Groups), sc.Readers) {
		if g.Workload == nil {
			continue
		}
		if err := g.Workload.Load(sys.Ctx, e); err != nil {
			return nil, fmt.Errorf("bench: load %s: %w", g.Workload.Name(), err)
		}
	}
	if err := e.Checkpoint(sys.Ctx); err != nil {
		return nil, err
	}
	// The load ran on a private serial clock; restart the device
	// timelines and counters (including any scheduler's queue-wait
	// accounting, via the reset hooks) for the measured phase.
	sys.Dev.ResetTime()
	sys.Dev.ResetStats()

	k := sys.K
	counting, stopped := false, false
	var fatal error
	fail := func(err error) {
		if fatal == nil {
			fatal = err
		}
	}

	wcfg := storage.WriterConfig{N: sc.Writers, Association: sc.Association}
	if sc.Tagged {
		wcfg.Class, wcfg.Tag = ioreq.ClassProgram, tagWriters
	}
	maint := sys.StartMaintenance(sched.MaintConfig{OnError: fail})
	if sys.NoFTL != nil && maint == nil {
		wcfg.DriveGC, wcfg.GC, wcfg.NeedsGC = true, sys.NoFTL.GCStep, sys.NoFTL.NeedsGC
	}
	stopWriters := e.StartWriters(k, wcfg)
	stopPrefetchers := func() {}
	if e.PrefetchWindow() > 0 {
		stopPrefetchers = e.StartPrefetchers(k, storage.PrefetcherConfig{N: sys.Vol.Regions(), OnError: fail})
	}

	var sink func(*ioreq.Span)
	if sys.Tel != nil {
		sink = sys.Tel.RecordSpan
	}
	terms := make([]*workload.Terminals, len(sc.Groups))
	first := 0
	for i, g := range sc.Groups {
		cfg := workload.TerminalConfig{
			N: g.N, FirstID: first, Seed: g.Seed, Think: g.Think,
			Counting: &counting, OnFatal: fail, SpanSink: sink, Retry: g.Retry,
			ClassOf:       func(int) ioreq.Class { return g.Class },
			TagOf:         func(int) uint32 { return g.Tag },
			DeadlineAfter: func(int) sim.Time { return g.Deadline },
		}
		if g.PerTerminal != nil {
			base := first
			cfg.WorkloadOf = func(id int) workload.Workload { return g.PerTerminal[id-base] }
		}
		ts := workload.StartTerminals(k, e, g.Workload, cfg)
		terms[i], first = ts, first+g.N
		if g.TenantGauge && sys.Tel != nil {
			sys.Tel.Reg.Gauge("serve.tenant."+g.Name+"_commit_p99_us", func() float64 {
				h := ts.CommitHist()
				return us(h.Percentile(99))
			})
		}
	}
	readers := workload.StartReaders(k, e, sc.Readers.Workload, workload.ReaderConfig{
		N: sc.Readers.N, Seed: sc.Readers.Seed, Counting: &counting, OnFatal: fail,
	})
	ckpt := sc.Ckpt
	if ckpt == (CkptPolicy{}) {
		ckpt = ckptPeriodic
	}
	k.Go("checkpointer", func(p *sim.Proc) {
		ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
		if sc.Tagged {
			// Background work: its page flushes AND its log writes yield
			// to commit-path appends.
			ctx = ctx.WithClass(ioreq.ClassProgram).WithTag(tagCheckpointer)
		}
		wal := e.Log()
		last := p.Now()
		for !stopped {
			p.Sleep(ckpt.Tick)
			if stopped {
				return
			}
			if (ckpt.Every == 0 || p.Now()-last < ckpt.Every) && wal.SinceAnchor()*ckpt.LogShare < wal.Capacity() {
				continue
			}
			if err := e.Checkpoint(ctx); err != nil {
				fail(err)
				return
			}
			last = p.Now()
		}
	})

	res := &Result{Stack: sys.Stack}
	k.RunFor(sc.Warm)
	counting = true
	if sc.Settle > 0 {
		k.RunFor(sc.Settle)
		for _, ts := range terms {
			ts.ResetCounters()
		}
	}
	bufBase := e.Buffer().Stats()
	rowsBase := rowsScanned(sc.Readers.Workload)
	e.Buffer().TrackReadLatency(&res.ReadHist)
	k.RunFor(sc.Measure)
	counting = false
	e.Buffer().TrackReadLatency(nil)
	res.Buffer = e.Buffer().Stats().Sub(bufBase)
	secs := sc.Measure.Seconds()
	res.RowsPerS = float64(rowsScanned(sc.Readers.Workload)-rowsBase) / secs
	stopped = true
	for _, ts := range terms {
		ts.Stop()
	}
	readers.Stop()
	stopWriters()
	stopPrefetchers()
	if maint != nil {
		maint.Stop()
	}
	k.RunFor(10 * sim.Millisecond) // let loops observe the stop flag
	k.Shutdown()
	if fatal != nil {
		return nil, fmt.Errorf("bench: run on %s: %w", sys.Stack, fatal)
	}

	for i, g := range sc.Groups {
		ts := terms[i]
		gr := GroupResult{Name: g.Name, Tag: g.Tag, Terminals: g.N,
			Committed: ts.Committed(), DeadlineMisses: ts.DeadlineMisses(), CommitHist: ts.CommitHist()}
		gr.TPS = float64(gr.Committed) / secs
		if sys.Serve != nil {
			gr.Admission, _ = sys.Serve.TenantStats(g.Name)
		}
		res.TPS += gr.TPS
		res.Committed += gr.Committed
		res.Retries += ts.Retries()
		res.DeadlineMisses += gr.DeadlineMisses
		res.CommitHist.AddHist(&gr.CommitHist)
		res.Groups = append(res.Groups, gr)
	}
	res.Queries = readers.Queries()
	res.QPS = float64(res.Queries) / secs
	res.QueryHist = readers.QueryHist()
	res.FTL = sys.FTLStats()
	res.Device = sys.Dev.Stats()
	if sys.Sched != nil {
		res.Sched = sys.Sched.Stats()
	}
	if maint != nil {
		res.GCSteps, res.WearMoves = maint.GCSteps, maint.WearMoves
	}
	if v := sys.NoFTL; v != nil && v.LogicalPages() > 0 {
		res.Occupancy = float64(v.LivePages()) / float64(v.LogicalPages())
	}
	if sys.Regions != nil {
		res.Regions = sys.Regions.RegionStats()
	}
	if sys.Serve != nil {
		res.Front = sys.Serve.Stats()
	}
	res.Tel, res.CmdLog, res.Blame = sys.Tel, sys.CmdLog, sys.Blame()
	if sys.Health != nil {
		res.Health = sys.Health.Snapshot(k.Now())
	}
	return res, nil
}
