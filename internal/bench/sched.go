package bench

import (
	"fmt"

	"noftl/internal/sched"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// SchedAblation (A7) isolates the command-scheduling design on the
// region-managed NoFTL stack: the same multi-terminal workload runs at
// matched occupancy under four maintenance/scheduling regimes:
//
//   - inline-gc: GC fires at the low-water mark on the allocating
//     (commit/flush) path; commands dispatch FCFS per die — the closest
//     native-flash analog of firmware-FTL behavior.
//   - bg-gc: dedicated background GC workers (sim.Procs driving
//     NeedsGC/GCStep) plus the wear-leveling sweep take maintenance off
//     the commit path; dispatch stays FCFS.
//   - bg-gc+prio: background maintenance plus the priority scheduler —
//     foreground reads > WAL appends > data programs > GC, with erase
//     suspension so a read never waits out a full tBERS.
//   - bg-gc+prio+tagged: the priority scheduler dispatching on
//     per-request descriptors (package ioreq) instead of static
//     per-volume class routing: db-writers and the checkpointer declare
//     themselves background at the origin, so the log traffic they
//     induce stops outranking commit-path appends just because it
//     shares the WAL device view.
//
// The ablation reports TPS and the commit/read latency distributions
// (p50/p95/p99), which is where scheduling shows up: means barely move,
// tails collapse.

// SchedMode names one regime of the ablation.
type SchedMode string

// The four regimes.
const (
	SchedInline     SchedMode = "inline-gc"
	SchedBackground SchedMode = "bg-gc"
	SchedPriority   SchedMode = "bg-gc+prio"
	// SchedTagged is SchedPriority with per-request descriptors: the
	// static-ClassDevs-vs-per-request-tags ablation column.
	SchedTagged SchedMode = "bg-gc+prio+tagged"
)

// schedRegimes maps each regime to its scheduler policy, maintenance
// and tagging.
var schedRegimes = map[SchedMode]struct {
	policy     sched.Policy
	bg, tagged bool
}{
	SchedInline:     {sched.FCFS, false, false},
	SchedBackground: {sched.FCFS, true, false},
	SchedPriority:   {sched.Priority, true, false},
	SchedTagged:     {sched.Priority, true, true},
}

// SchedConfig parameterizes the scheduling ablation.
type SchedConfig struct {
	Params
	Workload string      // "tpcb" (default) or "tpcc"
	Modes    []SchedMode // default: all four
	TPCC     workload.TPCCConfig
	// TPCB defaults to a population sized for ~80% end-of-run occupancy
	// of the data region — the regime where GC runs constantly and
	// scheduling decides who waits for it.
	TPCB workload.TPCBConfig
}

var schedSpec = &spec{name: "sched", fields: schedFields, table: schedTable}

// SchedAblation runs the sweep: one freshly built region-managed system
// per regime, same seed, same workload.
func SchedAblation(cfg SchedConfig) (*Sweep, error) {
	p := cfg.withDefaults(defaultParams)
	if cfg.Workload == "" {
		cfg.Workload = "tpcb"
	}
	if cfg.TPCC.Warehouses == 0 {
		cfg.TPCC = workload.TPCCConfig{Warehouses: 4}
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []SchedMode{SchedInline, SchedBackground, SchedPriority, SchedTagged}
	}
	var modes []mode
	for _, m := range cfg.Modes {
		r := schedRegimes[m]
		modes = append(modes, mode{
			name: string(m), stack: system.StackNoFTLRegions,
			opts: system.BuildOpts{Sched: &sched.Config{Policy: r.policy}, BackgroundGC: r.bg},
			scenario: func(sys *system.System) (Scenario, error) {
				tpcb := cfg.TPCB
				if tpcb.Branches == 0 {
					tpcb = deriveTPCB(sys.NoFTL.LogicalPages(), 0.68)
				}
				return Scenario{Association: storage.AssocDieWise, Tagged: r.tagged, Groups: []Group{{
					Workload: newWorkload(cfg.Workload, cfg.TPCC, tpcb), N: p.Workers, Seed: p.Seed,
				}}}, nil
			},
		})
	}
	return p.sweep(schedSpec, cfg.Workload, modes)
}

func schedTable(s *Sweep) string {
	t := stats.NewTable("mode", "TPS", "commit p50", "p95", "p99",
		"read p50", "p95", "p99", "erases", "suspends", "gcSteps", "occ")
	for _, r := range s.Rows {
		c, rd := &r.CommitHist, &r.ReadHist
		t.Row(r.Mode, r.TPS,
			c.Percentile(50).String(), c.Percentile(95).String(), c.Percentile(99).String(),
			rd.Percentile(50).String(), rd.Percentile(95).String(), rd.Percentile(99).String(),
			r.Device.Erases, r.Device.EraseSuspends, r.GCSteps, fmt.Sprintf("%.0f%%", 100*r.Occupancy))
	}
	return t.String()
}
