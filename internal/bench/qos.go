package bench

import (
	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// QoS (quality-of-service demo): two tenants — each a TPC-B instance
// with its own tables and terminal group — share one region-managed,
// priority-scheduled NoFTL stack. The high tenant runs with the default
// request descriptor (foreground priorities) plus a per-transaction
// deadline; the low tenant declares itself low-priority (ClassPrefetch)
// on every request, so its reads and write-backs queue below the high
// tenant's at every die (commit-path WAL flushes stay in the WAL class
// for both — the shared log must not invert priorities). Each tenant
// carries its own stream tag, so the per-tag commit-latency split the
// scheduler produces is measured exactly — the end-to-end demonstration
// that a request's intent, declared at the workload layer, survives to
// the flash command queues. Disjoint table sets keep lock conflicts
// between tenants, which would smear the split with priority inversion
// the I/O scheduler cannot see, out of the picture.

// Stream tags of the two terminal groups.
const (
	TagHighPriority uint32 = 1
	TagLowPriority  uint32 = 2
)

// QoSConfig parameterizes the QoS demo. Params.Workers is the total
// terminal count, split evenly between the tenants.
type QoSConfig struct {
	Params
	// Deadline stamps each high-priority transaction with a completion
	// deadline this far ahead; past it, the scheduler promotes its
	// still-queued commands ahead of every class. Default 4ms; negative
	// disables.
	Deadline sim.Time
	// LowDeadline stamps the low tenant's transactions likewise, so its
	// SLO misses are measured (and blame-attributable) too. Default 0:
	// the low tenant runs deadline-free.
	LowDeadline sim.Time
	// TPCB sizes each tenant's population; by default the two together
	// fill the data region like the sched ablation's one.
	TPCB workload.TPCBConfig
}

// QoSTagNames names the demo's stream tags for blame tables and flame
// stacks: the two tenants plus the background db-writer and
// checkpointer streams.
func QoSTagNames() map[uint32]string {
	return map[uint32]string{
		TagHighPriority: "high",
		TagLowPriority:  "low",
		tagWriters:      "writers",
		tagCheckpointer: "ckpt",
	}
}

var qosSpec = &spec{name: "qos", fields: qosFields, tagNames: QoSTagNames, table: qosTable}

// QoS runs the demo: one mode, "qos", on a freshly built system with
// groups "high" and "low".
func QoS(cfg QoSConfig) (*Sweep, error) {
	p := cfg.withDefaults(defaultParams)
	if cfg.Deadline == 0 {
		cfg.Deadline = 4 * sim.Millisecond
	}
	return p.sweep(qosSpec, "tpcb-2tenant", []mode{{
		name: "qos", stack: system.StackNoFTLRegions,
		opts: system.BuildOpts{Sched: &sched.Config{Policy: sched.Priority}, BackgroundGC: true},
		scenario: func(sys *system.System) (Scenario, error) {
			tpcb := cfg.TPCB
			if tpcb.Branches == 0 {
				tpcb = deriveTPCB(sys.NoFTL.LogicalPages()/2, 0.68)
			}
			highN := p.Workers / 2
			return Scenario{Association: storage.AssocDieWise, Tagged: true, Groups: []Group{
				{Name: "high", Workload: workload.NewTPCB(tpcb), N: highN, Seed: p.Seed,
					Tag: TagHighPriority, Deadline: cfg.Deadline},
				{Name: "low", Workload: workload.NewTPCBNamed("tpcb2", tpcb), N: p.Workers - highN,
					Seed: p.Seed + 1_000_003, Class: ioreq.ClassPrefetch, Tag: TagLowPriority,
					Deadline: cfg.LowDeadline},
			}}, nil
		},
	}})
}

func qosTable(s *Sweep) string {
	t := stats.NewTable("group", "terminals", "TPS", "commit p50", "p95", "p99", "misses")
	for _, r := range s.Rows {
		for _, g := range r.Groups {
			t.Row(g.Name, g.Terminals, g.TPS,
				g.CommitHist.Percentile(50).String(),
				g.CommitHist.Percentile(95).String(),
				g.CommitHist.Percentile(99).String(),
				g.DeadlineMisses)
		}
	}
	return t.String()
}
