package bench

import (
	"fmt"

	"noftl/internal/sched"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// HTAPAblation (A8) is the mixed-workload experiment the NoFTL thesis
// has been building toward: an OLTP terminal set (TPC-B) and an
// analytical reader set (TPC-H-style scans) run concurrently on the
// region-managed, priority-scheduled stack, and the DBMS-side IO policy
// decides how the two streams share the flash. Three pool/read policies
// are compared at matched everything-else:
//
//   - naive: one shared clock buffer pool, no read-ahead — a table scan
//     wipes the OLTP working set and every scan read is a foreground
//     read (the uFLIP-style interference baseline).
//   - scan-resist: the 2Q/CAR-style segmented clock — single-touch scan
//     pages cycle through a probationary region and cannot evict the
//     re-referenced OLTP set.
//   - scan-resist+prefetch: the segmented clock plus sequential
//     read-ahead issued through the scheduler's low-priority prefetch
//     class, pipelining the scan across dies below OLTP reads and WAL
//     appends.
//
// Reported per mode and per stream: OLTP TPS + commit tails, analytical
// queries/s + rows/s + query tails, pool hit rate and ghost/prefetch
// counters over the measure window.

// HTAPMode names one pool/read policy of the ablation.
type HTAPMode string

// The three policies.
const (
	HTAPNaive    HTAPMode = "naive"
	HTAPScanRes  HTAPMode = "scan-resist"
	HTAPPrefetch HTAPMode = "scan-resist+prefetch"
)

// HTAPConfig parameterizes the HTAP ablation. Params.Workers counts the
// OLTP terminals (default 12); the pool defaults to 256 frames, smaller
// than the scanned table or nothing collides: TPC-H SF2's lineitem spans
// several hundred pages against a pool shared with the whole TPC-B
// working set.
type HTAPConfig struct {
	Params
	Modes   []HTAPMode // default: all three
	Readers int        // analytical reader processes, default 2
	Window  int        // prefetch read-ahead depth, default 16
	// TPCB defaults to a population at ~30% of the data region; with
	// the TPC-H tables and the history table's growth the run ends near
	// 50% occupancy — moderate GC pressure, so the experiment measures
	// pool and read scheduling policy rather than free-block
	// reclamation.
	TPCB workload.TPCBConfig
	// TPCH defaults to scale factor 2; a zero Seed takes Params.Seed, so
	// -seed varies the whole run, not just the query streams.
	TPCH workload.TPCHConfig
}

var htapSpec = &spec{name: "htap", fields: htapFields, table: htapTable}

// HTAPAblation runs the sweep: one freshly built region-managed,
// priority-scheduled system per pool policy, same seed, same workloads.
func HTAPAblation(cfg HTAPConfig) (*Sweep, error) {
	p := cfg.withDefaults(Params{Workers: 12, Frames: 256}.withDefaults(defaultParams))
	if len(cfg.Modes) == 0 {
		cfg.Modes = []HTAPMode{HTAPNaive, HTAPScanRes, HTAPPrefetch}
	}
	cfg.Readers = orDefault(cfg.Readers, 2)
	cfg.Window = orDefault(cfg.Window, 16)
	if cfg.TPCH.ScaleFactor == 0 {
		cfg.TPCH.ScaleFactor = 2
	}
	if cfg.TPCH.Seed == 0 {
		cfg.TPCH.Seed = p.Seed
	}
	var modes []mode
	for _, m := range cfg.Modes {
		opts := system.BuildOpts{Sched: &sched.Config{Policy: sched.Priority}, BackgroundGC: true,
			ScanResistant: m != HTAPNaive}
		if m == HTAPPrefetch {
			opts.PrefetchWindow = cfg.Window
		}
		modes = append(modes, mode{name: string(m), stack: system.StackNoFTLRegions, opts: opts,
			scenario: func(sys *system.System) (Scenario, error) {
				tpcb := cfg.TPCB
				if tpcb.Branches == 0 {
					tpcb = deriveTPCB(sys.NoFTL.LogicalPages(), 0.30)
				}
				return Scenario{
					Association: storage.AssocDieWise,
					Groups:      []Group{{Workload: workload.NewTPCB(tpcb), N: p.Workers, Seed: p.Seed}},
					Readers:     Group{Workload: workload.NewTPCH(cfg.TPCH), N: cfg.Readers, Seed: p.Seed},
				}, nil
			}})
	}
	return p.sweep(htapSpec, "tpcb+tpch", modes)
}

func htapTable(s *Sweep) string {
	t := stats.NewTable("mode", "oltp TPS", "commit p50", "p99",
		"scan q/s", "rows/s", "query p50", "p99", "hit%", "ghost", "prefetch", "occ")
	for i := range s.Rows {
		r := &s.Rows[i]
		c, q := &r.CommitHist, &r.QueryHist
		t.Row(r.Mode, r.TPS,
			c.Percentile(50).String(), c.Percentile(99).String(),
			fmt.Sprintf("%.2f", r.QPS), fmt.Sprintf("%.0f", r.RowsPerS),
			q.Percentile(50).String(), q.Percentile(99).String(),
			fmt.Sprintf("%.1f", 100*r.Buffer.HitRate()),
			r.Buffer.GhostHits, r.Buffer.Prefetches,
			fmt.Sprintf("%.0f%%", 100*r.Occupancy))
	}
	return t.String()
}
