package bench

import (
	"encoding/json"
	"os"

	"noftl/internal/sim"
	"noftl/internal/stats"
)

// Machine-readable experiment results: noftlbench -json <path> collects
// one JSONResult per (experiment, workload, stack) so perf trajectories
// (BENCH_*.json files) can accumulate across commits and be diffed by
// tooling instead of eyeballs.

// JSONResult is one measurement in the report.
type JSONResult struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Stack      string  `json:"stack"`
	Mode       string  `json:"mode,omitempty"` // scheduling regime (sched experiment)
	TPS        float64 `json:"tps"`
	WA         float64 `json:"wa"`
	Erases     int64   `json:"erases"`
	// BytesPerTx follows Result.BytesPerTx: the device's program bytes
	// over warm-up AND measure by the commits of the measure window —
	// comparable across the rows of one run, which is what the
	// trajectory files diff.
	BytesPerTx float64 `json:"bytes_per_tx"`
	Committed  int64   `json:"committed"`
	// Latency tails in microseconds (experiments run with latency
	// tracking; zero elsewhere).
	CommitP50us float64 `json:"commit_p50_us,omitempty"`
	CommitP95us float64 `json:"commit_p95_us,omitempty"`
	CommitP99us float64 `json:"commit_p99_us,omitempty"`
	ReadP50us   float64 `json:"read_p50_us,omitempty"`
	ReadP95us   float64 `json:"read_p95_us,omitempty"`
	ReadP99us   float64 `json:"read_p99_us,omitempty"`
	// Scheduler accounting (sched experiment).
	QueueWaitMeanUs float64 `json:"queue_wait_mean_us,omitempty"`
	EraseSuspends   int64   `json:"erase_suspends,omitempty"`
	// Deadline accounting (QoS and deadline-stamped sched runs): commits
	// that finished past their deadline, and commands the scheduler
	// served ahead of their class because the deadline had passed.
	DeadlineMisses     int64 `json:"deadline_misses,omitempty"`
	DeadlinePromotions int64 `json:"deadline_promotions,omitempty"`
	// Device-health accounting (health-enabled sched runs): end-of-run
	// erase-count spread over non-bad blocks, the data region's
	// valid-page copy ratio, and SLO transitions fired during the run.
	WearSpread     int     `json:"wear_spread,omitempty"`
	ValidCopyRatio float64 `json:"valid_copy_ratio,omitempty"`
	AlertsFired    int     `json:"alerts_fired,omitempty"`
	// Analytical stream + pool accounting (htap experiment).
	ScanQPS      float64 `json:"scan_qps,omitempty"`
	ScanRowsPerS float64 `json:"scan_rows_per_s,omitempty"`
	ScanP50us    float64 `json:"scan_p50_us,omitempty"`
	ScanP99us    float64 `json:"scan_p99_us,omitempty"`
	BufferHit    float64 `json:"buffer_hit_rate,omitempty"`
	GhostHits    int64   `json:"ghost_hits,omitempty"`
	Prefetches   int64   `json:"prefetches,omitempty"`
	PrefetchHits int64   `json:"prefetch_hits,omitempty"`
	// BlameShares decomposes the row's blamed queue wait by culprit
	// class (fractions of 1; blame-enabled runs). For QoS rows the
	// victim is the row's tenant; elsewhere it aggregates every victim.
	BlameShares map[string]float64 `json:"blame_shares,omitempty"`
	// Serving-front accounting (serve experiment): per-tenant
	// throughput and commit tails, plus the admission controller's
	// decision counters for the row's regime.
	TenantTPS     map[string]float64 `json:"tenant_tps,omitempty"`
	TenantP99us   map[string]float64 `json:"tenant_p99_us,omitempty"`
	Admitted      int64              `json:"admitted,omitempty"`
	Deprioritized int64              `json:"deprioritized,omitempty"`
	Shed          int64              `json:"shed,omitempty"`
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// JSONReport is the file-level structure.
type JSONReport struct {
	Seed    int64        `json:"seed"`
	Results []JSONResult `json:"results"`
}

// jsonFields selects the JSONResult fields an experiment's rows carry,
// so every experiment keeps the field set its trajectory files diff.
type jsonFields uint

const (
	jMode        jsonFields = 1 << iota // mode name
	jWA                                 // write amplification
	jDevice                             // erases, bytes/tx
	jCommitTails                        // commit p50/p95/p99
	jReadTails                          // buffer read-miss p50/p95/p99
	jSched                              // queue-wait mean, erase suspends
	jMisses                             // deadline misses
	jPromotions                         // scheduler deadline promotions
	jHealth                             // wear spread, valid-copy ratio, alerts
	jScan                               // analytical stream and pool counters
	jBlame                              // blame shares
	jServe                              // admission counters, per-tenant split
	jPerGroup                           // one row per terminal group, named by it

	stackFields = jWA | jDevice
	schedFields = jMode | jWA | jDevice | jCommitTails | jReadTails | jSched | jMisses |
		jPromotions | jHealth | jBlame
	htapFields  = jMode | jDevice | jCommitTails | jReadTails | jScan | jBlame
	qosFields   = jPerGroup | jCommitTails | jMisses | jPromotions | jBlame
	serveFields = jMode | jCommitTails | jMisses | jServe
)

// Add appends a sweep's rows: one per mode, or one per terminal group
// of each mode for per-group experiments (qos).
func (r *JSONReport) Add(s *Sweep) {
	f := s.spec.fields
	if f == 0 {
		return
	}
	for i := range s.Rows {
		res := &s.Rows[i]
		if f&jPerGroup == 0 {
			jr := s.jsonRow(res, res.Mode, res.TPS, res.Committed, res.DeadlineMisses, &res.CommitHist)
			if f&jBlame != 0 && res.Blame != nil {
				jr.BlameShares = res.Blame.ShareMapAll()
			}
			r.Results = append(r.Results, jr)
			continue
		}
		for j := range res.Groups {
			g := &res.Groups[j]
			jr := s.jsonRow(res, g.Name, g.TPS, g.Committed, g.DeadlineMisses, &g.CommitHist)
			if f&jBlame != 0 && res.Blame != nil {
				jr.BlameShares = res.Blame.ShareMap(g.Tag)
			}
			r.Results = append(r.Results, jr)
		}
	}
}

// jsonRow builds one row from a run and the throughput view (the whole
// run or one of its groups) it reports.
func (s *Sweep) jsonRow(res *Result, mode string, tps float64, committed, misses int64,
	commit *stats.Histogram) JSONResult {
	f := s.spec.fields
	jr := JSONResult{Experiment: s.Experiment, Workload: s.Workload, Stack: string(res.Stack),
		TPS: tps, Committed: committed}
	if f&(jMode|jPerGroup) != 0 {
		jr.Mode = mode
	}
	if f&jWA != 0 {
		jr.WA = res.FTL.WriteAmplification()
	}
	if f&jDevice != 0 {
		jr.Erases, jr.BytesPerTx = res.Device.Erases, res.BytesPerTx()
	}
	if f&jCommitTails != 0 {
		jr.CommitP50us = us(commit.Percentile(50))
		jr.CommitP95us = us(commit.Percentile(95))
		jr.CommitP99us = us(commit.Percentile(99))
	}
	if f&jReadTails != 0 {
		jr.ReadP50us = us(res.ReadHist.Percentile(50))
		jr.ReadP95us = us(res.ReadHist.Percentile(95))
		jr.ReadP99us = us(res.ReadHist.Percentile(99))
	}
	if f&jSched != 0 {
		if n := res.Sched.TotalScheduled(); n > 0 {
			var total sim.Time
			for _, w := range res.Sched.QueueWait {
				total += w
			}
			jr.QueueWaitMeanUs = us(total / sim.Time(n))
		}
		jr.EraseSuspends = res.Device.EraseSuspends
	}
	if f&jMisses != 0 {
		jr.DeadlineMisses = misses
	}
	if f&jPromotions != 0 {
		jr.DeadlinePromotions = res.Sched.DeadlinePromotions
	}
	if h := res.Health; f&jHealth != 0 && h != nil {
		jr.WearSpread = h.Wear.Spread
		jr.AlertsFired = len(h.Alerts)
		for _, reg := range h.Regions {
			if reg.Mapping == "page" {
				jr.ValidCopyRatio = reg.GC.ValidCopyRatio
			}
		}
	}
	if f&jScan != 0 {
		jr.ScanQPS, jr.ScanRowsPerS = res.QPS, res.RowsPerS
		jr.ScanP50us = us(res.QueryHist.Percentile(50))
		jr.ScanP99us = us(res.QueryHist.Percentile(99))
		b := res.Buffer
		jr.BufferHit, jr.GhostHits, jr.Prefetches, jr.PrefetchHits = b.HitRate(), b.GhostHits, b.Prefetches, b.PrefetchHits
	}
	if f&jServe != 0 {
		jr.Admitted, jr.Deprioritized, jr.Shed = res.Front.Admitted, res.Front.Deprioritized, res.Front.Shed
		jr.TenantTPS, jr.TenantP99us = map[string]float64{}, map[string]float64{}
		for _, g := range res.Groups {
			jr.TenantTPS[g.Name] = g.TPS
			jr.TenantP99us[g.Name] = us(g.CommitHist.Percentile(99))
		}
	}
	return jr
}

// Write serializes the report to path (indented, trailing newline).
func (r *JSONReport) Write(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
