package bench

import (
	"fmt"
	"strings"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
	"noftl/internal/telemetry/health"
	"noftl/internal/trace"
	"noftl/internal/workload"
)

// Params are the knobs every kernel-driven experiment shares. Zero
// fields take the experiment's defaults.
type Params struct {
	Dies    int
	DriveMB int
	Frames  int // buffer frames
	Workers int // terminals (serve: client sessions)
	Writers int // db-writers
	// Warm, Settle and Measure are the scenario windows (Scenario).
	Warm, Settle, Measure sim.Time
	Seed                  int64
	Observe
}

// Observe attaches observability to every mode's system.
type Observe struct {
	// Telemetry attaches the cross-layer pipeline: request spans on
	// every counted transaction, the metrics sampler and the flight
	// recorder (Result.Tel).
	Telemetry *telemetry.Config
	// Blame attaches the latency root-cause engine (implies telemetry
	// with span retention and a system-owned command log); Result.Blame
	// carries each mode's report. Empty TagNames default to the
	// experiment's stream names.
	Blame *blame.Config
	// Health attaches the device-health monitor (implies telemetry):
	// Result.Health is the end-of-run snapshot. A MonitorAddr serves
	// live pages during each mode's run; the listener closes between
	// modes so a fixed address can rebind.
	Health *health.Config
	// TraceCmds records every dispatched command of a scheduled system
	// in Result.CmdLog (memory-heavy).
	TraceCmds bool
}

func orDefault[T ~int | ~int64 | ~float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// withDefaults fills p's zero knobs from an experiment's defaults.
func (p Params) withDefaults(d Params) Params {
	p.Dies = orDefault(p.Dies, d.Dies)
	p.DriveMB = orDefault(p.DriveMB, d.DriveMB)
	p.Frames = orDefault(p.Frames, d.Frames)
	p.Workers = orDefault(p.Workers, d.Workers)
	p.Writers = orDefault(p.Writers, d.Writers)
	p.Warm = orDefault(p.Warm, d.Warm)
	p.Settle = orDefault(p.Settle, d.Settle)
	p.Measure = orDefault(p.Measure, d.Measure)
	return p
}

// defaultParams are the geometry and windows most experiments start
// from.
var defaultParams = Params{Dies: 8, DriveMB: 64, Frames: 384, Workers: 16, Writers: 8,
	Warm: 2 * sim.Second, Measure: 8 * sim.Second}

// deriveTPCB sizes the TPC-B population to fill the given share of a
// data region at load: about 34 rows (heap row + pk entry) fit a 4 KiB
// page, and the append-only history table keeps growing through the
// run, so the end-of-run occupancy lands above the fill.
func deriveTPCB(dataPages int64, fill float64) workload.TPCBConfig {
	const rowsPerPage = 34 // heap rows + pk entries per 4 KiB page, measured
	const accounts = 6000
	rows := int64(float64(dataPages) * fill * rowsPerPage)
	branches := int(rows / accounts)
	if branches < 2 {
		branches = 2
	}
	return workload.TPCBConfig{Branches: branches, AccountsPerBranch: accounts}
}

func newWorkload(kind string, tpcc workload.TPCCConfig, tpcb workload.TPCBConfig) workload.Workload {
	if kind == "tpcb" {
		return workload.NewTPCB(tpcb)
	}
	return workload.NewTPCC(tpcc)
}

// mode is one row of an experiment: a system build and the scenario
// run on it. scenario supplies groups, readers, association, tagging
// and checkpoint policy; writers and windows come from Params.
type mode struct {
	name     string
	stack    system.Stack
	opts     system.BuildOpts
	scenario func(sys *system.System) (Scenario, error)
}

// spec is what an experiment's rows share beyond their modes.
type spec struct {
	name     string
	fields   jsonFields // JSON row fields (0: no JSON rows)
	tagNames func() map[uint32]string
	table    func(*Sweep) string
}

// Sweep is one experiment's outcome: one Result per mode, in table
// order.
type Sweep struct {
	Experiment string
	Workload   string
	Rows       []Result
	spec       *spec
}

// Table renders the experiment's comparison table (Figure 4 renders
// through Fig4Result.Table).
func (s *Sweep) Table() string {
	if s.spec.table == nil {
		return ""
	}
	return s.spec.table(s)
}

// Row returns the result of one mode (nil if it did not run).
func (s *Sweep) Row(mode string) *Result {
	for i := range s.Rows {
		if s.Rows[i].Mode == mode {
			return &s.Rows[i]
		}
	}
	return nil
}

// Ratio is metric(num)/metric(den) over two modes' results (0 when
// either did not run or the denominator is 0).
func (s *Sweep) Ratio(num, den string, metric func(*Result) float64) float64 {
	n, d := s.Row(num), s.Row(den)
	if n == nil || d == nil || metric(d) == 0 {
		return 0
	}
	return metric(n) / metric(d)
}

// P99Ratio is the p99 commit latency of num over den's. A key names a
// mode ("bg-gc+prio": all its groups) or one group of it ("qos/low").
func (s *Sweep) P99Ratio(num, den string) float64 {
	p99 := func(key string) float64 {
		m, g, grouped := strings.Cut(key, "/")
		r := s.Row(m)
		switch {
		case r == nil:
			return 0
		case !grouped:
			return float64(r.CommitHist.Percentile(99))
		case r.Group(g) == nil:
			return 0
		}
		return float64(r.Group(g).CommitHist.Percentile(99))
	}
	if d := p99(den); d > 0 {
		return p99(num) / d
	}
	return 0
}

// sweep runs every mode on a freshly built system with the same
// parameters and seed.
func (p Params) sweep(sp *spec, wl string, modes []mode) (*Sweep, error) {
	s := &Sweep{Experiment: sp.name, Workload: wl, spec: sp}
	for _, m := range modes {
		res, err := p.run(sp, m)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", sp.name, m.name, err)
		}
		s.Rows = append(s.Rows, *res)
	}
	return s, nil
}

func (p Params) run(sp *spec, m mode) (*Result, error) {
	opts := m.opts
	if p.Telemetry != nil {
		tc := *p.Telemetry
		opts.Telemetry = &tc
	}
	if p.Health != nil {
		opts.Health = p.Health
	}
	if p.Blame != nil {
		bl := *p.Blame
		if bl.TagNames == nil && sp.tagNames != nil {
			bl.TagNames = sp.tagNames()
		}
		opts.Blame = &bl
	}
	var log *trace.CmdLog
	if p.TraceCmds && opts.Blame == nil && opts.Sched != nil {
		// Blame owns a command log already; otherwise hang one on the
		// scheduler's trace hook.
		log = &trace.CmdLog{}
		sc := *opts.Sched
		sc.Trace = log.Record
		opts.Sched = &sc
	}
	sys, err := system.BuildWithOpts(m.stack, flash.EmulatorConfig(p.Dies, p.DriveMB, nand.SLC), p.Frames, opts)
	if err != nil {
		return nil, err
	}
	var res *Result
	sc, err := m.scenario(sys)
	if err == nil {
		sc.Writers, sc.Warm, sc.Settle, sc.Measure = p.Writers, p.Warm, p.Settle, p.Measure
		res, err = RunScenario(sys, sc)
	}
	if sys.Health != nil {
		// Release the live listener so the next mode (or a rerun on a
		// fixed address) can bind it.
		if cerr := sys.Health.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close monitor: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Mode = m.name
	if log != nil {
		res.CmdLog = log
	}
	return res, nil
}

// WaitTable renders per-class queue waits of the scheduled modes.
func (s *Sweep) WaitTable() string {
	t := stats.NewTable("mode", "class", "cmds", "mean wait", "max wait")
	for _, row := range s.Rows {
		st := row.Sched
		for c := sched.Class(0); c < sched.NumClasses; c++ {
			if st.Scheduled[c] == 0 {
				continue
			}
			t.Row(row.Mode, c.String(), st.Scheduled[c],
				st.MeanWait(c).String(), st.MaxWait[c].String())
		}
	}
	return t.String()
}

// HealthTable renders the health-enabled modes' device summary: wear
// distribution, data-region GC efficiency and alert count.
func (s *Sweep) HealthTable() string {
	t := stats.NewTable("mode", "wear spread", "wear p99", "bad", "occ",
		"valid-copy", "WA", "alerts")
	for _, row := range s.Rows {
		h := row.Health
		if h == nil {
			continue
		}
		occ, vcr, wa := 0.0, 0.0, 0.0
		for _, reg := range h.Regions {
			if reg.Mapping == "page" {
				occ, vcr, wa = reg.Occupancy, reg.GC.ValidCopyRatio, reg.GC.WA
			}
		}
		t.Row(row.Mode, h.Wear.Spread, h.Wear.P99, h.Wear.BadBlocks,
			fmt.Sprintf("%.0f%%", 100*occ), fmt.Sprintf("%.2f", vcr),
			fmt.Sprintf("%.2f", wa), len(h.Alerts))
	}
	return t.String()
}

// AlertTable renders every health-enabled mode's SLO transitions (empty
// when none fired).
func (s *Sweep) AlertTable() string {
	t := stats.NewTable("mode", "t", "rule", "sev", "state", "value", "threshold")
	n := 0
	for _, row := range s.Rows {
		if row.Health == nil {
			continue
		}
		for _, a := range row.Health.Alerts {
			n++
			t.Row(row.Mode, a.TNs.String(), a.Rule, a.Severity, a.State,
				fmt.Sprintf("%.3g", a.Value), fmt.Sprintf("%.3g", a.Threshold))
		}
	}
	if n == 0 {
		return ""
	}
	return t.String()
}
