package bench

import (
	"fmt"

	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// The stack sweeps run one workload over several storage stacks on
// identical hardware, one mode per stack, with db-writers bound die-wise
// where the volume exposes dies:
//
//   - Headline: the end-to-end comparison behind the paper's headline
//     claims — NoFTL ≥2.4x over the conventional hybrid FTL stack under
//     TPC-C (2.25x TPC-B), DFTL up to 3.7x slower than page mapping.
//   - DeltaAblation (A5): the in-place-append design — full-page NoFTL
//     vs delta-append NoFTL vs the FTL block device; what page
//     differentials buy in flash bytes per transaction, WA and GC copy
//     work, and what folds cost.
//   - RegionsAblation (A6): the configurable-regions design — the WAL
//     as a window of one single-policy volume vs on a native append-only
//     log region; what stream segregation buys in erases, WA and
//     throughput, plus the per-region breakdown.

// StackConfig parameterizes a stack sweep.
type StackConfig struct {
	Params
	Workload string // "tpcc" or "tpcb"
	Stacks   []system.Stack
	TPCC     workload.TPCCConfig
	TPCB     workload.TPCBConfig
}

func (c StackConfig) run(sp *spec, def StackConfig) (*Sweep, error) {
	c.Params = c.withDefaults(def.Params)
	if c.Workload == "" {
		c.Workload = def.Workload
	}
	if len(c.Stacks) == 0 {
		c.Stacks = def.Stacks
	}
	if c.TPCC.Warehouses == 0 {
		c.TPCC = def.TPCC
	}
	if c.TPCB.Branches == 0 {
		c.TPCB = def.TPCB
	}
	modes := make([]mode, len(c.Stacks))
	for i, st := range c.Stacks {
		modes[i] = mode{name: string(st), stack: st, scenario: func(sys *system.System) (Scenario, error) {
			assoc := storage.AssocDieWise
			if sys.NoFTL == nil {
				assoc = storage.AssocGlobal // the block device hides the dies
			}
			return Scenario{Association: assoc, Groups: []Group{{
				Workload: newWorkload(c.Workload, c.TPCC, c.TPCB), N: c.Workers, Seed: c.Seed,
			}}}, nil
		}}
	}
	return c.sweep(sp, c.Workload, modes)
}

var stackDefaults = StackConfig{
	Params: Params{DriveMB: 160}.withDefaults(defaultParams),
	TPCC:   workload.TPCCConfig{Warehouses: 2},
	TPCB:   workload.TPCBConfig{Branches: 24},
}

var (
	headlineSpec = &spec{name: "headline", fields: stackFields, table: headlineTable}
	deltaSpec    = &spec{name: "delta", fields: stackFields, table: deltaTable}
	regionsSpec  = &spec{name: "regions", fields: stackFields, table: regionsTable}
)

// Headline measures TPS for every stack (default noftl, pagemap,
// faster, dftl; TPC-C) on identical hardware and workload.
func Headline(cfg StackConfig) (*Sweep, error) {
	def := stackDefaults
	def.Workload = "tpcc"
	def.Stacks = []system.Stack{system.StackNoFTL, system.StackPagemap, system.StackFaster, system.StackDFTL}
	return cfg.run(headlineSpec, def)
}

// DeltaAblation runs the delta-write ablation (default noftl,
// noftl-delta, faster; TPC-B).
func DeltaAblation(cfg StackConfig) (*Sweep, error) {
	def := stackDefaults
	def.Workload = "tpcb"
	def.Stacks = []system.Stack{system.StackNoFTL, system.StackNoFTLDelta, system.StackFaster}
	return cfg.run(deltaSpec, def)
}

// RegionsAblation runs the regions ablation (default noftl-single,
// noftl-regions; TPC-B). The default drive is sized for real GC
// pressure, the regime where placement policy matters: the TPC-B data
// fills roughly 60% of the data region, and the history table keeps
// growing.
func RegionsAblation(cfg StackConfig) (*Sweep, error) {
	def := StackConfig{
		Params:   defaultParams,
		Workload: "tpcb",
		Stacks:   []system.Stack{system.StackNoFTLSingle, system.StackNoFTLRegions},
		TPCC:     workload.TPCCConfig{Warehouses: 4},
		TPCB:     workload.TPCBConfig{Branches: 32, AccountsPerBranch: 6000},
	}
	return cfg.run(regionsSpec, def)
}

func headlineTable(s *Sweep) string {
	t := stats.NewTable("stack", "TPS", "vs faster", "WA", "copybacks", "erases", "mapIO")
	for _, r := range s.Rows {
		t.Row(r.Mode, r.TPS, s.Ratio(r.Mode, string(system.StackFaster), tps),
			r.FTL.WriteAmplification(), r.Device.Copybacks, r.Device.Erases,
			r.FTL.MapReads+r.FTL.MapWrites)
	}
	return t.String()
}

func deltaTable(s *Sweep) string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "deltaW", "folds",
		"gcCopies", "erases", "progMB")
	for _, r := range s.Rows {
		f := r.FTL
		t.Row(r.Mode, r.TPS, r.BytesPerTx()/1024, f.WriteAmplification(),
			f.DeltaWrites, f.Folds, f.GCCopybacks+f.GCWrites, r.Device.Erases,
			float64(r.Device.ProgramBytes)/(1<<20))
	}
	return t.String()
}

// regionsTable renders the stack comparison plus, when the
// region-managed stack ran, its per-region breakdown.
func regionsTable(s *Sweep) string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "gcCopies", "erases", "erases/ktx", "progMB")
	for _, r := range s.Rows {
		f := r.FTL
		t.Row(r.Mode, r.TPS, r.BytesPerTx()/1024, f.WriteAmplification(),
			f.GCCopybacks+f.GCWrites, r.Device.Erases, r.ErasesPerKTx(),
			float64(r.Device.ProgramBytes)/(1<<20))
	}
	row := s.Row(string(system.StackNoFTLRegions))
	if row == nil || len(row.Regions) == 0 {
		return t.String()
	}
	rt := stats.NewTable("region", "map", "dies", "hostW", "gcCopies", "erases", "WA", "occupancy")
	for _, rs := range row.Regions {
		rt.Row(rs.Name, rs.Mapping.String(), rs.Dies, rs.FTL.HostWrites,
			rs.FTL.GCCopybacks+rs.FTL.GCWrites, rs.FTL.Erases,
			rs.FTL.WriteAmplification(), fmt.Sprintf("%.1f%%", 100*rs.Occupancy()))
	}
	return t.String() + "per-region breakdown (noftl-regions):\n" + rt.String()
}

func tps(r *Result) float64 { return r.TPS }

// Fig4Config parameterizes the Figure-4 experiment: transactional
// throughput as a function of flash parallelism with db-writers bound
// globally versus die-wise. The paper sweeps 1..32 dies with
// #db-writers = #dies, 16 read processes, a 10 GB drive, TPC-C sf=50 /
// TPC-B sf=500; the defaults shrink drive and populations. Params.Dies
// and Params.Writers are ignored: each point uses its die count for
// both.
type Fig4Config struct {
	Params
	Workload  string // "tpcc" or "tpcb"
	DieCounts []int  // default {1, 2, 4, 8, 16, 32}
	TPCC      workload.TPCCConfig
	TPCB      workload.TPCBConfig
}

// Fig4Result holds both curves of one sub-figure; Rows alternate
// global and die-wise runs per die count.
type Fig4Result struct {
	Sweep
	Global  stats.Series
	DieWise stats.Series
}

// Speedup returns the best die-wise/global TPS ratio across die counts
// (the paper reports up to 1.5x for TPC-C and 1.43x for TPC-B).
func (r *Fig4Result) Speedup() float64 { return r.DieWise.MaxRatio(&r.Global) }

// Table renders the figure as rows.
func (r *Fig4Result) Table() string {
	t := stats.NewTable("dies", "global TPS", "die-wise TPS", "speedup")
	for i := range r.Global.X {
		sp := 0.0
		if r.Global.Y[i] > 0 {
			sp = r.DieWise.Y[i] / r.Global.Y[i]
		}
		t.Row(int(r.Global.X[i]), r.Global.Y[i], r.DieWise.Y[i], sp)
	}
	return t.String()
}

var fig4Spec = &spec{name: "fig4"}

// Figure4 reproduces Figure 4a (TPC-C) or 4b (TPC-B): NoFTL with
// die-wise striping, sweeping the number of dies with #db-writers =
// #dies, under global versus die-wise writer association.
func Figure4(cfg Fig4Config) (*Fig4Result, error) {
	cfg.Params = cfg.withDefaults(Params{DriveMB: 192, Frames: 512}.withDefaults(defaultParams))
	if cfg.Workload == "" {
		cfg.Workload = "tpcc"
	}
	if len(cfg.DieCounts) == 0 {
		cfg.DieCounts = []int{1, 2, 4, 8, 16, 32}
	}
	if cfg.TPCC.Warehouses == 0 {
		cfg.TPCC = stackDefaults.TPCC
	}
	if cfg.TPCB.Branches == 0 {
		cfg.TPCB = stackDefaults.TPCB
	}
	res := &Fig4Result{Sweep: Sweep{Experiment: fig4Spec.name, Workload: cfg.Workload, spec: fig4Spec}}
	res.Global.Label, res.DieWise.Label = "global", "die-wise"
	for _, dies := range cfg.DieCounts {
		p := cfg.Params
		p.Dies, p.Writers = dies, dies
		var modes []mode
		for _, assoc := range []storage.WriterAssociation{storage.AssocGlobal, storage.AssocDieWise} {
			modes = append(modes, mode{name: fmt.Sprintf("%s@%d", assoc, dies), stack: system.StackNoFTL,
				scenario: func(*system.System) (Scenario, error) {
					return Scenario{Association: assoc, Groups: []Group{{
						Workload: newWorkload(cfg.Workload, cfg.TPCC, cfg.TPCB),
						N:        cfg.Workers, Seed: cfg.Seed + int64(dies),
					}}}, nil
				}})
		}
		s, err := p.sweep(fig4Spec, cfg.Workload, modes)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, s.Rows...)
		res.Global.Add(float64(dies), s.Rows[0].TPS)
		res.DieWise.Add(float64(dies), s.Rows[1].TPS)
	}
	return res, nil
}
