package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"slices"
	"testing"

	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/system"
)

// shortened cuts a workload's warm-up and window so a test run stays
// quick; everything else — stack, load, clients, checks — is unchanged.
func shortened(name string, seed int64) workload {
	w, _ := newWorkload(name, seed)
	switch w := w.(type) {
	case *tpcbGC:
		w.warm, w.window = 500*sim.Millisecond, 500*sim.Millisecond
	case *htapScan:
		w.warm, w.window = 300*sim.Millisecond, 300*sim.Millisecond
	case *kvServe:
		w.warm, w.windw = 200*sim.Millisecond, 300*sim.Millisecond
	}
	return w
}

// systemStack builds the same configuration through the system
// package's builder. The benchmark's own test runs both and requires
// identical simulated results.
func systemStack(cfg stackConfig) (*stack, error) {
	sys, err := system.BuildWithOpts(system.StackNoFTLRegions, cfg.device(), cfg.Frames,
		system.BuildOpts{
			Sched:          &sched.Config{Policy: sched.Priority},
			BackgroundGC:   true,
			ScanResistant:  cfg.ScanResistant,
			PrefetchWindow: cfg.Prefetch,
		})
	if err != nil {
		return nil, err
	}
	lay := cfg.layout()
	for i := range lay.Regions {
		if lay.Regions[i].Mapping == region.PageMapped {
			lay.Regions[i].BackgroundGC = true
		}
	}
	return &stack{cfg: cfg, k: sys.K, dev: sys.Dev, sch: sys.Sched, data: sys.NoFTL,
		ftl: sys.FTLStats, eng: sys.Engine, layout: lay}, nil
}

// The stack the benchmark assembles from public constructors, with its
// volume and log wrapped by the probes, must simulate exactly what
// system.BuildWithOpts builds for the same configuration and seed.
func TestWrappedStackMatchesSystemBuilder(t *testing.T) {
	fromSystem := func(cfg stackConfig, _ *probe) (*stack, error) { return systemStack(cfg) }
	for _, name := range []string{"tpcb-gc", "kv-serve", "htap-scan"} {
		t.Run(name, func(t *testing.T) {
			wrapped, err := runRep(shortened(name, 3), newProbe(), buildStack, timedWindow)
			if err != nil {
				t.Fatalf("wrapped stack: %v", err)
			}
			built, err := runRep(shortened(name, 3), nil, fromSystem, timedWindow)
			if err != nil {
				t.Fatalf("system builder: %v", err)
			}
			a, b := simMetrics(wrapped), simMetrics(built)
			if err := sameSim(a, b); err != nil {
				t.Fatalf("simulated results differ: %v", err)
			}
			if a["sim_ops_per_s"].v == 0 || wrapped.pr.calls[callAppend] == 0 {
				t.Fatalf("nothing measured: %+v, %d log appends probed", a, wrapped.pr.calls[callAppend])
			}
		})
	}
}

// A different seed must change the simulated results.
func TestSeedChangesResults(t *testing.T) {
	a, err := runRep(shortened("tpcb-gc", 1), nil, buildStack, timedWindow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(shortened("tpcb-gc", 2), nil, buildStack, timedWindow)
	if err != nil {
		t.Fatal(err)
	}
	if sameSim(simMetrics(a), simMetrics(b)) == nil {
		t.Fatal("seeds 1 and 2 gave identical simulated results")
	}
}

func TestPercentileIsExact(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p, want float64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}, {50.05, 500.5}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// A quantised distribution, 60 samples at 340 and 40 at 360: up to
	// p60 the percentile is 340; p65 lies an eighth of the way through
	// the 360 step's samples, so 340 + 20*5/40 = 342.5.
	q := append(slices.Repeat([]int64{340}, 60), slices.Repeat([]int64{360}, 40)...)
	if got := percentile(q, 65); math.Abs(got-342.5) > 1e-9 {
		t.Errorf("p65 of the quantised samples = %v, want 342.5", got)
	}
	if got := percentile(q, 50); got != 340 {
		t.Errorf("p50 of the quantised samples = %v, want 340", got)
	}
}

// The profile decoder must attribute every sample, and the layer shares
// must sum to 1.
func TestHostSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	b := make([]byte, 1<<20)
	for i := 0; i < 300; i++ {
		sha256.Sum256(b)
	}
	pprof.StopCPUProfile()
	shares, n, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples collected")
	}
	var sum float64
	for _, l := range hostLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	// The hashing loop runs in this package (workload) or in the
	// standard library under it, which attribution leaves to workload
	// since the caller is a main-package frame.
	if shares["workload"] < 0.5 {
		t.Fatalf("workload share %v, want most samples: %v", shares["workload"], shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"noftl/internal/sim.(*Proc).park":              "sim",
		"noftl/internal/storage.(*BufferPool).Pin":     "storage",
		"noftl/internal/ftl.(*SeqLog).Append":          "noftl",
		"noftl/internal/nand.(*Array).Program":         "flash",
		"noftl/internal/telemetry/health.New":          "",
		"noftl/internal/ioreq.(*Span).Enter":           "",
		"main.(*tpcb).txn":                             "workload",
		"runtime.mcall":                                "",
		"noftl/internal/serve.(*Session).Tx.func1":     "serve",
		"noftl/internal/sched.(*dieSched).run":         "sched",
		"noftl/internal/workload.StartTerminals.func1": "workload",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
