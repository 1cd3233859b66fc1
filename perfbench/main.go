// Command perfbench is the repository's benchmark: it runs one of three
// workloads (tpcb-gc, kv-serve, htap-scan) through the layers' public
// APIs on the region-managed NoFTL stack, checks the results against
// the workload's model, and prints named end-to-end metrics — host cost
// of running the simulator and simulated results of the modelled DBMS —
// or, with -trace 1, per-layer metrics from a separately traced run.
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench -workload tpcb-gc -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// a correctness, restart or determinism check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"noftl/internal/sim"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates metrics with their sample counts for the
// human-readable table; only value and unit reach the JSON line.
type report struct {
	names   []string
	metrics map[string]metric
	samples map[string]int64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int64{}}
}

func (r *report) add(name, unit string, v float64, samples int64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
}

// newWorkload returns the named workload for a seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "tpcb-gc":
		return newTPCBGC(seed), nil
	case "kv-serve":
		return newKVServe(seed), nil
	case "htap-scan":
		return newHTAPScan(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (tpcb-gc, kv-serve, htap-scan)", name)
}

func main() {
	name := flag.String("workload", "tpcb-gc", "workload: tpcb-gc, kv-serve or htap-scan")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "host seconds of measured windows to aim for")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := flag.String("spans-dir", filepath.Join(".bench_build", "spans"),
		"directory the traced run writes its spans to")
	flag.Parse()
	// One simulated process runs at any instant, so one thread carries
	// the load; a fixed setting keeps host costs comparable across
	// machines with different core counts.
	runtime.GOMAXPROCS(1)

	var out result
	var err error
	if *trace == 1 {
		out, err = traced(*name, *seed, *spans)
	} else {
		out, err = untraced(*name, *seed, *seconds)
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputSets is how many independent input sets one seed expands to.
// Pooling their operations gives the latency tail and the per-window
// rates several times the independent events one window holds.
const inputSets = 3

// subSeed derives the seed of input set i from the run's seed.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*7_000_003 }

// untraced runs the workload once per input set, then repeats input
// sets (at least once, and until the measured windows add up to the
// requested host seconds) to check that each repetition reproduces its
// simulated results exactly. Simulated metrics pool the input sets;
// host metrics are medians over every run.
func untraced(name string, seed int64, seconds float64) (result, error) {
	w0, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	var reps []*repResult
	var measured time.Duration
	start := wallNow()
	for len(reps) <= inputSets || (measured.Seconds() < seconds && wallNow().Sub(start) < 100*time.Second) {
		set := len(reps) % inputSets
		w, _ := newWorkload(name, subSeed(seed, set))
		rep, err := runRep(w, nil, buildStack, timedWindow)
		if err != nil {
			return result{}, fmt.Errorf("%s run %d: %w", name, len(reps)+1, err)
		}
		if len(reps) >= inputSets {
			if err := sameSim(simMetrics(reps[set]), simMetrics(rep)); err != nil {
				return result{}, fmt.Errorf("determinism: run %d differs from run %d of the same inputs: %w",
					len(reps)+1, set+1, err)
			}
		}
		reps = append(reps, rep)
		measured += rep.wall
	}
	sims := simMetrics(reps[:inputSets]...)
	rp := newReport()
	host := hostMetrics(reps)
	for _, m := range e2eOrder {
		if v, ok := host[m.name]; ok {
			rp.add(m.name, m.unit, v.v, v.n)
		} else if v, ok := sims[m.name]; ok {
			rp.add(m.name, m.unit, v.v, v.n)
		}
	}
	r0 := reps[0]
	fmt.Printf("%s seed %d: %d runs of %d input sets, %.1fs measured of %.1fs; %d data pages, %d frames, %.0f%% occupied after the window\n",
		name, seed, len(reps), inputSets, measured.Seconds(), wallNow().Sub(start).Seconds(),
		r0.dataPages, w0.stack().Frames, 100*float64(r0.livePages)/float64(r0.dataPages))
	rp.print()
	var attempted, failed int64
	for _, r := range reps[:inputSets] {
		attempted += r.attempts
		failed += r.fails
	}
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: rp.metrics}, nil
}

// traced runs the workload once untraced and once with the layer
// probes and a CPU profile on, requires identical simulated results,
// and reports the per-layer metrics of the traced run.
func traced(name string, seed int64, spansDir string) (result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	plain, err := runRep(w, nil, buildStack, timedWindow)
	if err != nil {
		return result{}, fmt.Errorf("%s untraced run: %w", name, err)
	}
	w, _ = newWorkload(name, seed)
	pr := newProbe()
	rep, err := runRep(w, pr, buildStack, profiledWindow)
	if err != nil {
		return result{}, fmt.Errorf("%s traced run: %w", name, err)
	}
	if err := sameSim(simMetrics(plain), simMetrics(rep)); err != nil {
		return result{}, fmt.Errorf("tracing changed the simulated results: %w", err)
	}
	rp, err := layerMetrics(rep, plain)
	if err != nil {
		return result{}, err
	}
	if x, ok := w.(interface {
		ladder(*report) error
	}); ok {
		if err := x.ladder(rp); err != nil {
			return result{}, fmt.Errorf("%s rate ladder: %w", name, err)
		}
	} else {
		rp.add("serve.rate_at_slo", "1/s", 0, 0) // closed loop: no offered rate
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv", name, seed))
	if err := pr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s seed %d traced: %d spans in %s\n", name, seed, len(pr.spans), path)
	rp.print()
	return result{Correct: true, Attempted: rep.attempts, Failed: rep.fails, Metrics: rp.metrics}, nil
}

// profiledWindow runs the measured window under a CPU profile.
func profiledWindow(r *rig, window sim.Time) (time.Duration, []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, nil, err
	}
	t0 := wallNow()
	r.k.RunFor(window)
	wall := wallNow().Sub(t0)
	pprof.StopCPUProfile()
	return wall, buf.Bytes(), nil
}

// wallNow reads the host clock. Host metrics time the simulator itself;
// no wall-clock reading ever feeds the simulation.
func wallNow() time.Time {
	//noftl:ignore determinism host-cost metrics time the simulator itself on the wall clock
	return time.Now()
}

// counted is a value with its sample count.
type counted struct {
	v float64
	n int64
}

// sameSim reports the first simulated metric that differs.
func sameSim(a, b map[string]counted) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("%s: %v vs %v", k, a[k].v, b[k].v)
		}
	}
	return nil
}

// percentile reads the p-th percentile off sorted samples, linearly
// interpolating the empirical distribution between adjacent distinct
// values. Each value's samples are spread over the gap below it, so a
// latency distribution quantised by a poll interval still yields a
// percentile that moves with the share of samples at each step instead
// of sticking to one grid point. On distinct samples it is linear
// interpolation between neighbouring order statistics.
func percentile(sorted []int64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	target := p / 100 * float64(n) // samples at or below the percentile
	prev, below := sorted[0], 0    // previous distinct value, samples <= prev
	for i := 0; i < n; {
		v := sorted[i]
		j := i
		for j < n && sorted[j] == v {
			j++
		}
		if float64(j) >= target {
			if i == 0 || j == below {
				return float64(v)
			}
			frac := (target - float64(below)) / float64(j-below)
			return float64(prev) + float64(v-prev)*max(frac, 0)
		}
		prev, below, i = v, j, j
	}
	return float64(sorted[n-1])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eOrder is the end-to-end metric catalog in report order.
var e2eOrder = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_s_per_sim_s", "s/s"},
	{"host_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"sim_ops_per_s", "1/s"},
	{"sim_lat_p50_us", "us"},
	{"sim_lat_p99_us", "us"},
	{"sim_lat_p999_us", "us"},
	{"sim_scan_rows_per_s", "1/s"},
	{"sim_wa", "ratio"},
	{"sim_erases_per_kop", "count"},
	{"sim_ok_ratio", "ratio"},
	{"recovery_s", "s"},
}

// simMetrics computes the simulated end-to-end metrics of runs pooled:
// latencies over every operation, rates over the summed windows.
func simMetrics(reps ...*repResult) map[string]counted {
	var lat []int64
	var ops, attempts, fails, hostW, flashW, erases, scanRows int64
	var window, scanTime, recovery sim.Time
	for _, r := range reps {
		lat = append(lat, r.lat...)
		b, a := r.before, r.after
		ops += r.ops
		attempts += r.attempts
		fails += r.fails
		window += r.window
		hw := a.ftl.HostWrites - b.ftl.HostWrites
		hostW += hw
		flashW += hw + (a.ftl.GCCopybacks - b.ftl.GCCopybacks) + (a.ftl.GCWrites - b.ftl.GCWrites) +
			(a.ftl.MapWrites - b.ftl.MapWrites)
		erases += a.dev.Erases - b.dev.Erases
		if rows := a.scanned - b.scanned; rows > 0 {
			scanRows += rows
			scanTime += r.window
		} else {
			// Workloads without scan clients report the check's full scan
			// of the restarted engine, which starts with a cold pool.
			scanRows += r.checkRows
			scanTime += r.checkTime
		}
		recovery += r.recovery
	}
	slices.Sort(lat)
	n := int64(len(lat))
	us := func(ns float64) float64 { return ns / 1e3 }
	return map[string]counted{
		"sim_ops_per_s":       {float64(ops) / window.Seconds(), ops},
		"sim_lat_p50_us":      {us(percentile(lat, 50)), n},
		"sim_lat_p99_us":      {us(percentile(lat, 99)), n},
		"sim_lat_p999_us":     {us(percentile(lat, 99.9)), n},
		"sim_scan_rows_per_s": {ratio(float64(scanRows), scanTime.Seconds()), scanRows},
		"sim_wa":              {ratio(float64(flashW), float64(hostW)), hostW},
		"sim_erases_per_kop":  {1000 * float64(erases) / float64(ops), ops},
		"sim_ok_ratio":        {1 - ratio(float64(fails), float64(attempts)), attempts},
		"recovery_s":          {recovery.Seconds() / float64(len(reps)), int64(len(reps))},
	}
}

// hostMetrics computes the host end-to-end metrics as medians over runs.
func hostMetrics(reps []*repResult) map[string]counted {
	var setup, perSim, perOp, allocs []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		perSim = append(perSim, r.wall.Seconds()/r.window.Seconds())
		perOp = append(perOp, r.wall.Seconds()*1e6/float64(r.ops))
		allocs = append(allocs, (r.after.rt[0]-r.before.rt[0])/float64(r.ops))
	}
	n := int64(len(reps))
	return map[string]counted{
		"setup_s":          {median(setup), n},
		"host_s_per_sim_s": {median(perSim), n},
		"host_us_per_op":   {median(perOp), n},
		"allocs_per_op":    {median(allocs), n},
		"peak_rss_mb":      {peakRSSMB(), 1},
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
