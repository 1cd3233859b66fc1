// Command noftlbench regenerates the paper's experiments.
//
// Usage:
//
//	noftlbench -exp fig3      # Figure 3: GC overhead FASTer vs NoFTL
//	noftlbench -exp fig4a     # Figure 4a: TPC-C db-writer association
//	noftlbench -exp fig4b     # Figure 4b: TPC-B db-writer association
//	noftlbench -exp headline  # abstract: NoFTL vs FASTer/DFTL/pagemap TPS
//	noftlbench -exp latency   # §3: random-write latency distribution
//	noftlbench -exp validate  # Demo 1: emulator validation
//	noftlbench -exp delta     # A5: in-place appends (delta writes) vs full pages
//	noftlbench -exp regions   # A6: configurable regions (WAL on a native log region)
//	noftlbench -exp sched     # A7: command scheduling (background GC, priority queues,
//	                          #     and the per-request-tagging ablation column)
//	noftlbench -exp htap      # A8: HTAP — OLTP terminals vs analytical scans, pool policies
//	noftlbench -exp qos       # per-request QoS demo: two tagged tenants, split p99
//	noftlbench -exp serve     # serving front: record sessions + SLO-driven
//	                          #     admission control (no-control vs rate-limit
//	                          #     vs rate-limit+shed)
//	noftlbench -exp ablations # design-choice sweeps (A1-A4)
//	noftlbench -exp all
//
// Scale flags let the experiments approach the paper's full parameters
// (they default to simulation-friendly sizes). -json <path> additionally
// writes machine-readable results (name, TPS, WA, erases, bytes/tx) for
// the TPS experiments, so perf trajectories can accumulate as
// BENCH_*.json files. The artifact flags (-trace-out, -metrics-out,
// -blame-out, -folded-out, -speedscope-out, -health-out, -prom-out,
// -monitor-addr) apply to the last run of any kernel-driven experiment;
// the others (fig3, latency, validate, ablations) reject them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"noftl"
)

// experiment is one -exp entry. Kernel-driven experiments set sweep: it
// prints the experiment's tables and returns the sweeps it ran, whose
// last run the artifact flags export. The others set run.
type experiment struct {
	name  string
	run   func() error
	sweep func() ([]*noftl.Sweep, error)
}

func main() {
	var (
		jsonOut = flag.String("json", "", "write machine-readable results (TPS, WA, erases, bytes/tx) to this path")
		seed    = flag.Int64("seed", 42, "deterministic seed")
		txs     = flag.Int("txs", 4000, "transactions per workload (fig3)")
		tpccWH  = flag.Int("tpcc-warehouses", 2, "TPC-C scale factor")
		tpcbSF  = flag.Int("tpcb-branches", 24, "TPC-B scale factor")
		tpceCu  = flag.Int("tpce-customers", 100, "TPC-E customers")
		dies    = flag.String("dies", "", "comma list for fig4 (default 1,2,4,8,16,32)")
		workers = flag.Int("workers", 16, "transaction processes")
		driveMB = flag.Int("drive-mb", 192, "drive capacity for TPS runs")
		measure = flag.Int("measure-s", 8, "measurement window, simulated seconds")

		schedDies  = flag.Int("sched-dies", 0, "dies for the sched ablation (0: default 8)")
		schedMB    = flag.Int("sched-mb", 0, "drive MB for the sched ablation (0: default 64)")
		schedTrace = flag.Bool("sched-trace", false, "collect a command log and print per-class waits")
		tagged     = flag.Bool("tagged", true, "include the per-request-tagging column in the sched ablation")

		traceOut   = flag.String("trace-out", "", "write a Perfetto-loadable trace-event JSON file for the experiment's last run")
		metricsOut = flag.String("metrics-out", "", "write the telemetry metrics time series + flight recorder (JSON) for the experiment's last run")
		slowestK   = flag.Int("slowest", 16, "flight-recorder / blame retention: slowest K transactions (with -trace-out/-metrics-out/-blame-out)")

		blameOut      = flag.String("blame-out", "", "write the latency root-cause report (interference matrix, per-victim shares, slowest spans; JSON) for the experiment's last run")
		foldedOut     = flag.String("folded-out", "", "write blame-attributed request time as folded stacks (flamegraph.pl / speedscope-loadable) for the same run as -blame-out")
		speedscopeOut = flag.String("speedscope-out", "", "write blame-attributed request time as a speedscope sampled profile for the same run as -blame-out")

		qosDies  = flag.Int("qos-dies", 0, "dies for the qos demo (0: default 8)")
		qosMB    = flag.Int("qos-mb", 0, "drive MB for the qos demo (0: default 64)")
		qosLowDL = flag.Int("qos-low-deadline-ms", 0, "stamp the qos demo's low tenant with this completion deadline (ms; 0: off) so its SLO misses are measured and blame-attributed")

		healthOut   = flag.String("health-out", "", "write the device-health snapshot (wear heatmaps, GC efficiency, alert log; JSON) for the experiment's last run")
		promOut     = flag.String("prom-out", "", "write a Prometheus text-format metrics dump for the experiment's last run")
		monitorAddr = flag.String("monitor-addr", "", "serve live /metrics, /health and /alerts on this address during each run (e.g. 127.0.0.1:9464)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")

		serveClients   = flag.Int("serve-clients", 0, "total sessions for the serve ablation, split 1:3 paying:batch (0: default 800)")
		serveRows      = flag.Int("serve-rows", 0, "per-store record count for the serve ablation (0: default 16384)")
		serveDies      = flag.Int("serve-dies", 0, "dies for the serve ablation (0: default 8)")
		serveMB        = flag.Int("serve-mb", 0, "drive MB for the serve ablation (0: default 64)")
		serveBatchRate = flag.Float64("serve-batch-rate", 0, "batch tenant's contracted admission rate, req/s (0: default 1200)")
		serveWarmMs    = flag.Int("serve-warm-ms", 0, "serve ablation warm-up, simulated ms (0: default 1000)")
		serveSettleMs  = flag.Int("serve-settle-ms", 0, "serve ablation guard-settle window, simulated ms (0: default 1000)")

		htapDies    = flag.Int("htap-dies", 0, "dies for the htap ablation (0: default 8)")
		htapMB      = flag.Int("htap-mb", 0, "drive MB for the htap ablation (0: default 64)")
		htapTerms   = flag.Int("htap-terminals", 0, "OLTP terminals for htap (0: default 12)")
		htapReaders = flag.Int("htap-readers", 0, "analytical readers for htap (0: default 2)")
		htapFrames  = flag.Int("htap-frames", 0, "buffer frames for htap (0: default 256)")
		htapWindow  = flag.Int("htap-window", 0, "prefetch read-ahead depth for htap (0: default 16)")
	)

	// obs is the observability every kernel-driven experiment attaches,
	// set from the artifact flags once they are parsed.
	var obs noftl.Observe
	tps := func(r *noftl.ScenarioResult) float64 { return r.TPS }
	params := func(dies, driveMB, workers int) noftl.Params {
		return noftl.Params{Dies: dies, DriveMB: driveMB, Workers: workers,
			Measure: noftl.SimTime(*measure) * noftl.Second, Seed: *seed, Observe: obs}
	}
	fig4 := func(wl string) func() ([]*noftl.Sweep, error) {
		return func() ([]*noftl.Sweep, error) {
			cfg := noftl.Fig4Config{Params: params(0, *driveMB, *workers), Workload: wl}
			if *dies != "" {
				cfg.DieCounts = parseInts(*dies)
			}
			res, err := noftl.Figure4(cfg)
			if err != nil {
				return nil, err
			}
			fmt.Printf("Figure 4 (%s): TPS vs dies, global vs die-wise db-writers\n", wl)
			fmt.Print(res.Table())
			fmt.Printf("max die-wise speedup: %.2fx\n", res.Speedup())
			return []*noftl.Sweep{&res.Sweep}, nil
		}
	}
	scaled := func() noftl.StackConfig {
		return noftl.StackConfig{Params: params(0, *driveMB, *workers),
			TPCC: noftl.TPCCConfig{Warehouses: *tpccWH}, TPCB: noftl.TPCBConfig{Branches: *tpcbSF}}
	}
	// stackSweep runs one stack sweep per workload, printing each.
	stackSweep := func(cfg noftl.StackConfig, wls []string,
		fn func(noftl.StackConfig) (*noftl.Sweep, error), print func(wl string, s *noftl.Sweep)) ([]*noftl.Sweep, error) {
		var out []*noftl.Sweep
		for _, wl := range wls {
			cfg.Workload = wl
			res, err := fn(cfg)
			if err != nil {
				return nil, err
			}
			print(wl, res)
			out = append(out, res)
		}
		return out, nil
	}

	experiments := []experiment{
		{name: "fig3", run: func() error {
			res, err := noftl.Figure3(noftl.Fig3Config{
				TPCC:         noftl.TPCCConfig{Warehouses: *tpccWH},
				TPCB:         noftl.TPCBConfig{Branches: *tpcbSF},
				TPCE:         noftl.TPCEConfig{Customers: *tpceCu},
				Transactions: *txs,
				Seed:         *seed,
			})
			if err != nil {
				return err
			}
			fmt.Println("Figure 3: GC overhead of FASTer vs NoFTL (off-line trace replay)")
			fmt.Print(res.Table())
			fmt.Println("\nLongevity (§5): NoFTL lifetime factor = relative erase reduction:")
			for _, l := range res.Longevity() {
				fmt.Printf("  %-6s %.2fx\n", l.Workload, l.Factor)
			}
			return nil
		}},
		{name: "fig4a", sweep: fig4("tpcc")},
		{name: "fig4b", sweep: fig4("tpcb")},
		{name: "headline", sweep: func() ([]*noftl.Sweep, error) {
			return stackSweep(scaled(), []string{"tpcc", "tpcb"}, noftl.Headline, func(wl string, s *noftl.Sweep) {
				fmt.Printf("Headline (%s): end-to-end TPS by storage stack\n", wl)
				fmt.Print(s.Table())
				fmt.Printf("NoFTL vs FASTer: %.2fx   pagemap vs DFTL: %.2fx\n\n",
					s.Ratio("noftl", "faster", tps), s.Ratio("pagemap", "dftl", tps))
			})
		}},
		{name: "latency", run: func() error {
			res, err := noftl.Latency(noftl.LatencyConfig{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println("§3: 4KB random-write latency (high utilisation)")
			fmt.Print(res.Table())
			return nil
		}},
		{name: "validate", run: func() error {
			res, err := noftl.Validate(noftl.ValidateConfig{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println("Demo 1: emulator timing vs analytic model (queue depth 1)")
			fmt.Print(res.Table())
			fmt.Printf("max model error: %.3f%%\n", res.MaxErrorPct())
			fmt.Println("random-read IOPS scaling with dies:")
			for _, d := range []int{1, 2, 4, 8} {
				fmt.Printf("  %2d dies: %.0f IOPS\n", d, res.ScalingIOPS[d])
			}
			return nil
		}},
		{name: "delta", sweep: func() ([]*noftl.Sweep, error) {
			return stackSweep(scaled(), []string{"tpcb", "tpcc"}, noftl.DeltaAblation, func(wl string, s *noftl.Sweep) {
				fmt.Printf("Ablation A5 (%s): in-place appends (delta writes) vs full-page NoFTL vs FTL\n", wl)
				fmt.Print(s.Table())
				fmt.Printf("delta-NoFTL programs %.0f%% of full-page NoFTL's flash bytes per tx\n\n",
					100*s.Ratio("noftl-delta", "noftl", (*noftl.ScenarioResult).BytesPerTx))
			})
		}},
		// Drive size and scale factors default to the regions ablation's
		// own utilization-tuned values (placement policy only matters
		// under GC pressure).
		{name: "regions", sweep: func() ([]*noftl.Sweep, error) {
			cfg := noftl.StackConfig{Params: params(0, 0, *workers)}
			return stackSweep(cfg, []string{"tpcb", "tpcc"}, noftl.RegionsAblation, func(wl string, s *noftl.Sweep) {
				fmt.Printf("Ablation A6 (%s): single-policy NoFTL vs region-managed placement (WAL on log region)\n", wl)
				fmt.Print(s.Table())
				single, regions := s.Row("noftl-single"), s.Row("noftl-regions")
				fmt.Printf("regions vs single-policy: %.2fx erases, WA %+.3f, %.2fx TPS\n\n",
					s.Ratio("noftl-regions", "noftl-single", (*noftl.ScenarioResult).ErasesPerKTx),
					regions.FTL.WriteAmplification()-single.FTL.WriteAmplification(),
					s.Ratio("noftl-regions", "noftl-single", tps))
			})
		}},
		{name: "sched", sweep: func() ([]*noftl.Sweep, error) {
			cfg := noftl.SchedConfig{Params: params(*schedDies, *schedMB, *workers), Workload: "tpcb"}
			cfg.TraceCmds = cfg.TraceCmds || *schedTrace
			if !*tagged {
				cfg.Modes = []noftl.SchedMode{noftl.SchedInline, noftl.SchedBackground, noftl.SchedPriorityMode}
			}
			res, err := noftl.SchedAblation(cfg)
			if err != nil {
				return nil, err
			}
			header := "Ablation A7 (tpcb): inline GC vs background GC vs priority scheduling"
			if *tagged {
				header += " vs per-request tags"
			}
			fmt.Println(header)
			fmt.Print(res.Table())
			fmt.Println("\nper-class queue waits:")
			fmt.Print(res.WaitTable())
			if *schedTrace {
				for _, row := range res.Rows {
					fmt.Printf("command log (%s):\n%s", row.Mode, row.CmdLog.Summary())
				}
			}
			prio, inline := string(noftl.SchedPriorityMode), string(noftl.SchedInline)
			fmt.Printf("bg-gc+prio vs inline-gc: %.2fx TPS, %.2fx p99 commit, %.2fx p99 read\n",
				res.Ratio(prio, inline, tps), res.P99Ratio(prio, inline),
				res.Ratio(prio, inline, (*noftl.ScenarioResult).ReadP99))
			if *tagged {
				fmt.Printf("per-request tags vs static routing: %.2fx p99 commit\n",
					res.P99Ratio(string(noftl.SchedTagged), prio))
			}
			fmt.Println()
			return []*noftl.Sweep{res}, nil
		}},
		{name: "htap", sweep: func() ([]*noftl.Sweep, error) {
			p := params(*htapDies, *htapMB, *htapTerms)
			p.Frames = *htapFrames
			res, err := noftl.HTAPAblation(noftl.HTAPConfig{Params: p, Readers: *htapReaders, Window: *htapWindow})
			if err != nil {
				return nil, err
			}
			fmt.Println("Ablation A8 (tpcb+tpch): naive shared pool vs scan-resistant vs scan-resistant + prefetch")
			fmt.Print(res.Table())
			full, naive := "scan-resist+prefetch", "naive"
			fmt.Printf("scan-resist+prefetch vs naive: %.2fx OLTP TPS, %.2fx p99 commit, %.2fx scan rows/s\n\n",
				res.Ratio(full, naive, tps), res.P99Ratio(full, naive),
				res.Ratio(full, naive, func(r *noftl.ScenarioResult) float64 { return r.RowsPerS }))
			return []*noftl.Sweep{res}, nil
		}},
		{name: "qos", sweep: func() ([]*noftl.Sweep, error) {
			res, err := noftl.QoS(noftl.QoSConfig{
				Params:      params(*qosDies, *qosMB, *workers),
				LowDeadline: noftl.SimTime(*qosLowDL) * noftl.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			fmt.Println("Per-request QoS: two TPC-B tenants, one declared low-priority")
			fmt.Print(res.Table())
			fmt.Printf("p99 commit split low/high: %.2fx (%d class-overriding dispatches)\n",
				res.P99Ratio("qos/low", "qos/high"), res.Rows[0].Sched.Retagged)
			if rep := res.Rows[0].Blame; rep != nil {
				if cs, ok := rep.DominantMissedCulprit(noftl.TagLowPriority); ok {
					fmt.Printf("low tenant's dominant latency culprit behind missed deadlines: %s (%.0f%% of blamed wait)\n",
						cs.Class, 100*cs.Share)
				}
			}
			fmt.Println()
			return []*noftl.Sweep{res}, nil
		}},
		{name: "serve", sweep: func() ([]*noftl.Sweep, error) {
			p := params(*serveDies, *serveMB, *serveClients)
			p.Warm = noftl.SimTime(*serveWarmMs) * noftl.Millisecond
			p.Settle = noftl.SimTime(*serveSettleMs) * noftl.Millisecond
			res, err := noftl.ServeAblation(noftl.ServeAblationConfig{Params: p,
				Rows: int64(*serveRows), BatchRate: *serveBatchRate})
			if err != nil {
				return nil, err
			}
			fmt.Println("Serving front: record sessions under admission control")
			fmt.Println("(uncontended reference, then no-control vs rate-limit vs rate-limit+shed)")
			fmt.Print(res.Table())
			protection := func(c noftl.AdmissionControl) float64 {
				return res.P99Ratio(c.String()+"/paying", "uncontended/paying")
			}
			fmt.Printf("paying p99 vs uncontended: no-control %.2fx, rate-limit %.2fx, rate-limit+shed %.2fx\n",
				protection(noftl.ControlNone), protection(noftl.ControlRateLimit), protection(noftl.ControlFull))
			full := res.Row(noftl.ControlFull.String()).Front
			fmt.Printf("full regime: %d admitted, %d deprioritized, %d shed\n\n",
				full.Admitted, full.Deprioritized, full.Shed)
			return []*noftl.Sweep{res}, nil
		}},
		{name: "ablations", run: func() error {
			for _, f := range []func(int64) (*noftl.AblationResult, error){
				noftl.AblationGCPolicy, noftl.AblationDFTLCMT,
				noftl.AblationFasterLog, noftl.AblationOverProvision,
			} {
				res, err := f(*seed)
				if err != nil {
					return err
				}
				fmt.Printf("ablation: %s\n%s\n", res.Name, res.Table())
			}
			return nil
		}},
	}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	flag.Parse()

	var selected []experiment
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "noftlbench: unknown experiment %q (valid: %s|all)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	for _, a := range []struct{ flag, val string }{
		{"trace-out", *traceOut}, {"metrics-out", *metricsOut}, {"blame-out", *blameOut},
		{"folded-out", *foldedOut}, {"speedscope-out", *speedscopeOut}, {"health-out", *healthOut},
		{"prom-out", *promOut}, {"monitor-addr", *monitorAddr},
	} {
		for _, e := range selected {
			if a.val != "" && e.sweep == nil {
				fmt.Fprintf(os.Stderr, "noftlbench: -%s needs a kernel-driven experiment; %s has no kernel run\n", a.flag, e.name)
				os.Exit(2)
			}
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	telemetryOn := *traceOut != "" || *metricsOut != ""
	blameOn := *blameOut != "" || *foldedOut != "" || *speedscopeOut != ""
	healthOn := *healthOut != "" || *monitorAddr != ""
	switch {
	case telemetryOn:
		obs.Telemetry = &noftl.TelemetryConfig{SlowestK: *slowestK, RetainSpans: *traceOut != ""}
	case *promOut != "":
		obs.Telemetry = &noftl.TelemetryConfig{}
	}
	// The Perfetto export draws its command timelines from the command
	// log.
	obs.TraceCmds = *traceOut != ""
	if blameOn {
		obs.Blame = &noftl.BlameConfig{SlowestK: *slowestK}
	}
	if healthOn {
		obs.Health = &noftl.HealthConfig{
			Rules:       noftl.DefaultSLORules(64, 4, 50_000, 0.05),
			MonitorAddr: *monitorAddr,
		}
	}

	// export writes the artifacts of a kernel-driven experiment's last
	// run.
	export := func(s *noftl.Sweep) error {
		last := &s.Rows[len(s.Rows)-1]
		// write reports each artifact it writes; after a failure it
		// writes nothing more and export returns that failure.
		var werr error
		write := func(path, what string, fn func(*os.File) error) {
			if path == "" || werr != nil {
				return
			}
			if werr = writeFileWith(path, fn); werr == nil {
				fmt.Printf("wrote %s (%s) to %s\n", what, last.Mode, path)
			}
		}
		if (telemetryOn || blameOn) && last.Tel != nil {
			fmt.Printf("flight recorder (%s): slowest transactions by layer\n%s", last.Mode, last.Tel.SlowestTable())
		}
		write(*traceOut, "Perfetto trace", func(f *os.File) error {
			return noftl.WriteTraceEvents(f, last.CmdLog, last.Tel.Spans())
		})
		write(*metricsOut, "metrics series", func(f *os.File) error { return last.Tel.WriteMetrics(f) })
		if rep := last.Blame; rep != nil {
			fmt.Printf("blame matrix (%s): top victim x culprit interference\n%s", last.Mode, rep.TopTable(12))
			fmt.Printf("slowest spans (%s) with blame attribution:\n%s", last.Mode, rep.SlowestTable(8))
			write(*blameOut, "blame report", func(f *os.File) error { return rep.WriteJSON(f) })
			write(*foldedOut, "folded stacks", func(f *os.File) error { return rep.WriteFolded(f) })
			write(*speedscopeOut, "speedscope profile", func(f *os.File) error { return rep.WriteSpeedscope(f) })
		}
		var now noftl.SimTime
		if healthOn {
			fmt.Println("device health:")
			fmt.Print(s.HealthTable())
			if at := s.AlertTable(); at != "" {
				fmt.Println("SLO alerts:")
				fmt.Print(at)
			}
			now = last.Health.TNs
		}
		write(*healthOut, "health snapshot", func(f *os.File) error { return noftl.WriteHealthSnapshot(f, last.Health) })
		write(*promOut, "Prometheus dump", func(f *os.File) error { return noftl.WritePrometheus(f, last.Tel.Reg, now) })
		return werr
	}

	report := &noftl.JSONReport{Seed: *seed}
	for _, e := range selected {
		fmt.Printf("=== %s ===\n", e.name)
		err := func() error {
			if e.sweep == nil {
				return e.run()
			}
			if *monitorAddr != "" {
				fmt.Printf("live monitor on http://%s (/metrics /health /alerts)\n", *monitorAddr)
			}
			sweeps, err := e.sweep()
			if err != nil {
				return err
			}
			for _, s := range sweeps {
				report.Add(s)
			}
			return export(sweeps[len(sweeps)-1])
		}()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		if err := report.Write(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(report.Results), *jsonOut)
	}
}

func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseInts(s string) []int {
	var out []int
	cur := 0
	have := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if have {
				out = append(out, cur)
			}
			cur, have = 0, false
			continue
		}
		if s[i] >= '0' && s[i] <= '9' {
			cur = cur*10 + int(s[i]-'0')
			have = true
		}
	}
	return out
}
