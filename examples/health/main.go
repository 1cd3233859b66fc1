// Device health observability on native flash: a region-managed,
// priority-scheduled NoFTL stack runs TPC-B with the health monitor
// attached — per-die wear heatmaps and erase histograms, per-region GC
// efficiency with the byte decomposition behind write amplification,
// and declarative SLO rules (wear-spread ceiling, free-block floor,
// commit-p99 ceiling, deadline-miss burn rate) evaluated at every
// sampler tick. The same monitor can serve /metrics, /health and
// /alerts live to curl or Prometheus: pass a listen address as the
// first argument (e.g. 127.0.0.1:9090) and scrape while it runs.
package main

import (
	"fmt"
	"log"
	"os"

	"noftl"
)

func main() {
	monitorAddr := ""
	if len(os.Args) > 1 {
		monitorAddr = os.Args[1]
	}

	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack: noftl.StackNoFTLRegions, Dies: 4, CapacityMB: 24, Frames: 128,
	},
		noftl.WithPriorityScheduler(),
		noftl.WithBackgroundGC(),
		noftl.WithHealth(noftl.HealthConfig{
			// Stock SLO set: wear-spread > 8 erases, free blocks < 4,
			// commit p99 > 20ms, > 5% of commits missing their deadline.
			Rules:       noftl.DefaultSLORules(8, 4, 20_000, 0.05),
			MonitorAddr: monitorAddr,
		}))
	if err != nil {
		log.Fatal(err)
	}
	if addr := sys.Health.Addr(); addr != "" {
		fmt.Printf("live monitor: http://%s/metrics /health /alerts\n\n", addr)
	}

	res, err := noftl.RunScenario(sys, noftl.Scenario{
		Groups: []noftl.TerminalGroup{{
			Workload: noftl.NewTPCB(noftl.TPCBConfig{Branches: 7, AccountsPerBranch: 6000}),
			N:        8, Seed: 42,
			// Tight per-transaction deadlines so the burn-rate rule has a
			// budget to burn.
			Deadline: 2 * noftl.Millisecond,
		}},
		Writers:     4,
		Association: noftl.AssocDieWise,
		Warm:        500 * noftl.Millisecond,
		Measure:     3 * noftl.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	snap := res.Health // taken at the end of the run
	fmt.Printf("%.0f TPS on %d dies; device health at t=%s:\n\n",
		res.TPS, snap.Device.Dies, snap.TNs)

	fmt.Printf("wear: min %d, max %d, spread %d, p50 %d, p99 %d over %d blocks (%d bad)\n",
		snap.Wear.Min, snap.Wear.Max, snap.Wear.Spread,
		snap.Wear.P50, snap.Wear.P99, snap.Wear.TotalBlocks, snap.Wear.BadBlocks)
	for _, d := range snap.Dies {
		fmt.Printf("  die %d: erase [%d,%d] mean %.1f, hist", d.Die, d.EraseMin, d.EraseMax, d.EraseMean)
		for _, b := range d.Hist {
			fmt.Printf(" <=%d:%d", b.Le, b.Count)
		}
		fmt.Println()
	}

	fmt.Println("\nregions:")
	for _, r := range snap.Regions {
		fmt.Printf("  %-5s (%s): occupancy %.0f%%, free blocks %d, WA %.2f, valid-copy %.2f\n",
			r.Name, r.Mapping, 100*r.Occupancy, r.FreeBlocks, r.GC.WA, r.GC.ValidCopyRatio)
		fmt.Printf("        bytes: host %d, gc %d, wear %d, fold %d\n",
			r.GC.HostBytes, r.GC.GCBytes, r.GC.WearBytes, r.GC.FoldBytes)
	}

	alerts := sys.Health.Alerts()
	fmt.Printf("\n%d SLO transitions:\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("  %-12s %-14s %-5s %-9s %s\n", a.TNs, a.Rule, a.Severity, a.State, a.Detail)
	}

	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
