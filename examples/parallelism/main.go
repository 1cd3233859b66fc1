// Flash-aware db-writer association (§3.2 of the paper, Figure 4 at
// example scale): the same TPC-B run with db-writers assigned globally
// versus die-wise. Die-wise association removes chip contention and
// raises throughput as parallelism grows. Stacks come from the public
// noftl.NewSystem facade.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	fmt.Println("TPC-B throughput, #db-writers = #dies, 8 read processes")
	fmt.Printf("%6s  %12s  %12s  %8s\n", "dies", "global", "die-wise", "speedup")
	for _, dies := range []int{1, 4, 8} {
		var tps [2]float64
		for i, assoc := range []noftl.WriterAssociation{noftl.AssocGlobal, noftl.AssocDieWise} {
			sys, err := noftl.NewSystem(noftl.SystemConfig{
				Stack:      noftl.StackNoFTL,
				Dies:       dies,
				CapacityMB: 96,
				Frames:     256,
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := noftl.RunScenario(sys, noftl.Scenario{
				Groups: []noftl.TerminalGroup{{
					Workload: noftl.NewTPCB(noftl.TPCBConfig{Branches: 16}), N: 8, Seed: 11,
				}},
				Writers:     dies,
				Association: assoc,
				Warm:        noftl.Second,
				Measure:     4 * noftl.Second,
			})
			if err != nil {
				log.Fatal(err)
			}
			tps[i] = res.TPS
		}
		fmt.Printf("%6d  %12.1f  %12.1f  %7.2fx\n", dies, tps[0], tps[1], tps[1]/tps[0])
	}
}
