// TPC-C on two storage stacks: the same engine and workload on (a) a
// conventional black-box SSD (FASTer FTL behind a block interface) and
// (b) NoFTL. Prints throughput and the GC work behind the difference —
// the paper's headline comparison at example scale, built entirely
// through the public noftl.NewSystem facade.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	for _, stack := range []noftl.Stack{noftl.StackFaster, noftl.StackNoFTL} {
		sys, err := noftl.NewSystem(noftl.SystemConfig{
			Stack:      stack,
			Dies:       4,
			CapacityMB: 96,
			Frames:     256,
		})
		if err != nil {
			log.Fatal(err)
		}
		assoc := noftl.AssocGlobal
		if stack == noftl.StackNoFTL {
			assoc = noftl.AssocDieWise // the DBMS can see the dies
		}
		res, err := noftl.RunScenario(sys, noftl.Scenario{
			Groups: []noftl.TerminalGroup{{
				Workload: noftl.NewTPCC(noftl.TPCCConfig{Warehouses: 1}), N: 8, Seed: 7,
			}},
			Writers:     4,
			Association: assoc,
			Warm:        noftl.Second,
			Measure:     4 * noftl.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  %8.1f TPS  (%d tx, %d lock retries)\n",
			stack, res.TPS, res.Committed, res.Retries)
		fmt.Printf("          flash: %d programs, %d copybacks, %d erases; WA %.2f\n",
			res.Device.Programs, res.Device.Copybacks, res.Device.Erases,
			res.FTL.WriteAmplification())
	}
	fmt.Println("\nThe gap comes from garbage collection: the black-box FTL merges")
	fmt.Println("whole logical blocks and drags dead database pages along; NoFTL's")
	fmt.Println("host-side GC skips pages the engine declared dead.")
}
