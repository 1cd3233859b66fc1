package main

import (
	"fmt"
	"math/rand"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

// htapScan runs TPC-B terminals next to analytical readers that scan a
// fact table end to end, on the scan-resistant pool with sequential
// read-ahead. The tables are several times the pool, so reads dominate:
// buffer-pool eviction and promotion, the prefetch class and sequential
// die reads do the work while GC stays light.
type htapScan struct {
	tpcb
	cfg     stackConfig
	readers int

	factRows int64
	factSum  int64 // sum of the value column, fixed at load
	scanned  int64 // rows delivered to readers so far
}

func newHTAPScan(seed int64) *htapScan {
	w := &htapScan{
		cfg:      stackConfig{Dies: 8, MB: 64, Frames: 256, ScanResistant: true, Prefetch: 16},
		readers:  2,
		factRows: 50000, // ~1,500 pages: six times the pool
	}
	w.seed = seed
	w.Terminals = 12
	w.TellersPerBranch = 10
	w.AccountsPerBranch = 6000
	// TPC-B at 30% of the data region; with the fact table and the
	// history growth the run ends near half occupancy (light GC).
	w.LoadShare = 0.30
	w.warm, w.window = 2*sim.Second, 3*sim.Second
	return w
}

func (w *htapScan) stack() stackConfig { return w.cfg }

func (w *htapScan) policy() flushPolicy {
	return flushPolicy{Writers: 8, CkptPoll: 100 * sim.Millisecond, CkptEvery: 2 * sim.Second, CkptLogShare: 2}
}

func (w *htapScan) phases() (sim.Time, sim.Time) { return w.warm, w.window }

func (w *htapScan) scanRows() int64 { return w.scanned }

func (w *htapScan) load(ctx *storage.IOCtx, e *storage.Engine) error {
	if err := w.tpcb.load(ctx, e); err != nil {
		return err
	}
	id, err := e.CreateTable(ctx, "facts")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed ^ 0x5ca1ab1e))
	return loadRows(ctx, e, id, 0, w.factRows, func(k int64) []byte {
		v := rng.Int63n(1000)
		w.factSum += v
		return rec(96, k, v)
	})
}

// scanFacts scans the whole fact table and checks its cardinality and
// the sum of its value column.
func (w *htapScan) scanFacts(ctx *storage.IOCtx, e *storage.Engine, seen func()) error {
	id, err := e.OpenTable("facts")
	if err != nil {
		return err
	}
	var n, sum int64
	if err := e.Scan(ctx, id, func(_ storage.RID, row []byte) bool {
		n++
		sum += field(row, 1)
		seen()
		return true
	}); err != nil {
		return err
	}
	if n != w.factRows || sum != w.factSum {
		return fmt.Errorf("scan: facts returned %d rows summing to %d, want %d rows summing to %d",
			n, sum, w.factRows, w.factSum)
	}
	return nil
}

func (w *htapScan) start(r *rig) error {
	if err := w.tpcb.start(r); err != nil {
		return err
	}
	for i := 0; i < w.readers; i++ {
		r.client(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			for !w.stopping {
				if err := w.scanFacts(ctx, r.st.eng, func() { w.scanned++ }); err != nil {
					r.fail(err)
					return
				}
			}
		})
	}
	return nil
}

func (w *htapScan) check(ctx *storage.IOCtx, e *storage.Engine) (int64, error) {
	rows, err := w.tpcb.check(ctx, e)
	if err != nil {
		return rows, err
	}
	return rows + w.factRows, w.scanFacts(ctx, e, func() {})
}
