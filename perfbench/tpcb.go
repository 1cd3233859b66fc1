package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

// Records are fixed-layout: little-endian int64 fields, then filler.
func rec(filler int, fields ...int64) []byte {
	b := make([]byte, len(fields)*8+filler)
	for i, f := range fields {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(f))
	}
	return b
}

func field(b []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }

func setField(b []byte, i int, v int64) { binary.LittleEndian.PutUint64(b[i*8:], uint64(v)) }

// loadRows inserts n rows made by gen, indexed by key, committing every
// 500 rows and checkpointing when the log is half full (bulk loads
// outrun the checkpointer).
func loadRows(ctx *storage.IOCtx, e *storage.Engine, tbl, idx uint32, n int64,
	gen func(i int64) []byte) error {
	const batch = 500
	for start := int64(0); start < n; start += batch {
		end := min(start+batch, n)
		tx := e.Begin()
		for i := start; i < end; i++ {
			rid, err := e.Insert(ctx, tx, tbl, gen(i))
			if err != nil {
				return err
			}
			if idx != 0 {
				if err := e.IdxInsert(ctx, tx, idx, i, rid); err != nil {
					return err
				}
			}
		}
		if err := e.Commit(ctx, tx); err != nil {
			return err
		}
		if wal := e.Log(); wal.SinceAnchor()*2 > wal.Capacity() {
			if err := e.Checkpoint(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// tpcb is TPC-B over the engine's heap and B+-tree API: three balance
// updates and one history insert per transaction, closed-loop
// terminals. It keeps the model the audit needs: every balance as
// implied by the acknowledged commits alone.
type tpcb struct {
	Branches, TellersPerBranch, AccountsPerBranch int
	Terminals                                     int
	// LoadShare sizes Branches at load time: the loaded rows fill this
	// share of the data volume (about 34 rows plus key entries fit a
	// 4 KiB page).
	LoadShare    float64
	seed         int64
	warm, window sim.Time

	tables [4]uint32 // branch, teller, account, history
	pks    [3]uint32 // branch, teller, account

	model [3][]int64 // balances per branch, teller, account
	acked int64      // acknowledged commits since load
	delta int64      // sum of acknowledged deltas

	stopping bool
}

var tpcbTables = [4]string{"branch", "teller", "account", "history"}

const tpcbFiller = 64 // pads rows towards the spec's 100 bytes

func (t *tpcb) rows(i int) int64 {
	switch i {
	case 0:
		return int64(t.Branches)
	case 1:
		return int64(t.Branches * t.TellersPerBranch)
	default:
		return int64(t.Branches * t.AccountsPerBranch)
	}
}

func (t *tpcb) load(ctx *storage.IOCtx, e *storage.Engine) error {
	const rowsPerPage = 34
	t.Branches = max(2, int(float64(e.DataVolume().Pages())*t.LoadShare*rowsPerPage)/t.AccountsPerBranch)
	for i, name := range tpcbTables {
		id, err := e.CreateTable(ctx, "tpcb_"+name)
		if err != nil {
			return err
		}
		t.tables[i] = id
		if i < 3 {
			if t.pks[i], err = e.CreateIndex(ctx, "tpcb_"+name+"_pk"); err != nil {
				return err
			}
		}
	}
	for i := 0; i < 3; i++ {
		n := t.rows(i)
		t.model[i] = make([]int64, n)
		if err := loadRows(ctx, e, t.tables[i], t.pks[i], n,
			func(k int64) []byte { return rec(tpcbFiller, k, 0) }); err != nil {
			return fmt.Errorf("tpcb: load %s: %w", tpcbTables[i], err)
		}
	}
	return nil
}

// txn runs one TPC-B transaction and, once it is acknowledged, applies
// it to the model.
func (t *tpcb) txn(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	bid := rng.Int63n(int64(t.Branches))
	tid := bid*int64(t.TellersPerBranch) + rng.Int63n(int64(t.TellersPerBranch))
	// 15% of accounts are remote to the teller's branch (spec 5.3.5).
	var aid int64
	if t.Branches > 1 && rng.Intn(100) < 15 {
		remote := (bid + 1 + rng.Int63n(int64(t.Branches-1))) % int64(t.Branches)
		aid = remote*int64(t.AccountsPerBranch) + rng.Int63n(int64(t.AccountsPerBranch))
	} else {
		aid = bid*int64(t.AccountsPerBranch) + rng.Int63n(int64(t.AccountsPerBranch))
	}
	delta := rng.Int63n(1999999) - 999999

	tx := e.Begin()
	err := func() error {
		for i, key := range [3]int64{aid, tid, bid} {
			idx := t.pks[2-i]
			rid, found, err := e.IdxLookup(ctx, tx, idx, key)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("tpcb: %s %d missing", tpcbTables[2-i], key)
			}
			row, err := e.FetchForUpdate(ctx, tx, rid)
			if err != nil {
				return err
			}
			setField(row, 1, field(row, 1)+delta)
			if err := e.Update(ctx, tx, rid, row); err != nil {
				return err
			}
		}
		_, err := e.Insert(ctx, tx, t.tables[3], rec(22, aid, tid, bid, delta))
		return err
	}()
	if err != nil {
		if aerr := e.Abort(ctx, tx); aerr != nil {
			return fmt.Errorf("abort failed (%v) after: %w", aerr, err)
		}
		return err
	}
	if err := e.Commit(ctx, tx); err != nil {
		return err
	}
	t.model[0][bid] += delta
	t.model[1][tid] += delta
	t.model[2][aid] += delta
	t.acked++
	t.delta += delta
	return nil
}

// start launches the closed-loop terminals: each waits for its commit
// before starting the next transaction. A lock timeout aborts the
// attempt and the terminal retries; latency runs from the first attempt.
func (t *tpcb) start(r *rig) error {
	for i := 0; i < t.Terminals; i++ {
		seed := t.seed + int64(i)*7919
		r.client(fmt.Sprintf("terminal%d", i), func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			e := r.st.eng
			for !t.stopping {
				t0 := p.Now()
				r.pr.opBegin(p)
				for {
					if r.counting {
						r.attempts++
					}
					err := t.txn(ctx, e, rng)
					if err == nil {
						break
					}
					if !errors.Is(err, storage.ErrLockTimeout) {
						r.fail(err)
						return
					}
					if r.counting {
						r.fails++
					}
				}
				r.done(p, t0, true)
			}
		})
	}
	return nil
}

func (t *tpcb) stop() { t.stopping = true }

// check is the TPC-B audit: every branch, teller and account balance
// equals the model of acknowledged commits, each branch balance equals
// its tellers' sum and its history deltas' sum, and the history holds
// exactly one row per acknowledged commit.
func (t *tpcb) check(ctx *storage.IOCtx, e *storage.Engine) (int64, error) {
	var rows int64
	var sums [3][]int64
	for i := 0; i < 3; i++ {
		id, err := e.OpenTable("tpcb_" + tpcbTables[i])
		if err != nil {
			return rows, err
		}
		seen := make([]bool, len(t.model[i]))
		var bad error
		err = e.Scan(ctx, id, func(_ storage.RID, row []byte) bool {
			rows++
			k := field(row, 0)
			switch {
			case k < 0 || k >= int64(len(seen)) || seen[k]:
				bad = fmt.Errorf("audit: %s key %d duplicated or out of range", tpcbTables[i], k)
			case field(row, 1) != t.model[i][k]:
				bad = fmt.Errorf("audit: %s %d balance %d, acknowledged commits give %d",
					tpcbTables[i], k, field(row, 1), t.model[i][k])
			default:
				seen[k] = true
				return true
			}
			return false
		})
		if err != nil {
			return rows, err
		}
		if bad != nil {
			return rows, bad
		}
		for k, ok := range seen {
			if !ok {
				return rows, fmt.Errorf("audit: %s %d missing", tpcbTables[i], k)
			}
		}
		sums[i] = make([]int64, t.Branches)
	}
	for tid, bal := range t.model[1] {
		sums[1][tid/t.TellersPerBranch] += bal
	}
	hist, err := e.OpenTable("tpcb_history")
	if err != nil {
		return rows, err
	}
	var n, total int64
	err = e.Scan(ctx, hist, func(_ storage.RID, row []byte) bool {
		rows++
		n++
		total += field(row, 3)
		sums[2][field(row, 2)] += field(row, 3)
		return true
	})
	if err != nil {
		return rows, err
	}
	if n != t.acked || total != t.delta {
		return rows, fmt.Errorf("audit: history holds %d rows summing to %d; %d commits acknowledged summing to %d",
			n, total, t.acked, t.delta)
	}
	for b := 0; b < t.Branches; b++ {
		if sums[1][b] != t.model[0][b] || sums[2][b] != t.model[0][b] {
			return rows, fmt.Errorf("audit: branch %d balance %d, tellers sum %d, history sums %d",
				b, t.model[0][b], sums[1][b], sums[2][b])
		}
	}
	return rows, nil
}

// tpcbGC is the paper's regime: TPC-B with the data region near 80%
// occupancy and the accounts table several times the buffer pool, so
// flash management (GC copies, erases, log appends, die queues) does
// most of the work.
type tpcbGC struct {
	tpcb
	cfg stackConfig
}

func newTPCBGC(seed int64) *tpcbGC {
	cfg := stackConfig{Dies: 8, MB: 64, Frames: 384}
	w := &tpcbGC{cfg: cfg}
	w.seed = seed
	w.Terminals = 12
	w.TellersPerBranch = 10
	w.AccountsPerBranch = 6000
	// Load to 68% of the data region; the history table's growth ends
	// the run near 80% occupancy.
	w.LoadShare = 0.68
	// Three seconds of warm-up cycle the checkpointer and background GC
	// until write amplification levels off.
	w.warm, w.window = 3*sim.Second, 4*sim.Second
	return w
}

func (w *tpcbGC) stack() stackConfig { return w.cfg }

func (w *tpcbGC) policy() flushPolicy {
	return flushPolicy{Writers: 8, CkptPoll: 100 * sim.Millisecond, CkptEvery: 2 * sim.Second, CkptLogShare: 2}
}

func (w *tpcbGC) phases() (sim.Time, sim.Time) { return w.warm, w.window }

func (w *tpcbGC) scanRows() int64 { return 0 }
