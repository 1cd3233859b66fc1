package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// kvServe drives the serving front under an open loop: independent
// users arrive on a seeded Poisson schedule at a fixed offered rate per
// tenant and queue for a session from the tenant's pool; each request is
// timed from its due time. The paying tenant does point gets and small
// read-modify-write transactions; the batch tenant does versioned puts,
// offered above its contracted rate so the rate limiter paces it. The
// record set fits in the buffer pool, so flash is nearly idle and the
// work falls on the DES kernel, WAL group commit, locks and latches and
// admission.
type kvServe struct {
	cfg  stackConfig
	seed int64

	rows        int64
	pools       [2]int     // sessions per tenant
	offered     [2]float64 // offered request rate per tenant (1/s)
	contract    float64    // batch tenant's admission rate (1/s)
	sloUs       float64    // paying-tenant p99 limit
	writeShare  int        // percent of paying requests that are read-modify-writes
	warm, windw sim.Time

	front    *serve.Front
	ver      []int64 // last acknowledged version per key
	scale    float64 // multiplier on the paying tenant's offered rate (rate ladder)
	stopping bool
}

// kvReq is one user request, due at a fixed time.
type kvReq struct {
	due   sim.Time
	key   int64
	write bool
}

const (
	paying = iota
	batch
)

var kvTenants = [2]string{"paying", "batch"}

func newKVServe(seed int64) *kvServe {
	return &kvServe{
		cfg:        stackConfig{Dies: 8, MB: 64, Frames: 512},
		seed:       seed,
		rows:       8192, // ~300 heap and index pages: fits the pool
		pools:      [2]int{200, 100},
		offered:    [2]float64{16000, 6000},
		contract:   4000,
		sloUs:      5000,
		writeShare: 20,
		warm:       sim.Second,
		windw:      5 * sim.Second,
		scale:      1,
	}
}

func (w *kvServe) stack() stackConfig { return w.cfg }

func (w *kvServe) policy() flushPolicy {
	// The serving ablation's checkpointer: tighter ticks, truncation at a
	// quarter of the log, no periodic checkpoint.
	return flushPolicy{Writers: 8, CkptPoll: 20 * sim.Millisecond, CkptLogShare: 4}
}

func (w *kvServe) phases() (sim.Time, sim.Time) { return w.warm, w.windw }

func (w *kvServe) scanRows() int64 { return 0 }

// value stamps a record with its key and version.
func value(key, ver int64) []byte { return rec(80, key, ver) }

func (w *kvServe) load(ctx *storage.IOCtx, e *storage.Engine) error {
	f, err := serve.New(e, serve.Config{
		Tenants: []serve.TenantSpec{
			{Name: kvTenants[paying], Tag: 0x5E0001, Deadline: sim.Time(w.sloUs) * sim.Microsecond},
			{Name: kvTenants[batch], Tag: 0x5E0002, Rate: w.contract, Burst: 16},
		},
		Control: serve.ControlRateLimit,
	})
	if err != nil {
		return err
	}
	w.front = f
	st, err := f.CreateStore(ctx, "kv")
	if err != nil {
		return err
	}
	w.ver = make([]int64, w.rows)
	return loadRows(ctx, e, st.Table, st.Index, w.rows, func(k int64) []byte { return value(k, 0) })
}

func (w *kvServe) start(r *rig) error {
	for t := range kvTenants {
		q := sim.NewQueue[kvReq](r.k)
		rng := rand.New(rand.NewSource(w.seed*31 + int64(t)))
		r.client("arrivals-"+kvTenants[t], func(p *sim.Proc) {
			defer q.Close()
			due := p.Now()
			for {
				rate := w.offered[t]
				if t == paying {
					rate *= w.scale
				}
				due += sim.Time(rng.ExpFloat64() / rate * float64(sim.Second))
				p.SleepUntil(due)
				if w.stopping {
					return
				}
				q.Put(kvReq{due: due, key: rng.Int63n(w.rows),
					write: t == batch || rng.Intn(100) < w.writeShare})
			}
		})
		for i := 0; i < w.pools[t]; i++ {
			s, err := w.front.OpenSession(kvTenants[t], "kv")
			if err != nil {
				return err
			}
			r.client(fmt.Sprintf("%s-session%d", kvTenants[t], i), func(p *sim.Proc) {
				ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
				for {
					req, ok := q.Get(p)
					if !ok || w.stopping {
						return
					}
					r.pr.opBegin(p)
					for {
						if r.counting {
							r.attempts++
						}
						err := w.do(ctx, s, req)
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
					r.done(p, req.due, t == paying)
				}
			})
		}
	}
	return nil
}

// do runs one request and checks what it read: a get must return the
// record stamped with its own key at a version no older than the last
// put acknowledged before the get was issued.
func (w *kvServe) do(ctx *storage.IOCtx, s *serve.Session, req kvReq) error {
	if !req.write {
		floor := w.ver[req.key]
		v, err := s.Get(ctx, req.key)
		if err != nil {
			return err
		}
		if field(v, 0) != req.key || field(v, 1) < floor {
			return fmt.Errorf("kv: get %d returned key %d version %d; version %d was acknowledged before it",
				req.key, field(v, 0), field(v, 1), floor)
		}
		return nil
	}
	var ver int64
	err := s.Tx(ctx, func(tx *serve.Txn) error {
		v, err := tx.GetForUpdate(req.key)
		if err != nil {
			return err
		}
		if field(v, 0) != req.key {
			return fmt.Errorf("kv: key %d holds a record stamped %d", req.key, field(v, 0))
		}
		ver = field(v, 1) + 1
		return tx.Put(req.key, value(req.key, ver))
	})
	if err != nil {
		return err
	}
	w.ver[req.key] = max(w.ver[req.key], ver)
	return nil
}

func (w *kvServe) stop() { w.stopping = true }

// check scans the store in key order: every key is present once,
// stamped with itself, at exactly the last acknowledged version.
func (w *kvServe) check(ctx *storage.IOCtx, e *storage.Engine) (int64, error) {
	idx, err := e.OpenTable("kv.pk")
	if err != nil {
		return 0, err
	}
	var n int64
	var bad error
	err = e.IdxRange(ctx, idx, 0, w.rows-1, func(key int64, rid storage.RID) bool {
		v, err := e.FetchDirty(ctx, rid)
		switch {
		case err != nil:
			bad = err
		case key != n || field(v, 0) != key || field(v, 1) != w.ver[key]:
			bad = fmt.Errorf("kv scan: position %d holds key %d stamped %d version %d, model version %d",
				n, key, field(v, 0), field(v, 1), w.ver[min(max(key, 0), w.rows-1)])
		default:
			n++
			return true
		}
		return false
	})
	if err == nil {
		err = bad
	}
	if err == nil && n != w.rows {
		err = fmt.Errorf("kv scan: %d records, model has %d", n, w.rows)
	}
	return n, err
}

func (w *kvServe) frontStats() serve.Stats { return w.front.Stats() }

// ladderSteps multiply the paying tenant's nominal offered rate.
var ladderSteps = []float64{1, 1.5, 2, 3, 4, 6}

// ladder runs the paying tenant through rising offered rates on a fresh
// stack and reports the rate at which its p99 crosses the limit,
// interpolated between the last step that met it and the first that
// did not. A backlog that keeps growing shows up as a p99 past the
// limit, because requests are timed from their due time.
func (w *kvServe) ladder(rp *report) error {
	lw := newKVServe(w.seed)
	r, _, err := setup(lw, nil, buildStack)
	if err != nil {
		return err
	}
	const step = sim.Second
	prevM, prevP99 := 0.0, 0.0
	rate := ladderSteps[len(ladderSteps)-1] * lw.offered[paying]
	var n int64
	for _, m := range ladderSteps {
		lw.scale = m
		r.lat = r.lat[:0]
		r.counting = true
		r.k.RunFor(step)
		r.counting = false
		if r.fatal != nil {
			return r.fatal
		}
		slices.Sort(r.lat)
		p99 := percentile(r.lat, 99) / 1e3
		n += int64(len(r.lat))
		fmt.Printf("  ladder %6.0f req/s: paying p99 %8.1f us (n=%d)\n", m*lw.offered[paying], p99, len(r.lat))
		if p99 > lw.sloUs {
			frac := (lw.sloUs - prevP99) / (p99 - prevP99)
			rate = (prevM + (m-prevM)*frac) * lw.offered[paying]
			break
		}
		prevM, prevP99 = m, p99
	}
	lw.stop()
	r.k.Shutdown()
	rp.add("serve.rate_at_slo", "1/s", rate, n)
	return nil
}
