package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/sched"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry"
)

// Serving-front ablation: thousands of closed-loop client sessions from
// two tenants — a compliant "paying" tenant (think time, no rate cap, a
// latency SLO) and an aggressive "batch" tenant (pure closed loop, an
// overcommitted rate contract, a tight deadline it cannot hold) — share
// one region-managed, priority-scheduled stack through the serving
// front's record API. The same load runs under three admission regimes:
//
//	no-control       every request admitted at its declared class
//	rate-limit       per-tenant token buckets pace the batch tenant
//	rate-limit+shed  buckets plus the burn-rate SLO guard: the batch
//	                 tenant burns its deadline-miss budget, is
//	                 deprioritized to the degraded class and then shed
//
// after an uncontended reference (the paying tenant alone). The
// experiment's question is the serving front's reason to exist: with
// admission control on, does the compliant tenant's commit tail stay
// near its uncontended baseline while the breaching tenant is visibly
// deprioritized and shed?

// Stream tags of the serving ablation's tenants.
const (
	TagPaying uint32 = 0x5E0001
	TagBatch  uint32 = 0x5E0002
)

// Serving-ablation tenant names (group names of every mode).
const (
	payingTenant = "paying"
	batchTenant  = "batch"
)

// ServeConfig parameterizes the serving-front ablation. Params.Workers
// is the total session count, split 1:3 between the paying and batch
// tenants (default 800); Params.Settle (default 1s) lets the burn guard
// converge with spans live before the measured window.
type ServeConfig struct {
	Params
	// Rows is the per-store record count. Default 16384.
	Rows int64
	// ValBytes sizes each record. Default 96.
	ValBytes int
	// PayingDeadline / BatchDeadline stamp each tenant's transactions
	// (defaults 6ms / 3ms). PayingBudget / BatchBudget are the allowed
	// deadline-miss fractions (defaults 0.25 / 0.02: the batch tenant's
	// contract is strict, the paying tenant's is generous so the guard
	// never punishes the victim).
	PayingDeadline sim.Time
	BatchDeadline  sim.Time
	PayingBudget   float64
	BatchBudget    float64
	// BatchRate is the batch tenant's contracted admission rate in
	// requests per second, shared by all its sessions. Default 1200.
	BatchRate float64
	// PayingThink is the paying sessions' think time. Default 2ms.
	PayingThink sim.Time
}

func (c ServeConfig) withDefaults() ServeConfig {
	c.Params = c.Params.withDefaults(Params{Workers: 800,
		Warm: sim.Second, Settle: sim.Second, Measure: 6 * sim.Second}.withDefaults(defaultParams))
	c.Rows = orDefault(c.Rows, 16384)
	c.ValBytes = orDefault(c.ValBytes, 96)
	c.PayingDeadline = orDefault(c.PayingDeadline, 6*sim.Millisecond)
	c.BatchDeadline = orDefault(c.BatchDeadline, 3*sim.Millisecond)
	c.PayingThink = orDefault(c.PayingThink, 2*sim.Millisecond)
	c.PayingBudget = orDefault(c.PayingBudget, 0.25)
	c.BatchBudget = orDefault(c.BatchBudget, 0.02)
	c.BatchRate = orDefault(c.BatchRate, 1200)
	return c
}

// ServeTagNames names the ablation's stream tags for blame tables,
// flame stacks and Prometheus labels.
func ServeTagNames() map[uint32]string {
	return map[uint32]string{
		TagPaying:       payingTenant,
		TagBatch:        batchTenant,
		tagWriters:      "writers",
		tagCheckpointer: "ckpt",
	}
}

// kvWorkload binds one terminal to its session: every transaction runs
// through the serving front's record API (and so through admission).
// The mix is a read-heavy KV profile: 45% read-modify-write, 30% point
// get, 20% put, 5% short scan.
type kvWorkload struct {
	s    *serve.Session
	rows int64
	val  []byte
}

func (w *kvWorkload) Name() string                                     { return "kv" }
func (w *kvWorkload) Load(ctx *storage.IOCtx, e *storage.Engine) error { return nil }

func (w *kvWorkload) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	key := rng.Int63n(w.rows)
	switch p := rng.Intn(100); {
	case p < 45:
		return w.s.Tx(ctx, func(tx *serve.Txn) error {
			v, err := tx.GetForUpdate(key)
			if err != nil {
				return err
			}
			copy(v, w.val)
			return tx.Put(key, v)
		})
	case p < 75:
		_, err := w.s.Get(ctx, key)
		return err
	case p < 95:
		return w.s.Put(ctx, key, w.val)
	default:
		hi := key + 7
		if hi >= w.rows {
			hi = w.rows - 1
		}
		return w.s.Scan(ctx, key, hi, func(int64, []byte) bool { return true })
	}
}

// ckptEager ticks every 20 ms and truncates at a quarter of the log:
// the serve load is write-heavy enough to wrap the log region between
// the default policy's 100 ms ticks.
var ckptEager = CkptPolicy{Tick: 20 * sim.Millisecond, LogShare: 4}

var serveSpec = &spec{name: "serve", fields: serveFields, tagNames: ServeTagNames, table: serveTable}

// Serve runs the serving-front ablation: the uncontended reference
// ("uncontended": paying tenant only), then the full two-tenant load
// under each admission regime, each on a freshly built system with the
// same seed.
func Serve(cfg ServeConfig) (*Sweep, error) {
	cfg = cfg.withDefaults()
	return cfg.sweep(serveSpec, "kv", []mode{
		cfg.mode("uncontended", serve.ControlNone, false),
		cfg.mode(serve.ControlNone.String(), serve.ControlNone, true),
		cfg.mode(serve.ControlRateLimit.String(), serve.ControlRateLimit, true),
		cfg.mode(serve.ControlFull.String(), serve.ControlFull, true),
	})
}

// mode is one admission regime; withBatch=false is the uncontended
// reference.
func (c ServeConfig) mode(name string, control serve.Control, withBatch bool) mode {
	return mode{name: name, stack: system.StackNoFTLRegions,
		// The burn guard samples deadline misses through telemetry, so
		// the pipeline is always attached.
		opts: system.BuildOpts{Sched: &sched.Config{Policy: sched.Priority}, BackgroundGC: true,
			Telemetry: &telemetry.Config{}},
		scenario: func(sys *system.System) (Scenario, error) {
			return c.scenario(sys, control, withBatch)
		}}
}

// scenario mounts the serving front, preloads both tenants' stores and
// opens one session per terminal up front, so setup errors surface here
// instead of inside a proc.
func (c ServeConfig) scenario(sys *system.System, control serve.Control, withBatch bool) (Scenario, error) {
	front, err := sys.StartServe(serve.Config{Control: control, Tenants: []serve.TenantSpec{
		// No rate contract: the paying tenant bought headroom.
		{Name: payingTenant, Tag: TagPaying, Deadline: c.PayingDeadline, MissBudget: c.PayingBudget},
		{Name: batchTenant, Tag: TagBatch, Deadline: c.BatchDeadline, MissBudget: c.BatchBudget,
			Rate: c.BatchRate, Burst: 16},
	}})
	if err != nil {
		return Scenario{}, err
	}
	val := make([]byte, c.ValBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for _, store := range []string{payingTenant, batchTenant} {
		if _, err := front.CreateStore(sys.Ctx, store); err != nil {
			return Scenario{}, err
		}
		if err := front.Preload(sys.Ctx, store, c.Rows, val); err != nil {
			return Scenario{}, err
		}
	}
	payingN := c.Workers / 4
	groups := []Group{{Name: payingTenant, N: payingN, Seed: c.Seed, Think: c.PayingThink,
		Tag: TagPaying, Deadline: c.PayingDeadline}}
	if withBatch {
		groups = append(groups, Group{Name: batchTenant, N: c.Workers - payingN, Seed: c.Seed + 1_000_003,
			Tag: TagBatch, Deadline: c.BatchDeadline})
	}
	for i := range groups {
		g := &groups[i]
		g.Retry = func(err error) bool { return errors.Is(err, serve.ErrShed) }
		g.TenantGauge = true
		for range g.N {
			s, err := front.OpenSession(g.Name, g.Name)
			if err != nil {
				return Scenario{}, err
			}
			g.PerTerminal = append(g.PerTerminal, &kvWorkload{s: s, rows: c.Rows, val: val})
		}
	}
	return Scenario{Association: storage.AssocDieWise, Tagged: true, Ckpt: ckptEager, Groups: groups}, nil
}

func serveTable(s *Sweep) string {
	t := stats.NewTable("mode", "tenant", "sessions", "TPS", "p50", "p99",
		"misses", "admitted", "depri", "shed", "state")
	for _, r := range s.Rows {
		for _, g := range r.Groups {
			t.Row(r.Mode, g.Name, g.Terminals, fmt.Sprintf("%.0f", g.TPS),
				g.CommitHist.Percentile(50).String(), g.CommitHist.Percentile(99).String(),
				g.DeadlineMisses, g.Admission.Admitted, g.Admission.Deprioritized,
				g.Admission.Shed, g.Admission.State.String())
		}
	}
	return t.String()
}
