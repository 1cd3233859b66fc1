package main

import (
	"fmt"

	"noftl/internal/sched"
)

// layerMetrics computes the per-layer metrics of a traced run: host
// shares from its CPU profile, call counts and simulated times from the
// probes, and every layer's own counters over the window. plain is the
// untraced run of the same seed, the base of the tracing overhead.
func layerMetrics(rep, plain *repResult) (*report, error) {
	shares, samples, err := hostShares(rep.profile)
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		return nil, fmt.Errorf("CPU profile of the traced window holds no samples")
	}
	b, a, st, pr := rep.before, rep.after, rep.state, rep.pr
	ops := float64(rep.ops)
	n := rep.ops
	per := func(x int64) float64 { return float64(x) / ops }
	rp := newReport()
	share := func(layer string) { rp.add(layer+".host_share", "ratio", shares[layer], samples) }

	share("sim")
	rp.add("sim.procs", "count", ratio(float64(st.procSum), float64(st.n)), st.n)
	rp.add("sim.pending_events", "count", ratio(float64(st.pendSum), float64(st.n)), st.n)

	share("storage")
	self := 1 - ratio(float64(pr.opChild), float64(pr.opLat))
	rp.add("storage.self_sim_share", "ratio", self, pr.ops)
	rp.add("storage.wal_appends_per_op", "count", per(a.walApp-b.walApp), n)
	rp.add("storage.wal_append_sim_us", "us", pr.meanSimUs(callAppend), pr.calls[callAppend])
	rp.add("storage.wal_bytes_per_op", "B", per(a.walB-b.walB), n)
	rp.add("storage.sync_writebacks_per_op", "count", per(a.buf.SyncWrites-b.buf.SyncWrites), n)
	rp.add("storage.lock_retries_per_op", "count", per(rep.fails), n)
	rp.add("storage.read_miss_sim_us", "us", pr.meanSimUs(callRead), pr.calls[callRead])
	buf := a.buf.Sub(b.buf)
	rp.add("storage.buffer_hit_ratio", "ratio", buf.HitRate(), buf.Hits+buf.Misses)
	rp.add("storage.buffer_evictions_per_op", "count", per(buf.Evictions), n)
	rp.add("storage.prefetch_useful_ratio", "ratio",
		ratio(float64(buf.PrefetchHits), float64(buf.Prefetches)), buf.Prefetches)

	share("noftl")
	rp.add("noftl.io_sim_share", "ratio", 1-self, pr.ops)
	gcPages := a.ftl.GCPages() - b.ftl.GCPages()
	rp.add("noftl.gc_copies_per_op", "count", per(gcPages), n)
	rp.add("noftl.gc_copies_per_erase", "count",
		ratio(float64(gcPages), float64(a.ftl.Erases-b.ftl.Erases)), a.ftl.Erases-b.ftl.Erases)
	rp.add("noftl.free_blocks_min", "count", float64(st.freeMin), st.n)

	share("sched")
	kop := func(x int64) float64 { return 1000 * per(x) }
	rp.add("sched.cmds_per_op", "count", per(a.sch.TotalScheduled()-b.sch.TotalScheduled()), n)
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		cmds := a.sch.Scheduled[c] - b.sch.Scheduled[c]
		wait := a.sch.QueueWait[c] - b.sch.QueueWait[c]
		rp.add("sched.wait_"+c.String()+"_sim_us", "us", ratio(float64(wait), float64(cmds))/1e3, cmds)
	}
	rp.add("sched.erase_suspends_per_kop", "count", kop(a.sch.EraseSuspends-b.sch.EraseSuspends), n)
	rp.add("sched.deadline_promotions_per_kop", "count",
		kop(a.sch.DeadlinePromotions-b.sch.DeadlinePromotions), n)

	share("flash")
	var busy int64
	for d := range a.dev.DieBusy {
		busy += int64(a.dev.DieBusy[d] - b.dev.DieBusy[d])
	}
	dies := len(a.dev.DieBusy)
	rp.add("flash.die_util", "ratio", ratio(float64(busy), float64(dies)*float64(rep.window)), int64(dies))
	rp.add("flash.reads_per_op", "count", per(a.dev.Reads-b.dev.Reads), n)
	rp.add("flash.programs_per_op", "count", per(a.dev.Programs-b.dev.Programs), n)
	rp.add("flash.program_bytes_per_op", "B", per(a.dev.ProgramBytes-b.dev.ProgramBytes), n)

	share("serve")
	admitted := a.front.Admitted - b.front.Admitted
	shed := a.front.Shed - b.front.Shed
	depri := a.front.Deprioritized - b.front.Deprioritized
	rp.add("serve.admitted_ratio", "ratio",
		ratio(float64(admitted), float64(admitted+shed)), admitted+shed)
	rp.add("serve.deprioritized_ratio", "ratio", ratio(float64(depri), float64(admitted)), admitted)
	rp.add("serve.shed_per_kop", "count", kop(shed), n)

	share("workload")
	share("runtime")
	rp.add("runtime.gc_cpu_share", "ratio", ratio(a.rt[2]-b.rt[2], a.rt[3]-b.rt[3]), samples)
	rp.add("runtime.alloc_bytes_per_op", "B", (a.rt[1]-b.rt[1])/ops, n)

	overhead := ratio(rep.wall.Seconds()/ops, plain.wall.Seconds()/float64(plain.ops))
	rp.add("bench.trace_overhead", "ratio", overhead, 2)
	rp.add("bench.fail_ratio", "ratio", ratio(float64(rep.fails), float64(rep.attempts)), rep.attempts)
	return rp, nil
}
