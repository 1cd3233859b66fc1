package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

// callKind names one kind of call into the layers the probe wraps.
type callKind int

const (
	callRead     callKind = iota // Volume.ReadPage: a buffer-pool miss
	callWrite                    // Volume.WritePage
	callPrefetch                 // PrefetchVolume.PrefetchPage
	callDelta                    // DeltaVolume.WriteDeltaPage
	callAppend                   // AppendLog.Append: one WAL page to the log region
	callLogRead                  // AppendLog.ReadAt
	callTruncate                 // AppendLog.Truncate
	numCalls
)

var callNames = [numCalls]string{"vol.read", "vol.write", "vol.prefetch", "vol.delta",
	"log.append", "log.read", "log.truncate"}

// span is one recorded interval: a client operation (Kind "op") or a
// call into the volume or the log. Spans of one operation share Op;
// calls made by background processes carry Op 0.
type span struct {
	Op         uint64
	Kind       string
	Start, End sim.Time
}

// opState is the operation a client process is currently running.
type opState struct {
	id    uint64
	child sim.Time // time spent inside wrapped volume/log calls
}

// probe measures the layers from outside: it wraps the engine's data
// volume and log, counting and timing every call in simulated time and
// attributing each to the client operation whose process made it. It
// records only while counting is set (the measured window).
type probe struct {
	counting bool
	cur      map[*sim.Proc]*opState
	nextOp   uint64

	calls [numCalls]int64
	simNs [numCalls]sim.Time

	ops     int64
	opLat   sim.Time // summed latency of finished operations
	opChild sim.Time // summed time those operations spent in volume/log calls

	spans []span
}

func newProbe() *probe { return &probe{cur: map[*sim.Proc]*opState{}} }

// opBegin marks the start of a client operation on process p.
func (pr *probe) opBegin(p *sim.Proc) {
	if pr == nil {
		return
	}
	pr.nextOp++
	pr.cur[p] = &opState{id: pr.nextOp}
}

// opEnd closes process p's operation that started at t0; counted
// operations add their latency and child time to the totals.
func (pr *probe) opEnd(p *sim.Proc, t0 sim.Time, counted bool) {
	if pr == nil {
		return
	}
	st := pr.cur[p]
	delete(pr.cur, p)
	if st == nil || !counted || !pr.counting {
		return
	}
	now := p.Now()
	pr.ops++
	pr.opLat += now - t0
	pr.opChild += st.child
	pr.spans = append(pr.spans, span{Op: st.id, Kind: "op", Start: t0, End: now})
}

// call times fn, one call of the given kind, on the caller's clock.
func (pr *probe) call(ctx *storage.IOCtx, kind callKind, fn func() error) error {
	if !pr.counting || ctx == nil || ctx.W == nil {
		return fn()
	}
	w := ctx.W
	start := w.Now()
	err := fn()
	end := w.Now()
	pr.calls[kind]++
	pr.simNs[kind] += end - start
	var op uint64
	if pw, ok := w.(sim.ProcWaiter); ok {
		if st := pr.cur[pw.P]; st != nil {
			st.child += end - start
			op = st.id
		}
	}
	pr.spans = append(pr.spans, span{Op: op, Kind: callNames[kind], Start: start, End: end})
	return err
}

// meanSimUs is the mean simulated duration of one call kind in µs.
func (pr *probe) meanSimUs(kind callKind) float64 {
	if pr.calls[kind] == 0 {
		return 0
	}
	return float64(pr.simNs[kind]) / float64(pr.calls[kind]) / 1e3
}

// writeSpans writes the recorded spans as tab-separated lines.
func (pr *probe) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tkind\tstart_ns\tend_ns")
	for _, s := range pr.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.Op, s.Kind, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fullVolume is the data volume's full capability set: the engine turns
// delta writes and read-ahead off for a volume lacking either, so a
// wrapper must forward both.
type fullVolume interface {
	storage.DeltaVolume
	PrefetchPage(ctx *storage.IOCtx, id storage.PageID, buf []byte) error
}

// probedVolume forwards every Volume call, timing the I/O ones.
type probedVolume struct {
	fullVolume
	pr *probe
}

func (pr *probe) wrapVolume(v fullVolume) storage.Volume { return &probedVolume{v, pr} }

func (v *probedVolume) ReadPage(ctx *storage.IOCtx, id storage.PageID, buf []byte) error {
	return v.pr.call(ctx, callRead, func() error { return v.fullVolume.ReadPage(ctx, id, buf) })
}

func (v *probedVolume) WritePage(ctx *storage.IOCtx, id storage.PageID, data []byte, hint storage.WriteHint) error {
	return v.pr.call(ctx, callWrite, func() error { return v.fullVolume.WritePage(ctx, id, data, hint) })
}

func (v *probedVolume) PrefetchPage(ctx *storage.IOCtx, id storage.PageID, buf []byte) error {
	return v.pr.call(ctx, callPrefetch, func() error { return v.fullVolume.PrefetchPage(ctx, id, buf) })
}

func (v *probedVolume) WriteDeltaPage(ctx *storage.IOCtx, id storage.PageID, payload []byte) error {
	return v.pr.call(ctx, callDelta, func() error { return v.fullVolume.WriteDeltaPage(ctx, id, payload) })
}

// probedLog forwards every AppendLog call, timing the I/O ones.
type probedLog struct {
	storage.AppendLog
	pr *probe
}

func (pr *probe) wrapLog(l storage.AppendLog) storage.AppendLog { return &probedLog{l, pr} }

func (l *probedLog) Append(ctx *storage.IOCtx, data []byte) (int64, error) {
	var pos int64
	err := l.pr.call(ctx, callAppend, func() error {
		var err error
		pos, err = l.AppendLog.Append(ctx, data)
		return err
	})
	return pos, err
}

func (l *probedLog) ReadAt(ctx *storage.IOCtx, pos int64, buf []byte) error {
	return l.pr.call(ctx, callLogRead, func() error { return l.AppendLog.ReadAt(ctx, pos, buf) })
}

func (l *probedLog) Truncate(ctx *storage.IOCtx, keepFrom int64) error {
	return l.pr.call(ctx, callTruncate, func() error { return l.AppendLog.Truncate(ctx, keepFrom) })
}
