package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Stage labels one segment of a request's end-to-end timeline. The
// stages partition where a decode request spends its life: waiting for
// admission, waiting for a decoder VM, building a pristine snapshot on
// the cold path, guest-side translation and execution, and host-side
// output writing (stream write + CRC). Stages a request never touches
// stay zero and are omitted from the rendered timeline.
type Stage int

// Span stages, in timeline order.
const (
	// StageQueue: backpressure wait — the admission queue's slot wait.
	StageQueue Stage = iota
	// StageLease: VM-pool lease work — parked-VM pickup, pristine
	// reset, or fresh materialization from the snapshot.
	StageLease
	// StageSnapshot: pristine decoder snapshot build (ELF fetch + parse
	// + image capture) — the cold path a content-addressed cache hit
	// skips entirely.
	StageSnapshot
	// StageArtifact: persistent artifact-store probe on the cold path —
	// mmap, verification and snapshot reconstruction on a disk-warm hit,
	// or the (cheap) failed probe preceding an ELF build.
	StageArtifact
	// StageTranslate: guest fragment decode + lowering + optimization
	// (the translation half of vm.Stats' translate/execute split).
	StageTranslate
	// StageExecute: guest micro-op execution (the run minus its
	// translation time).
	StageExecute
	// StageWrite: host-side output delivery — stream writes to the
	// client or file plus incremental CRC summing.
	StageWrite
	numStages
)

// stageNames index by Stage; these are also the metric label values.
var stageNames = [numStages]string{
	"queue", "lease", "snapshot", "artifact", "translate", "execute", "write",
}

// String names the stage (also its metric label value).
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage%d", int(s))
	}
	return stageNames[s]
}

// Stages lists every stage in timeline order (for metric registration
// and exposition).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span accumulates one request's per-stage timings. Every layer a
// request passes through (server admission, vmpool lease, core decode,
// host write path) adds the time it spent into the stage it owns, so
// the finished span is a full attribution of the request's latency.
// Stage adds are atomic: a span may be written from the decode
// goroutine and read by the serving goroutine that logs it.
//
// The zero value is usable; a nil *Span is a no-op on every method, so
// instrumented code paths call obs.SpanFrom(ctx).Add(...) without
// checking whether the request is traced.
type Span struct {
	start time.Time
	ns    [numStages]atomic.Int64
}

// NewSpan starts a span at now.
func NewSpan() *Span { return &Span{start: time.Now()} }

// Add folds d into the stage's accumulated time. Nil-safe; negative
// durations are dropped.
func (sp *Span) Add(st Stage, d time.Duration) {
	if sp == nil || d <= 0 || st < 0 || st >= numStages {
		return
	}
	sp.ns[st].Add(int64(d))
}

// Get returns the stage's accumulated time (0 on a nil span).
func (sp *Span) Get(st Stage) time.Duration {
	if sp == nil || st < 0 || st >= numStages {
		return 0
	}
	return time.Duration(sp.ns[st].Load())
}

// Start returns when the span began (zero time on a nil span).
func (sp *Span) Start() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return sp.start
}

// Elapsed returns the wall time since the span began.
func (sp *Span) Elapsed() time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(sp.start)
}

// Timeline renders the non-zero stages in order, e.g.
// "queue=1.2ms lease=310µs translate=80µs execute=4.1ms write=220µs".
// An untraced (nil) or empty span renders as "-".
func (sp *Span) Timeline() string {
	if sp == nil {
		return "-"
	}
	var b strings.Builder
	for st := Stage(0); st < numStages; st++ {
		d := sp.Get(st)
		if d == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", st, d.Round(time.Microsecond))
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// spanKey is the context key spans travel under.
type spanKey struct{}

// WithSpan returns a context carrying a fresh span, plus the span.
func WithSpan(ctx context.Context) (context.Context, *Span) {
	sp := NewSpan()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFrom returns the context's span, or nil when the request is not
// traced. The nil return composes with Span's nil-safe methods: layers
// record unconditionally and untraced requests pay one context lookup.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// CountWriter passes writes through to W, counting the bytes delivered
// and keeping the first write error: a guest decoder sees a failed
// write only as a virtual EIO, so the caller needs the real cause from
// here. With Span set, time inside W.Write is the span's write stage.
type CountWriter struct {
	W    io.Writer
	Span *Span
	N    int64
	Err  error
}

func (c *CountWriter) Write(p []byte) (int, error) {
	var start time.Time
	if c.Span != nil {
		start = time.Now()
	}
	n, err := c.W.Write(p)
	if c.Span != nil {
		c.Span.Add(StageWrite, time.Since(start))
	}
	c.N += int64(n)
	if err != nil && c.Err == nil {
		c.Err = err
	}
	return n, err
}
