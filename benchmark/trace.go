package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 for the operation itself.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // offsets from the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are reduced and written at exit. It
// is used from one goroutine at a time (the traced runs are single-caller;
// the serving workloads record one client-side span per request under mu
// in their own code).
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// add records a span whose duration was accumulated elsewhere (the many
// short host writes inside one RunStream), placed at its parent's start.
func (t *tracer) add(name string, op, parent int, d time.Duration) {
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start + int64(d)})
}

// traceSummary is the reduced form: self time per layer (a span's
// duration minus its children's), and the share of operation wall time no
// layer span covers.
type traceSummary struct {
	Ops               int                `json:"ops"`
	OpWallMS          float64            `json:"op_wall_ms"`
	SelfMS            map[string]float64 `json:"self_ms"`
	Calls             map[string]int     `json:"calls"`
	UnattributedShare float64            `json:"unattributed_share"`
}

// rootSpan is the name of the span that wraps one whole operation.
const rootSpan = "op"

func (t *tracer) summarize() traceSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := traceSummary{SelfMS: map[string]float64{}, Calls: map[string]int{}}
	var wall, uncovered int64
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if s.Name == rootSpan {
			sum.Ops++
			wall += s.End - s.Start
			uncovered += self
			continue
		}
		sum.SelfMS[s.Name] += float64(self) / 1e6
		sum.Calls[s.Name]++
	}
	sum.OpWallMS = float64(wall) / 1e6
	if wall > 0 {
		sum.UnattributedShare = float64(uncovered) / float64(wall)
	}
	return sum
}

// traceFile is what -trace-out writes.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Summary  traceSummary `json:"summary"`
	Spans    []span       `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Summary: t.summarize(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
