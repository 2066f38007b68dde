package core

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/vm"
	"vxa/internal/wav"
)

// firstStreamBudgets are the ceilings of TestFirstStreamAllocBudget: heap
// allocations and bytes for one cold NewReader → first ExtractTo → Close
// of a 4 KiB entry, per decoder. Measured, with a tenth of headroom for
// map growth and the runtime's own churn; re-measure when the first
// stream's work changes, and only ever downwards.
//
// Measured in PR 19 (allocations, bytes): deflate 2649, 557 K; bwt 2490,
// 504 K; dct 2658, 579 K; haar 2662, 565 K; lpc 1314, 312 K; adpcm 1458,
// 340 K. At its parent, with a dense copy of the guest image (1.2-1.3 MB)
// in every snapshot and fragments grown an append at a time: deflate
// 3713, 2.14 M; bwt 3387, 1.97 M; dct 3749, 2.15 M; haar 3740, 2.12 M; lpc
// 1844, 1.78 M; adpcm 2016, 1.74 M.
var firstStreamBudgets = map[string]struct {
	allocs float64
	bytes  uint64
}{
	"deflate": {2800, 620_000},
	"bwt":     {2650, 570_000},
	"dct":     {2800, 650_000},
	"haar":    {2800, 640_000},
	"lpc":     {1400, 350_000},
	"adpcm":   {1550, 400_000},
}

// firstStreamArchive is a one-entry archive whose entry decodes to about
// 4 KiB through the named decoder.
func firstStreamArchive(t *testing.T, name string) []byte {
	t.Helper()
	c, ok := codec.ByName(name)
	if !ok {
		t.Fatalf("codec %s not registered", name)
	}
	var raw []byte
	switch c.Output {
	case "BMP image":
		raw = bmp.Encode(corpus.Image(36, 36, 2))
	case "WAV audio":
		raw = wav.Encode(corpus.Audio(1024, 2, 3))
	default:
		raw = corpus.Text(4<<10, 1)
	}
	// The writer picks deflate and lpc for raw text and audio by itself;
	// the other four are recognized from their encoded form.
	data := raw
	if name != "deflate" && name != "lpc" {
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			t.Fatal(err)
		}
		data = enc.Bytes()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.AddFile("entry", data, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Entries()[0].CodecName(); got != name {
		t.Fatalf("the %s entry was archived with %s", name, got)
	}
	return buf.Bytes()
}

// TestFirstStreamAllocBudget holds what a first stream allocates — the
// regime of vxunzip and of a restarted shard, where nothing is amortized
// — under per-decoder ceilings. Half of it used to be one dense copy of
// the guest image and most of the rest slices grown an element at a time
// by the translator; both came back as garbage-collector work inside the
// operation.
func TestFirstStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	for _, name := range []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"} {
		archive := firstStreamArchive(t, name)
		op := func() {
			r, err := NewReader(archive)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExtractTo(context.Background(), &r.Entries()[0], io.Discard,
				WithMode(AlwaysVXA), WithReuseVM(true), WithDecodeAll(true), WithVM(vm.Config{OptLevel: vm.OptTier2})); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 10
		allocs := testing.AllocsPerRun(runs, op)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		budget := firstStreamBudgets[name]
		t.Logf("%-8s %6.0f allocs (ceiling %6.0f) %8d bytes (ceiling %8d)", name, allocs, budget.allocs, perOp, budget.bytes)
		if allocs > budget.allocs || perOp > budget.bytes {
			t.Errorf("%s: a first stream allocates %.0f objects, %d bytes; the budget is %.0f, %d",
				name, allocs, perOp, budget.allocs, budget.bytes)
		}
	}
}
