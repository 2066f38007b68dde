package core

import (
	"bytes"
	"context"
	"io"
	"math"
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
// The bytes are the least of five passes of ten operations: one pass's
// reading spread by up to 60 K with the runtime's pool refills, and the
// ceilings had to sit above that spread. Read that way once every
// superblock compiled on its first entry (allocations, least bytes; the
// range over GOMAXPROCS 1, 2, 4 and 8, five runs each): deflate 399,
// 266-278 K; bwt 383, 248-261 K; dct 290, 201-214 K; haar 308, 207-217 K;
// lpc 230, 162-167 K; adpcm 131, 120-128 K. The byte ceilings are a
// tenth above the largest of those readings.
//
// Measured once fragments, their blocks and their wrappers were carved
// from per-VM chunks and a decoded instruction was written in place
// (allocations, bytes; the largest of GOMAXPROCS 1, 2, 4 and 8, five runs
// each): deflate 397, 304 K; bwt 380, 279 K; dct 289, 252 K; haar 307,
// 243 K; lpc 229, 180 K; adpcm 131, 145 K. At its parent, four runs
// each: deflate 1142, 292 K; bwt 1153, 289 K; dct 815, 231 K; haar 853,
// 233 K; lpc 746, 184 K; adpcm 359, 137 K. The least bytes of a run sit
// 1-8 K above the parent's (bwt's 1 K below), what the chunks' unused
// ends cost; the runtime's pool refills put a run's bytes up to 60 K
// above its least. So the byte ceilings of deflate, bwt and lpc stay
// where they were, and those of dct, haar and adpcm come down to a fifth
// above the largest reading.
//
// Measured once a micro-op lost its escape pointer, 40 to 32 bytes
// (allocations, bytes; the largest of GOMAXPROCS 1, 2, 4 and 8): deflate
// 1395, 294 K; bwt 1225, 285 K; dct 1375, 340 K; haar 1307, 325 K; lpc
// 807, 179 K; adpcm 767, 215 K. At its parent: the same allocations,
// deflate 321 K, bwt 307 K, dct 372 K, haar 351 K, lpc 198 K, adpcm 232 K
// (one run, GOMAXPROCS 2).
//
// Measured once blocks kept their lowered micro-ops in place of a copy of
// each decoded instruction (allocations, bytes; the largest of GOMAXPROCS
// 1, 2, 4 and 8): deflate 1593, 331 K; bwt 1421, 318 K; dct 1618, 379 K;
// haar 1533, 357 K; lpc 874, 199 K; adpcm 882, 239 K. Before that: deflate
// 1799, 484 K; bwt 1594, 429 K; dct 1806, 501 K; haar 1717, 485 K; lpc
// 1010, 291 K; adpcm 993, 310 K. Measured in PR 19: deflate 2649, 557 K;
// bwt 2490, 504 K; dct 2658, 579 K; haar 2662, 565 K; lpc 1314, 312 K;
// adpcm 1458, 340 K. At its parent, with a dense copy of the guest image
// (1.2-1.3 MB) in every snapshot and fragments grown an append at a time:
// deflate 3713, 2.14 M; bwt 3387, 1.97 M; dct 3749, 2.15 M; haar 3740,
// 2.12 M; lpc 1844, 1.78 M; adpcm 2016, 1.74 M.
var firstStreamBudgets = map[string]struct {
	allocs float64
	bytes  uint64
}{
	"deflate": {437, 306_000},
	"bwt":     {418, 288_000},
	"dct":     {318, 236_000},
	"haar":    {338, 239_000},
	"lpc":     {252, 184_000},
	"adpcm":   {145, 142_000},
}

// builtinDecoders names the six built-in decoders.
var builtinDecoders = []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"}

// decoderEntryData is an input the writer archives with the named
// decoder, decoding to about 4 KiB.
func decoderEntryData(t *testing.T, name string) []byte {
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
	return data
}

// firstStreamArchive is a one-entry archive whose entry decodes to about
// 4 KiB through the named decoder.
func firstStreamArchive(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.AddFile("entry", decoderEntryData(t, name), 0644); err != nil {
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
	for _, name := range builtinDecoders {
		archive := firstStreamArchive(t, name)
		op := func() {
			r, err := NewReader(archive)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExtractTo(context.Background(), &r.Entries()[0], io.Discard,
				WithMode(AlwaysVXA), WithDecodeAll(true), WithVM(vm.Config{OptLevel: vm.OptTier2})); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
		const runs, passes = 10, 5
		allocs := testing.AllocsPerRun(runs, op)
		// A pass's bytes run up to 60 K above the stream's own with the
		// runtime's pool refills: the least of five passes is the reading.
		perOp := uint64(math.MaxUint64)
		for range passes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		budget := firstStreamBudgets[name]
		t.Logf("%-8s %6.0f allocs (ceiling %6.0f) %8d bytes (ceiling %8d)", name, allocs, budget.allocs, perOp, budget.bytes)
		if allocs > budget.allocs || perOp > budget.bytes {
			t.Errorf("%s: a first stream allocates %.0f objects, %d bytes; the budget is %.0f, %d",
				name, allocs, perOp, budget.allocs, budget.bytes)
		}
	}
}
