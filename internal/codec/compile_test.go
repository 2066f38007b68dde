package codec_test

import (
	"runtime"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vxcc"
)

// tableOneDecoders are the six decoders of the paper's Table 1, the set
// an archive of text, images and audio embeds.
var tableOneDecoders = []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"}

// compileBudgets are the ceilings of TestCompileAllocBudget: heap
// allocations and bytes for one vxcc.Compile of each decoder from its
// sources, libvx included. Measured, with a tenth of headroom; re-measure
// when the compiler's work changes, and only ever downwards.
//
// Measured once the assembler's text was sized from the sources' lengths
// (allocations, bytes; the largest of GOMAXPROCS 1, 2, 4 and 8, Go 1.24):
// deflate 8323, 1.39 M; bwt 5631, 0.93 M; dct 5886, 1.17 M; haar 5734,
// 0.97 M; lpc 4963, 0.83 M; adpcm 3500, 0.73 M.
//
// Measured once the lexer's operator tables were built once and the
// token slice and the linker's text sized once (allocations, bytes; the
// largest of GOMAXPROCS 1, 2, 4 and 8, Go 1.24): deflate 8336, 2.03 M;
// bwt 5643, 1.28 M; dct 5897, 1.48 M; haar 5746, 1.31 M; lpc 4973,
// 0.96 M; adpcm 3510, 0.89 M. Before that, with two operator maps built
// per operator token: deflate 17018, 5.13 M; bwt 12357, 3.66 M; dct
// 15365, 4.76 M; haar 13507, 4.18 M; lpc 11029, 3.11 M; adpcm 9033,
// 2.61 M.
//
// Measured once the parser took its tokens from the lexer as it went,
// keeping no slice of them, and the text was sized from the analysis's
// cost of what is linked, not from the sources' length, with the media
// decoders written as straight-line code (allocations, bytes; the largest
// of GOMAXPROCS 1, 2, 4 and 8, Go 1.24): deflate 8068, 1.02 M; bwt 5822,
// 0.74 M; dct 6260, 0.80 M; haar 5704, 0.72 M; lpc 4800, 0.59 M; adpcm
// 3730, 0.46 M. Where a tenth above that was below a ceiling the ceiling
// came down to it.
var compileBudgets = map[string]struct {
	allocs float64
	bytes  uint64
}{
	"deflate": {8874, 1_126_000},
	"bwt":     {6194, 816_000},
	"dct":     {6475, 881_000},
	"haar":    {6244, 795_000},
	"lpc":     {5280, 654_000},
	"adpcm":   {3850, 505_000},
}

func tableOneCodecs(tb testing.TB) []*codec.Codec {
	tb.Helper()
	out := make([]*codec.Codec, 0, len(tableOneDecoders))
	for _, name := range tableOneDecoders {
		c, ok := codec.ByName(name)
		if !ok {
			tb.Fatalf("codec %s not registered", name)
		}
		out = append(out, c)
	}
	return out
}

// BenchmarkCompileBuiltins compiles the six Table 1 decoders from their
// sources per op: the compiler's share of writing an archive.
func BenchmarkCompileBuiltins(b *testing.B) {
	cs := tableOneCodecs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if _, err := vxcc.Compile(vxcc.Options{}, c.Sources...); err != nil {
				b.Fatalf("%s: %v", c.Name, err)
			}
		}
	}
}

// TestCompileAllocBudget holds what one compile of each Table 1 decoder
// allocates under per-decoder ceilings: every archive a writer produces
// pays for six of them.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	for _, c := range tableOneCodecs(t) {
		op := func() {
			if _, err := vxcc.Compile(vxcc.Options{}, c.Sources...); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
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
		budget := compileBudgets[c.Name]
		t.Logf("%-8s %6.0f allocs (ceiling %6.0f) %8d bytes (ceiling %8d)", c.Name, allocs, budget.allocs, perOp, budget.bytes)
		if allocs > budget.allocs || perOp > budget.bytes {
			t.Errorf("%s: a compile allocates %.0f objects, %d bytes; the budget is %.0f, %d",
				c.Name, allocs, perOp, budget.allocs, budget.bytes)
		}
	}
}
