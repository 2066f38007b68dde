package vxa

import (
	"bytes"
	"context"
	"testing"

	"vxa/internal/bench"
)

// TestQuickstart exercises the public API end to end.
func TestQuickstart(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	content := bytes.Repeat([]byte("public api round trip "), 400)
	if err := w.AddFile("hello.txt", content, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExtractMode{NativeFirst, AlwaysVXA} {
		e := r.Entries()[0]
		got, err := r.ExtractBytes(context.Background(), &e, WithMode(mode))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("mode %v: mismatch", mode)
		}
	}
	if errs := r.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("verify: %v", errs)
	}
}

// TestTable1Inventory validates the decoder inventory against the
// paper's Table 1 structure: two general-purpose codecs, two image
// decoders emitting BMP, two audio decoders emitting WAV, plus redecs.
func TestTable1Inventory(t *testing.T) {
	rows := bench.Table1()
	count := map[string]int{}
	for _, r := range rows {
		count[r.Output]++
	}
	if count["raw data"] < 3 { // deflate, zlib, bwt, gzip
		t.Errorf("general-purpose decoders = %d, want >= 3", count["raw data"])
	}
	if count["BMP image"] != 2 {
		t.Errorf("BMP decoders = %d, want 2", count["BMP image"])
	}
	if count["WAV audio"] != 2 {
		t.Errorf("WAV decoders = %d, want 2", count["WAV audio"])
	}
	var haveRedec bool
	for _, r := range rows {
		if r.Kind == "redec" {
			haveRedec = true
		}
	}
	if !haveRedec {
		t.Error("no recognizer-decoder registered")
	}
}

// TestTable2Sizes validates the decoder code-size accounting: every
// decoder is tens of KB, splits into decoder-proper vs runtime text,
// and compresses substantially with deflate — the shape of Table 2.
func TestTable2Sizes(t *testing.T) {
	rows, err := bench.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Total < 1024 || r.Total > 512<<10 {
			t.Errorf("%s: total %d bytes outside plausible range", r.Codec, r.Total)
		}
		if r.DecoderBytes == 0 || r.RuntimeBytes == 0 {
			t.Errorf("%s: missing decoder/runtime split", r.Codec)
		}
		if r.Compressed >= r.Total {
			t.Errorf("%s: decoder did not compress (%d -> %d)", r.Codec, r.Total, r.Compressed)
		}
	}
	// The paper's jp2/vorbis decoders are its largest; ours with the most
	// logic (deflate, bwt) should exceed the simplest (adpcm).
	sizes := map[string]int{}
	for _, r := range rows {
		sizes[r.Codec] = r.DecoderBytes
	}
	if sizes["deflate"] <= sizes["adpcm"] {
		t.Errorf("deflate decoder (%d) should out-size adpcm (%d)", sizes["deflate"], sizes["adpcm"])
	}
}

// TestStorageOverhead validates the §5.3 shape: overhead falls roughly
// 10x from a 1-track to a 10-track archive, and the lossless archive's
// overhead is far smaller than the lossy one's (bigger payload).
func TestStorageOverhead(t *testing.T) {
	rows, err := bench.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bench.OverheadRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	one := byName["1 track, lossy (adpcm)"]
	ten := byName["10 tracks, lossy (adpcm)"]
	oneLL := byName["1 track, lossless (lpc)"]
	if one.OverheadPct <= ten.OverheadPct*5 {
		t.Errorf("amortization shape wrong: 1 track %.2f%%, 10 tracks %.2f%%",
			one.OverheadPct, ten.OverheadPct)
	}
	if oneLL.OverheadPct >= one.OverheadPct {
		t.Errorf("lossless archive overhead (%.2f%%) should undercut lossy (%.2f%%)",
			oneLL.OverheadPct, one.OverheadPct)
	}
	if one.OverheadPct > 60 {
		t.Errorf("1-track overhead %.2f%% implausibly large", one.OverheadPct)
	}
}

// TestFig7Shape runs the Figure 7 measurement once and validates the
// qualitative claim this reproduction preserves: every decoder works
// virtualized.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 measurement is slow")
	}
	rows, err := bench.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.VX32 <= 0 || r.Native <= 0 {
			t.Errorf("%s: bad timings %+v", r.Codec, r)
		}
		if r.Slowdown < 1 {
			t.Logf("%s: virtualized faster than native (%.2fx) — unexpected but not wrong", r.Codec, r.Slowdown)
		}
	}
}

// TestParallelPublicAPI exercises the concurrent engine end to end
// through the public surface: ExtractAll over the worker pipeline with
// pooled VMs, streamed verification, and the pool counters.
func TestParallelPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	var want [][]byte
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte('a' + i), ' '}, 3000+200*i)
		name := string(rune('a'+i)) + ".txt"
		if err := w.AddFile(name, data, 0644); err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithMode(AlwaysVXA), WithParallel(4)}
	results := r.ExtractAll(context.Background(), opts...)
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Entry.Name, res.Err)
		}
		if !bytes.Equal(res.Data, want[i]) {
			t.Fatalf("%s: content mismatch", res.Entry.Name)
		}
	}
	if errs := r.Verify(context.Background(), opts...); len(errs) != 0 {
		t.Fatalf("parallel verify: %v", errs)
	}
	st := r.PoolStats()
	if st.Snapshots != 1 {
		t.Fatalf("pool stats %+v: want exactly one decoder snapshot", st)
	}
	if st.Resumes == 0 {
		t.Fatalf("pool stats %+v: expected parked-VM resumes across 16 streams", st)
	}
}
