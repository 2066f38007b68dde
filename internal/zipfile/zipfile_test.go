package zipfile

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	decoder := bytes.Repeat([]byte{0x7F, 'E', 'L', 'F', 1, 2, 3}, 500)
	decOff, err := w.AddDecoder(decoder)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("compressed payload bytes")
	orig := []byte("the original uncompressed data")
	hdr := FileHeader{
		Name:   "a/b.txt",
		Method: MethodVXA,
		CRC32:  crc32.ChecksumIEEE(orig),
		USize:  uint32(len(orig)),
		Mode:   0640,
		VXA:    &VXAHeader{Codec: "bwt", DecoderOffset: decOff},
	}
	if err := w.AddFile(hdr, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile(FileHeader{Name: "plain.bin", Method: MethodStore,
		CRC32: crc32.ChecksumIEEE(payload), USize: uint32(len(payload))}, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 2 {
		t.Fatalf("files = %d, want 2 (pseudo-file must be hidden)", len(r.Files))
	}
	f := &r.Files[0]
	if f.Name != "a/b.txt" || f.Method != MethodVXA || f.Mode != 0640 {
		t.Fatalf("header round trip: %+v", f)
	}
	if f.VXA == nil || f.VXA.Codec != "bwt" || f.VXA.DecoderOffset != decOff {
		t.Fatalf("VXA extension round trip: %+v", f.VXA)
	}
	got, err := r.Payload(f)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload: %v", err)
	}
	dec, err := r.Decoder(decOff)
	if err != nil || !bytes.Equal(dec, decoder) {
		t.Fatalf("decoder pseudo-file: %v (%d bytes)", err, len(dec))
	}
}

// TestVXAHeaderProperty round-trips arbitrary VXA extension headers.
func TestVXAHeaderProperty(t *testing.T) {
	f := func(codecName string, off uint32, pre bool) bool {
		if len(codecName) > 255 {
			codecName = codecName[:255]
		}
		h := &VXAHeader{Codec: codecName, DecoderOffset: off, PreCompressed: pre}
		got, err := parseVXAExtra(h.encode())
		if err != nil || got == nil {
			return false
		}
		return got.Codec == codecName && got.DecoderOffset == off && got.PreCompressed == pre
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestForeignExtraFieldsIgnored: VXA headers coexist with other extras.
func TestForeignExtraFieldsIgnored(t *testing.T) {
	h := &VXAHeader{Codec: "zlib", DecoderOffset: 42}
	foreign := []byte{0x55, 0x54, 4, 0, 1, 2, 3, 4} // UT timestamp field
	extra := append(foreign, h.encode()...)
	got, err := parseVXAExtra(extra)
	if err != nil || got == nil || got.Codec != "zlib" {
		t.Fatalf("got %+v err %v", got, err)
	}
	// And no VXA field at all parses to nil, nil.
	got2, err := parseVXAExtra(foreign)
	if err != nil || got2 != nil {
		t.Fatalf("foreign-only extra: %+v %v", got2, err)
	}
}

func TestStdlibInterop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	data := []byte("interop data stored uncompressed")
	w.AddFile(FileHeader{Name: "x.txt", Method: MethodStore,
		CRC32: crc32.ChecksumIEEE(data), USize: uint32(len(data)), Mode: 0644}, data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("archive/zip rejects our output: %v", err)
	}
	rc, err := zr.File[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stdlib extraction: %v", err)
	}
	if zr.File[0].Mode().Perm() != 0644 {
		t.Fatalf("mode = %v", zr.File[0].Mode())
	}
}

func TestReaderRejects(t *testing.T) {
	if _, err := NewReader([]byte("way too short")); !errors.Is(err, ErrFormat) {
		t.Errorf("short: %v", err)
	}
	if _, err := NewReader(make([]byte, 100)); !errors.Is(err, ErrFormat) {
		t.Errorf("no EOCD: %v", err)
	}
	// Valid archive, then truncate the central directory.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.AddFile(FileHeader{Name: "f", Method: MethodStore}, []byte("x"))
	w.Close()
	b := buf.Bytes()
	cut := append([]byte{}, b[:40]...)
	cut = append(cut, b[len(b)-22:]...)
	if _, err := NewReader(cut); err == nil {
		t.Error("truncated central directory accepted")
	}
}

// TestDecoderNotInCentralDirectory: decoders never appear in listings
// even when files reference them.
func TestDecoderNotInCentralDirectory(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if _, err := w.AddDecoder(bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	w.AddFile(FileHeader{Name: "only.txt", Method: MethodStore}, []byte("data"))
	w.Close()
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 1 {
		t.Fatalf("visible files = %d, want 1", len(r.Files))
	}
	zr, err := zip.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(zr.File) != 1 {
		t.Fatalf("archive/zip sees %d files, want 1", len(zr.File))
	}
}

// TestDecoderDeflaterReuse: the deflater a Writer keeps across decoders
// is Reset between them, so each pseudo-file holds exactly what a fresh
// deflater makes of its decoder, and reads back whole.
func TestDecoderDeflaterReuse(t *testing.T) {
	decoders := [][]byte{
		bytes.Repeat([]byte{0x7F, 'E', 'L', 'F', 1, 2, 3}, 700),
		[]byte("a short decoder of a single line"),
		make([]byte, 5000),
	}
	for i := range decoders[2] {
		decoders[2][i] = byte(i * i >> 3)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	offs := make([]uint32, len(decoders))
	for i, d := range decoders {
		off, err := w.AddDecoder(d)
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
	}
	if err := w.AddFile(FileHeader{Name: "f", Method: MethodStore}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decoders {
		var fresh bytes.Buffer
		fw, err := flate.NewWriter(&fresh, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(d); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		start, csize, _, _, err := r.sectionAt(offs[i])
		if err != nil {
			t.Fatal(err)
		}
		if stored := buf.Bytes()[start : start+csize]; !bytes.Equal(stored, fresh.Bytes()) {
			t.Errorf("decoder %d: %d compressed bytes stored, a fresh deflater makes %d, or they differ",
				i, len(stored), fresh.Len())
		}
		got, err := r.Decoder(offs[i])
		if err != nil {
			t.Fatalf("decoder %d: %v", i, err)
		}
		if !bytes.Equal(got, d) {
			t.Errorf("decoder %d: read back %d bytes that differ from the %d stored", i, len(got), len(d))
		}
	}
}

// patternedDecoders is an archive of n decoder pseudo-files of 24 KiB
// each, patterned like code, with the decoders and their offsets.
func patternedDecoders(t *testing.T, n int) ([]byte, [][]byte, []uint32) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var decoders [][]byte
	var offs []uint32
	for k := 0; k < n; k++ {
		d := make([]byte, 24<<10)
		for i := range d {
			d[i] = byte((i*i)>>3 + k)
		}
		off, err := w.AddDecoder(d)
		if err != nil {
			t.Fatal(err)
		}
		decoders, offs = append(decoders, d), append(offs, off)
	}
	if err := w.AddFile(FileHeader{Name: "f", Method: MethodStore}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), decoders, offs
}

// decoderReadBudget is TestDecoderReadAllocBudget's ceiling: what one
// Decoder call allocates once a decoder has been read before, beyond
// the decoder's own bytes, measured with a tenth of headroom.
// Re-measure when the read path changes, and only ever downwards.
//
// Measured once Decoder kept its inflaters in a sync.Pool: 5
// allocations, 73 bytes besides the decoder (GOMAXPROCS 1, 2, 4 and 8
// alike). With a flate reader built per call: 12 allocations, 44 858
// bytes besides it.
var decoderReadBudget = struct {
	allocs float64
	bytes  uint64
}{5.5, 81}

// TestDecoderReadAllocBudget: Decoder resets a kept inflater onto each
// decoder it reads instead of building a flate reader (tens of KB of
// tables and window) per call.
func TestDecoderReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	arch, decoders, offs := patternedDecoders(t, 2)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	op := func() {
		got, err := r.Decoder(offs[i%2])
		if err != nil || !bytes.Equal(got, decoders[i%2]) {
			t.Fatalf("decoder %d: %v", i%2, err)
		}
		i++
	}
	op()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, op)
	// A collection empties sync.Pool, whose next Put allocates its
	// per-P array again (about 1.5 KB here): each read's own 24 KiB
	// decoder brings one on every other run of this test. Counted
	// without collections, the bytes are the read's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		op()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc-before.TotalAlloc)/runs - uint64(len(decoders[0]))
	budget := decoderReadBudget
	t.Logf("%.0f allocs (ceiling %.1f), %d bytes besides the decoder (ceiling %d)", allocs, budget.allocs, perOp, budget.bytes)
	if allocs > budget.allocs || perOp > budget.bytes {
		t.Errorf("a decoder read allocates %.0f objects, %d bytes besides the decoder; the budget is %.1f, %d",
			allocs, perOp, budget.allocs, budget.bytes)
	}
}

// TestDecoderConcurrentReads: goroutines reading decoders off one Reader
// at once, through the kept inflaters, each get their own decoder whole.
func TestDecoderConcurrentReads(t *testing.T) {
	arch, decoders, offs := patternedDecoders(t, 4)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*25)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				i := (g + k) % len(offs)
				got, err := r.Decoder(offs[i])
				if err == nil && !bytes.Equal(got, decoders[i]) {
					err = fmt.Errorf("decoder %d read back wrong", i)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
