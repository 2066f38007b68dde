package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/elf32"
	"vxa/internal/vm"
)

// buildManyArchive writes an archive with many deflate-coded text
// entries plus the standard mixed-media set, under the given modes.
func buildManyArchive(t testing.TB, files int, mode func(i int) uint32) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	var contents [][]byte
	for i := 0; i < files; i++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("entry %03d of the parallel corpus | ", i)), 200+i)
		if err := w.AddFile(fmt.Sprintf("f/%03d.txt", i), data, mode(i)); err != nil {
			t.Fatal(err)
		}
		contents = append(contents, data)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), contents
}

// TestReaderConcurrentExtract hammers one shared Reader from many
// goroutines (run with -race): every combination of worker and entry
// must extract correctly through the Reader's one cache.
func TestReaderConcurrentExtract(t *testing.T) {
	arch, contents := buildManyArchive(t, 12, func(i int) uint32 { return 0644 })
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := []Option{WithMode(AlwaysVXA)}
			for i := range r.Entries() {
				e := &r.Entries()[i]
				got, err := r.ExtractBytes(context.Background(), e, opts...)
				if err != nil {
					errc <- fmt.Errorf("worker %d %s: %w", w, e.Name, err)
					return
				}
				if !bytes.Equal(got, contents[i]) {
					errc <- fmt.Errorf("worker %d %s: content mismatch", w, e.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestExtractAllParallelMatchesSerial: the parallel pipeline returns the
// same bytes in the same order as serial extraction.
func TestExtractAllParallelMatchesSerial(t *testing.T) {
	arch, contents := buildManyArchive(t, 16, func(i int) uint32 { return 0644 })
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4, 0} {
		results := r.ExtractAll(context.Background(), WithMode(AlwaysVXA), WithParallel(parallel))
		if len(results) != len(contents) {
			t.Fatalf("parallel=%d: %d results, want %d", parallel, len(results), len(contents))
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("parallel=%d: %s: %v", parallel, res.Entry.Name, res.Err)
			}
			if res.Entry != &r.Entries()[i] {
				t.Fatalf("parallel=%d: result %d out of archive order", parallel, i)
			}
			if !bytes.Equal(res.Data, contents[i]) {
				t.Fatalf("parallel=%d: %s: content mismatch", parallel, res.Entry.Name)
			}
		}
	}
}

// TestExtractAllModeIsolation: entries alternate security modes, forcing
// the pool through its reset path in the middle of a parallel run; every
// entry must still decode exactly (a state leak would garble output or
// trip the CRC check).
func TestExtractAllModeIsolation(t *testing.T) {
	arch, contents := buildManyArchive(t, 16, func(i int) uint32 {
		if i%2 == 0 {
			return 0644
		}
		return 0600
	})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	results := r.ExtractAll(context.Background(), WithMode(AlwaysVXA), WithParallel(4))
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Entry.Name, res.Err)
		}
		if !bytes.Equal(res.Data, contents[i]) {
			t.Fatalf("%s: content mismatch", res.Entry.Name)
		}
	}
	if st := r.PoolStats(); st.Snapshots != 1 {
		t.Fatalf("pool parsed the decoder %d times, want 1", st.Snapshots)
	}
}

// TestExtractToStreams: ExtractTo writes the same bytes Extract returns
// and reports the byte count; a corrupted payload surfaces as a CRC
// error.
func TestExtractToStreams(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithMode(AlwaysVXA)}
	for name, want := range inputs {
		e := findEntry(t, r, name)
		var out bytes.Buffer
		n, err := r.ExtractTo(context.Background(), e, &out, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != int64(out.Len()) || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: streamed %d bytes, want %d", name, n, len(want))
		}
	}

	// Corrupt the text entry's payload: the streaming CRC must catch it.
	bad := append([]byte(nil), arch...)
	e := findEntry(t, r, "docs/readme.txt")
	bad[int(e.LocalOffset())+30+len(e.Name)+20] ^= 0xFF
	r2, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	e2 := findEntry(t, r2, "docs/readme.txt")
	if _, err := r2.ExtractTo(context.Background(), e2, &bytes.Buffer{}, opts...); err == nil {
		t.Fatal("streamed extraction missed payload corruption")
	}
}

// TestParallelVerify: the fan-out integrity check agrees with the serial
// one, on both intact and corrupted archives.
func TestParallelVerify(t *testing.T) {
	arch, _ := buildManyArchive(t, 12, func(i int) uint32 { return 0644 })
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.Verify(context.Background(), WithParallel(4)); len(errs) != 0 {
		t.Fatalf("parallel verify of intact archive: %v", errs)
	}

	bad := append([]byte(nil), arch...)
	e := &r.Entries()[5]
	bad[int(e.LocalOffset())+30+len(e.Name)+20] ^= 0xFF
	r2, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	serial := r2.Verify(context.Background(), WithParallel(1))
	r3, _ := NewReader(bad)
	parallel := r3.Verify(context.Background(), WithParallel(4))
	if len(serial) != 1 || len(parallel) != 1 {
		t.Fatalf("serial found %d errors, parallel %d, want 1 each", len(serial), len(parallel))
	}
}

// TestStreamFuelAbsolute: a reused VM's budget is set per stream, not
// accumulated — the remaining fuel after identical streams is identical.
func TestStreamFuelAbsolute(t *testing.T) {
	c, ok := codec.ByName("deflate")
	if !ok {
		t.Fatal("deflate not registered")
	}
	elf, err := c.DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	v, err := elf32.NewVM(elf, vm.Config{MemSize: DefaultDecoderMemSize})
	if err != nil {
		t.Fatal(err)
	}
	payload := encodePayload(t, c, bytes.Repeat([]byte("fuel discipline "), 500))
	var remaining []int64
	for i := 0; i < 3; i++ {
		section := io.NewSectionReader(bytes.NewReader(payload), 0, int64(len(payload)))
		reusable, err := v.RunStream(context.Background(), section, &bytes.Buffer{}, nil, vm.Config{}.FuelFor(len(payload)))
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if !reusable {
			t.Fatalf("stream %d: deflate decoder should park at the done gate", i)
		}
		remaining = append(remaining, v.FuelRemaining())
	}
	// Stream 1 may differ (lazy heap growth, cold caches); streams 2 and
	// 3 are identical work from identical state, so with an absolute
	// per-stream budget their remaining fuel matches exactly. With an
	// accumulating budget, each stream would start ~2^30 richer.
	if remaining[1] != remaining[2] {
		t.Fatalf("fuel accumulates across streams: remaining = %v", remaining)
	}
	budget := vm.Config{}.FuelFor(len(payload))
	for i, rem := range remaining {
		if rem >= budget {
			t.Fatalf("stream %d: remaining %d >= budget %d (budget not consumed?)", i, rem, budget)
		}
	}
}

func encodePayload(t *testing.T, c *codec.Codec, raw []byte) []byte {
	t.Helper()
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestVerboseWriterSerialized: ExtractAll shares one Verbose writer
// across workers; decoder diagnostics (every entry here is corrupted, so
// every decoder dies with a message) must be serialized onto it. Run
// with -race: an unserialized writer fails the detector.
func TestVerboseWriterSerialized(t *testing.T) {
	arch, _ := buildManyArchive(t, 8, func(i int) uint32 { return 0644 })
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), arch...)
	for i := range r.Entries() {
		e := &r.Entries()[i]
		bad[int(e.LocalOffset())+30+len(e.Name)+20] ^= 0xFF
	}
	r2, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	results := r2.ExtractAll(context.Background(), WithMode(AlwaysVXA), WithParallel(4), WithVerbose(&diag))
	for _, res := range results {
		if res.Err == nil {
			t.Fatalf("%s: corrupted entry decoded cleanly", res.Entry.Name)
		}
	}
	if diag.Len() == 0 {
		t.Fatal("no decoder diagnostics captured; the test exercised nothing")
	}
}
