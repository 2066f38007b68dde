package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// preCompressedArchive is a one-entry archive holding gzip data of n
// input bytes, stored as-is with its decoder attached, and the offset of
// that stored form in the archive.
func preCompressedArchive(t *testing.T, n int, noise bool) ([]byte, int, []byte) {
	t.Helper()
	raw := bytes.Repeat([]byte("a pre-compressed entry, checked before it is decoded. "), n/54+1)[:n]
	if noise {
		rand.New(rand.NewSource(3)).Read(raw)
	}
	var gz bytes.Buffer
	gw := gzip.NewWriter(&gz)
	gw.Write(raw)
	gw.Close()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.AddFile("entry.gz", gz.Bytes(), 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	arch := buf.Bytes()
	off := bytes.Index(arch, gz.Bytes())
	if off < 0 {
		t.Fatal("the gzip stream is not stored verbatim")
	}
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Entries()[0].PreCompressed {
		t.Fatal("the gzip entry was not archived as pre-compressed")
	}
	return arch, off, gz.Bytes()
}

// countWriter counts what reaches the caller's writer.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// TestPayloadCRCMismatchWritesNothing: a forced decode of a pre-compressed
// entry whose stored bytes are damaged fails the stored-data CRC before
// the decoder runs, so not one byte reaches the caller.
func TestPayloadCRCMismatchWritesNothing(t *testing.T) {
	arch, off, gz := preCompressedArchive(t, 4<<10, false)
	bad := append([]byte(nil), arch...)
	bad[off+len(gz)/2] ^= 0x40
	r, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out countWriter
	n, err := r.ExtractTo(context.Background(), &r.Entries()[0], &out,
		WithMode(AlwaysVXA), WithDecodeAll(true))
	if err == nil || !strings.Contains(err.Error(), "stored data CRC mismatch") || !errors.Is(err, ErrBadArchive) {
		t.Fatalf("a damaged stored payload extracted with err %v", err)
	}
	if n != 0 || out.n != 0 {
		t.Fatalf("%d bytes reported and %d written before the CRC check failed", n, out.n)
	}
}

// cancelAt is an archive source that cancels its context when a read
// starts inside [from, to), a window of the stored payload past its
// first buffer: the pass is then under way, and its next read must see
// the cancellation.
type cancelAt struct {
	data     []byte
	from, to int64
	cancel   context.CancelFunc
}

func (c *cancelAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= c.from && off < c.to {
		c.cancel()
	}
	return bytes.NewReader(c.data).ReadAt(p, off)
}

// TestPayloadCRCCanceled: a context canceled while the stored-data CRC
// pass reads a large pre-compressed payload stops the pass with
// KindCanceled, and nothing is written.
func TestPayloadCRCCanceled(t *testing.T) {
	arch, off, gz := preCompressedArchive(t, 256<<10, true)
	if len(gz) < 4*32<<10 {
		t.Fatalf("the stored payload is %d bytes, too small for a multi-buffer pass", len(gz))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := Open(&cancelAt{data: arch, from: int64(off + 32<<10), to: int64(off + len(gz)), cancel: cancel}, int64(len(arch)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out countWriter
	_, err = r.ExtractTo(ctx, &r.Entries()[0], &out, WithMode(AlwaysVXA), WithDecodeAll(true))
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != KindCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("a pass canceled mid-payload returned %v", err)
	}
	if out.n != 0 {
		t.Fatalf("%d bytes written by a canceled pass", out.n)
	}
}

// preCompressedBudgets are TestPreCompressedAllocBudget's ceilings: the
// heap allocations and bytes of one warm extraction of a 1 KiB
// pre-compressed entry, decoded (the stored-data CRC pass, then a pooled
// VM resumed) or as stored (the stored bytes copied out and summed),
// measured with a tenth of headroom. Re-measure when the path changes,
// and only ever downwards.
//
// Measured once every Reader leased from a content-addressed cache line
// and no lease built a "codec@offset" pool key (allocations, bytes;
// GOMAXPROCS 1, 2, 4 and 8 alike): decoded 7, 608; stored 8, 312. Before:
// decoded 9, 648. Measured once both passes over the stored bytes reused
// their buffer: decoded 9, 648; stored 8, 328. Before, each pass
// allocated and cleared a fresh 32 KiB buffer: decoded 10, 33 417;
// stored 9, 33 096.
var preCompressedBudgets = map[bool]struct {
	allocs float64
	bytes  uint64
}{
	true:  {7.7, 669},
	false: {8.8, 343},
}

// TestPreCompressedAllocBudget holds a warm extraction of a small
// pre-compressed entry, decoded and as stored, under a byte ceiling well
// below one 32 KiB copy buffer.
func TestPreCompressedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	arch, _, _ := preCompressedArchive(t, 1<<10, false)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := &r.Entries()[0]
	for _, decode := range []bool{true, false} {
		op := func() {
			if _, err := r.ExtractTo(context.Background(), e, io.Discard,
				WithMode(AlwaysVXA), WithDecodeAll(decode)); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: the pooled VM has formed and compiled what this stream
		// runs.
		for i := 0; i < 200; i++ {
			op()
		}
		const runs = 50
		allocs := testing.AllocsPerRun(runs, op)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		budget := preCompressedBudgets[decode]
		t.Logf("decoded=%-5v %.0f allocs (ceiling %.1f), %d bytes (ceiling %d)", decode, allocs, budget.allocs, perOp, budget.bytes)
		if allocs > budget.allocs || perOp > budget.bytes {
			t.Errorf("decoded=%v: a warm extraction of a pre-compressed entry allocates %.0f objects, %d bytes; the budget is %.1f, %d",
				decode, allocs, perOp, budget.allocs, budget.bytes)
		}
	}
}
