package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"vxa/internal/vm"
	"vxa/internal/vmpool"

	_ "vxa/internal/codec/deflate"
)

// cancelArchive builds an archive whose single deflate entry takes long
// enough to decode in the VM that a mid-stream cancellation reliably
// lands while the decoder is running.
func cancelArchive(t testing.TB) ([]byte, int) {
	t.Helper()
	data := bytes.Repeat([]byte("cancel me mid-stream, return my VM to the pool. "), 6000)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.AddFile("big.txt", data, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(data)
}

// TestCancelMidDecodeReturnsVMToPool is the v2 cancellation contract,
// run under -race in CI: canceling a context mid-decode stops the
// pooled decoder VM cooperatively, the VM is reset to the pristine
// snapshot and returned (Outstanding drops to 0, the reset is counted),
// and the next extraction succeeds immediately on the same pool.
func TestCancelMidDecodeReturnsVMToPool(t *testing.T) {
	arch, rawLen := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.Entries()[0]
	opts := []Option{WithMode(AlwaysVXA)}

	ctx, cancel := context.WithCancel(context.Background())
	stream, err := r.Extract(ctx, e, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk so the decode is demonstrably in flight, then pull
	// the rug out.
	if _, err := io.ReadFull(stream, make([]byte, 4096)); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	_, err = io.Copy(io.Discard, stream)
	if err == nil {
		t.Fatal("canceled extraction drained cleanly; want ErrCanceled")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("stream error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error %v does not unwrap to context.Canceled", err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	// The lease must be back: no outstanding leases, and the canceled
	// VM re-entered the pool through the pristine-reset path.
	if n := r.PoolOutstanding(); n != 0 {
		t.Fatalf("PoolOutstanding = %d after canceled stream, want 0", n)
	}
	if st := r.PoolStats(); st.Resets == 0 {
		t.Fatalf("pool stats %+v: canceled VM was not reset back into the pool", st)
	}

	// The next Get over the same pool succeeds and decodes cleanly.
	got, err := r.ExtractBytes(context.Background(), e, opts...)
	if err != nil {
		t.Fatalf("extraction after cancel: %v", err)
	}
	if len(got) != rawLen {
		t.Fatalf("post-cancel decode returned %d bytes, want %d", len(got), rawLen)
	}
}

// TestStreamCloseAbandonsDecode: closing the Extract stream without
// canceling the context has the same effect — Close blocks until the VM
// is reset and returned.
func TestStreamCloseAbandonsDecode(t *testing.T) {
	arch, rawLen := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.Entries()[0]
	opts := []Option{WithMode(AlwaysVXA)}

	stream, err := r.Extract(context.Background(), e, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(stream, make([]byte, 1024)); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if n := r.PoolOutstanding(); n != 0 {
		t.Fatalf("PoolOutstanding = %d after Close, want 0", n)
	}
	got, err := r.ExtractBytes(context.Background(), e, opts...)
	if err != nil || len(got) != rawLen {
		t.Fatalf("extraction after Close: %d bytes, err %v", len(got), err)
	}
}

// TestCancelWithoutReading: a context canceled while the consumer never
// reads must still free the VM — the watcher severs the pipe so the
// guest cannot stay blocked in a write.
func TestCancelWithoutReading(t *testing.T) {
	arch, _ := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.Entries()[0]

	ctx, cancel := context.WithCancel(context.Background())
	stream, err := r.Extract(ctx, e, WithMode(AlwaysVXA))
	if err != nil {
		t.Fatal(err)
	}
	// Let the decoder get going (and likely block on the unread pipe),
	// then cancel without a single Read.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if n := r.PoolOutstanding(); n != 0 {
		t.Fatalf("PoolOutstanding = %d, want 0", n)
	}
}

// TestExtractAllCancellation: canceling mid-ExtractAll reports
// ErrCanceled for the entries that never decoded, and releases every
// pooled VM.
func TestExtractAllCancellation(t *testing.T) {
	arch, _ := buildManyArchive(t, 12, func(i int) uint32 { return 0644 })
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: every entry must report ErrCanceled
	results := r.ExtractAll(ctx, WithMode(AlwaysVXA), WithParallel(4))
	for _, res := range results {
		if !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", res.Entry.Name, res.Err)
		}
	}
	if n := r.PoolOutstanding(); n != 0 {
		t.Fatalf("PoolOutstanding = %d, want 0", n)
	}
}

// TestVerifyIgnoresLimit: WithLimit is an extraction policy, not an
// integrity property — an intact archive must verify clean however
// small the limit, on stored and codec entries alike.
func TestVerifyIgnoresLimit(t *testing.T) {
	arch, _ := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.Verify(context.Background(), WithLimit(64)); len(errs) != 0 {
		t.Fatalf("intact archive failed verify under WithLimit: %v", errs)
	}
}

// TestExtractDecodedFormHonorsLimit: the decoded-form accessor is a
// decode surface like any other; the bomb guard applies.
func TestExtractDecodedFormHonorsLimit(t *testing.T) {
	arch, _ := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.Entries()[0]
	_, err = r.ExtractDecodedForm(context.Background(), e, WithMode(AlwaysVXA), WithLimit(1<<10))
	if !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("err = %v, want ErrOutputLimit", err)
	}
}

// TestPoolOutstandingWithSnapCache: the outstanding-lease view covers
// the shared-cache path, where the backing pool is not the Reader's.
func TestPoolOutstandingWithSnapCache(t *testing.T) {
	arch, rawLen := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSnapCache(vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: DefaultDecoderMemSize}}))
	e := &r.Entries()[0]

	ctx, cancel := context.WithCancel(context.Background())
	stream, err := r.Extract(ctx, e, WithMode(AlwaysVXA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(stream, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if n := r.PoolOutstanding(); n != 1 {
		t.Fatalf("PoolOutstanding mid-decode = %d, want 1 (cache-path lease must be visible)", n)
	}
	cancel()
	stream.Close()
	if n := r.PoolOutstanding(); n != 0 {
		t.Fatalf("PoolOutstanding after cancel = %d, want 0", n)
	}
	got, err := r.ExtractBytes(context.Background(), e, WithMode(AlwaysVXA))
	if err != nil || len(got) != rawLen {
		t.Fatalf("extraction after cancel: %d bytes, err %v", len(got), err)
	}
}

// TestWithLimitStopsDecode: WithLimit aborts an oversized decode with
// ErrOutputLimit and the partial output never exceeds the cap.
func TestWithLimitStopsDecode(t *testing.T) {
	arch, rawLen := cancelArchive(t)
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.Entries()[0]
	// Both decode paths must honour the cap: the sandboxed decoder via
	// the output writer, and the native fast path via its bounded
	// buffer (the bomb guard must not depend on the mode).
	for _, mode := range []ExtractMode{AlwaysVXA, NativeFirst} {
		var out bytes.Buffer
		n, err := r.ExtractTo(context.Background(), e, &out, WithMode(mode), WithLimit(1<<12))
		if !errors.Is(err, ErrOutputLimit) {
			t.Fatalf("mode %v: err = %v, want ErrOutputLimit", mode, err)
		}
		if n > 1<<12 || rawLen <= 1<<12 {
			t.Fatalf("mode %v: limit did not bound output: wrote %d of %d raw bytes under a %d cap", mode, n, rawLen, 1<<12)
		}
	}
}
