package vmpool

import (
	"bytes"
	"context"
	"io"
	"testing"

	"vxa/internal/vm"
)

// TestReleaseReset: a canceled lease goes back through the pristine
// reset — Outstanding drops, the VM is parked idle, and the next lease
// resumes it with clean state.
func TestReleaseResetParksPristineVM(t *testing.T) {
	elf := compile(t, echoSrc)
	p := New(Options{})
	ctx := context.Background()

	l, err := p.Get(ctx, "echo", 0644, elf)
	if err != nil {
		t.Fatal(err)
	}
	// Run half a stream, then abandon it as a cancellation would.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := l.VM().RunStream(cctx, bytes.NewReader([]byte("junk state")), io.Discard, nil, vm.StreamFuel(16)); !vm.IsCanceled(err) {
		t.Fatalf("RunStream under dead context returned %v, want CanceledError", err)
	}
	l.ReleaseReset()

	if n := p.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after ReleaseReset, want 0", n)
	}
	if n := p.IdleCount(); n != 1 {
		t.Fatalf("IdleCount = %d, want the reset VM parked", n)
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("stats %+v: want exactly one reset", st)
	}

	// The parked VM must serve a clean stream.
	l2, err := p.Get(ctx, "echo", 0644, elf)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("post-cancel stream")
	var out bytes.Buffer
	reusable, err := l2.VM().RunStream(ctx, bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	l2.Release(reusable)
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatalf("echo after reset = %q, want %q", out.Bytes(), payload)
	}
}
