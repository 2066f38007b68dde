package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"vxa/internal/vm"
	"vxa/internal/vmpool"

	_ "vxa/internal/codec/deflate"
)

// TestReaderSharedSnapCache is the fleet-wide amortization property the
// serving layer is built on: two Readers over two different archives
// that embed byte-identical decoders share ONE content-addressed cache
// line — one snapshot build, one translation, however many archives.
func TestReaderSharedSnapCache(t *testing.T) {
	build := func(name string, n int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, WriterOptions{})
		data := bytes.Repeat([]byte(fmt.Sprintf("archive %s stream ", name)), n)
		if err := w.AddFile(name, data, 0644); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	arch1, arch2 := build("one.txt", 300), build("two.txt", 400)

	cache := vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: 16 << 20}})
	for i, arch := range [][]byte{arch1, arch2} {
		r, err := NewReader(arch)
		if err != nil {
			t.Fatal(err)
		}
		r.SetSnapCache(cache)
		for _, res := range r.ExtractAll(context.Background(), WithMode(AlwaysVXA)) {
			if res.Err != nil {
				t.Fatalf("archive %d: %s: %v", i, res.Entry.Name, res.Err)
			}
		}
		if errs := r.Verify(context.Background()); len(errs) != 0 {
			t.Fatalf("archive %d verify: %v", i, errs)
		}
	}

	s := cache.Stats()
	if s.Entries != 1 || s.Misses != 1 {
		t.Fatalf("cache stats = %+v: want both archives' deflate decoders on one line (1 entry, 1 miss)", s)
	}
	if s.Hits < 3 {
		t.Fatalf("hits = %d, want the 3 post-build streams served from the cache", s.Hits)
	}
	if s.VM.Steps == 0 {
		t.Fatal("aggregated engine counters never accumulated")
	}
}

// TestReaderSnapCacheIsolation: the §2.4 security-attribute isolation
// survives the content-addressed cache — entries with different modes
// share the decoder's one snapshot line, but never a VM: no lease of one
// mode resumes a VM the other parked.
func TestReaderSnapCacheIsolation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	secret := bytes.Repeat([]byte("secret data "), 200)
	public := bytes.Repeat([]byte("public data "), 200)
	if err := w.AddFile("secret.txt", secret, 0600); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile("public.txt", public, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cache := vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: 16 << 20}})
	r.SetSnapCache(cache)
	for _, res := range r.ExtractAll(context.Background(), WithMode(AlwaysVXA)) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Entry.Name, res.Err)
		}
	}
	// One decoder content, two security modes: one cache line, and no
	// VM resumed across the modes.
	if s := cache.Stats(); s.Entries != 1 || s.Misses != 1 || s.Pool.Resumes != 0 {
		t.Fatalf("cache stats = %+v, want one line and no resumed VM", s)
	}
}
