package vmpool

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vxa/internal/vm"
)

// cacheStream drives one stream on a cache lease and returns the lease
// to the pool. want, when non-nil, is the expected decoded output (only
// the echo decoder reproduces its input; the leaky decoder emits its
// previous stream's buffer).
func cacheStream(t testing.TB, c *SnapCache, hash [32]byte, mode uint32, scope uint64, elf func() ([]byte, error), payload, want []byte) {
	if t != nil {
		t.Helper()
	}
	lease, err := c.Get(context.Background(), hash, mode, scope, elf)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		return
	}
	var out bytes.Buffer
	reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		lease.Release(false)
		if t != nil {
			t.Fatal(err)
		}
		return
	}
	lease.Release(reusable)
	if t != nil && want != nil && !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("decoder returned %d bytes, want %d", out.Len(), len(want))
	}
}

func mustELF(t *testing.T, elf func() ([]byte, error)) []byte {
	t.Helper()
	b, err := elf()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapCacheHitMiss: the second request for the same content+mode is
// a hit on the same snapshot line; different content is a different
// line.
func TestSnapCacheHitMiss(t *testing.T) {
	echo := compile(t, echoSrc)
	leaky := compile(t, leakySrc)
	echoHash := HashELF(mustELF(t, echo))
	leakyHash := HashELF(mustELF(t, leaky))
	if echoHash == leakyHash {
		t.Fatal("distinct decoders share a content hash")
	}

	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	payload := []byte("content addressed")
	cacheStream(t, c, echoHash, 0644, 0, echo, payload, payload)
	cacheStream(t, c, echoHash, 0644, 0, echo, payload, payload)
	cacheStream(t, c, leakyHash, 0644, 0, leaky, payload, nil)

	s := c.Stats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 hit", s)
	}
	if s.Entries != 2 || s.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 2 resident entries with a nonzero footprint", s)
	}
	if s.VM.Steps == 0 || s.VM.Syscalls == 0 {
		t.Fatalf("aggregated engine counters empty: %+v", s.VM)
	}
	if !c.Contains(echoHash, 0644) || c.Contains(echoHash, 0600) {
		t.Fatal("Contains disagrees with the requests made")
	}
}

// TestSnapCacheSiblingImport: a new security mode of an already-warm
// decoder imports the sibling's translated blocks, so its first VM
// translates nothing.
func TestSnapCacheSiblingImport(t *testing.T) {
	echo := compile(t, echoSrc)
	hash := HashELF(mustELF(t, echo))
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	payload := bytes.Repeat([]byte("warm"), 64)

	// Warm mode 0644: run + release absorbs the block cache into the
	// snapshot.
	cacheStream(t, c, hash, 0644, 0, echo, payload, payload)

	// Mode 0600 is a distinct cache entry; its snapshot must arrive
	// pre-translated via the sibling import.
	lease, err := c.Get(context.Background(), hash, 0600, 0, echo)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release(false)
	if _, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), io.Discard, nil, vm.StreamFuel(len(payload))); err != nil {
		t.Fatal(err)
	}
	if built := lease.VM().Stats().BlocksBuilt; built != 0 {
		t.Fatalf("sibling-mode VM built %d blocks, want 0 (block import failed)", built)
	}
}

// TestSnapCacheEviction: a byte budget sized for one entry evicts the
// least-recently-used line, and a re-request rebuilds it (a new miss).
func TestSnapCacheEviction(t *testing.T) {
	echo := compile(t, echoSrc)
	leaky := compile(t, leakySrc)
	echoHash := HashELF(mustELF(t, echo))
	leakyHash := HashELF(mustELF(t, leaky))

	// Budget for the larger decoder's entry as it stands once warm, and
	// not a byte of another: an entry's footprint is the few pages of its
	// image when built and grows with what its streams translate, so the
	// second entry, however cold, does not fit beside the first.
	probe := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	cacheStream(t, probe, leakyHash, 0644, 0, leaky, []byte("probe"), nil)
	one := probe.Stats().Bytes

	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}, MaxBytes: one})
	cacheStream(t, c, leakyHash, 0644, 0, leaky, []byte("a"), nil)
	cacheStream(t, c, echoHash, 0644, 0, echo, []byte("b"), []byte("b"))
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction leaving one resident entry", s)
	}
	if c.Contains(leakyHash, 0644) || !c.Contains(echoHash, 0644) {
		t.Fatal("evicted the wrong entry: leaky was least recently used")
	}
	if s.Bytes > c.cfg.MaxBytes {
		t.Fatalf("resident bytes %d over budget %d", s.Bytes, c.cfg.MaxBytes)
	}

	// The evicted line rebuilds on demand.
	cacheStream(t, c, leakyHash, 0644, 0, leaky, []byte("back"), nil)
	if s := c.Stats(); s.Misses != 3 {
		t.Fatalf("misses = %d after re-request of an evicted line, want 3", s.Misses)
	}
}

// TestSnapCacheRaceStress hammers one cache from many goroutines with a
// budget small enough to keep hit, miss, rebuild and evict all racing,
// while Drain/Stats/Contains observers run. Run under -race; the
// assertions are liveness plus counter coherence.
func TestSnapCacheRaceStress(t *testing.T) {
	echo := compile(t, echoSrc)
	leaky := compile(t, leakySrc)
	elves := []func() ([]byte, error){echo, leaky}
	hashes := []([32]byte){HashELF(mustELF(t, echo)), HashELF(mustELF(t, leaky))}
	modes := []uint32{0600, 0644}

	// Budget for roughly one entry: every Get with the other decoder
	// resident evicts, so the miss/evict/rebuild path stays hot.
	probe := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	cacheStream(t, probe, hashes[0], 0644, 0, echo, []byte("probe"), nil)
	one := probe.Stats().Bytes

	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}, MaxBytes: one + one/2})
	const workers, iters = 6, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			payload := []byte("race stress payload")
			for i := 0; i < iters; i++ {
				k := rng.Intn(len(elves))
				cacheStream(nil, c, hashes[k], modes[rng.Intn(len(modes))], uint64(rng.Intn(3)), elves[k], payload, nil)
				switch rng.Intn(4) {
				case 0:
					c.Drain()
				case 1:
					_ = c.Stats()
				case 2:
					c.Contains(hashes[k], 0644)
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != workers*iters {
		t.Fatalf("hits %d + misses %d != %d requests", s.Hits, s.Misses, workers*iters)
	}
	if s.Bytes < 0 || s.Entries > 4 {
		t.Fatalf("incoherent final stats: %+v", s)
	}
	// The cache must still serve correctly after the storm.
	cacheStream(t, c, hashes[0], 0644, 0, echo, []byte("after the storm"), []byte("after the storm"))
}

// TestSnapCacheScopeIsolation is the multi-tenant §2.4 extension: the
// leaky decoder parks with client A's stream in its static buffer, and
// client B — same decoder content, same security mode, different trust
// scope — must receive a pristine VM, not A's residue. Scope A itself,
// resuming in place, is allowed to (and does) see its own prior stream:
// that is the intra-client reuse the paper describes.
func TestSnapCacheScopeIsolation(t *testing.T) {
	leaky := compile(t, leakySrc)
	hash := HashELF(mustELF(t, leaky))
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}})
	secret := bytes.Repeat([]byte("A-secret"), 8) // exactly the 64-byte buffer

	run := func(scope uint64, payload []byte) []byte {
		t.Helper()
		lease, err := c.Get(context.Background(), hash, 0644, scope, leaky)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
		if err != nil {
			lease.Release(false)
			t.Fatal(err)
		}
		lease.Release(reusable)
		return out.Bytes()
	}

	scopeA, scopeB := NextScope(), NextScope()
	run(scopeA, secret) // A's secret now sits in the parked VM's buffer

	// Same scope resumes in place: A sees its own previous stream.
	if got := run(scopeA, []byte("A again")); !bytes.Equal(got, secret) {
		t.Fatalf("scope A resume did not see its own residue (got %q)", got)
	}
	// Different scope must get a pristine image: all zeros, no secret.
	if got := run(scopeB, []byte("B stream")); bytes.Contains(got, []byte("A-secret")) {
		t.Fatalf("client B received client A's residue: %q", got)
	} else if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("scope B's VM was not pristine (got %x)", got)
	}
}

// TestSnapCacheEvictionKeepsInFlightCounters pins the metrics fix for
// evicted lines with leases still in flight: a stream released AFTER
// its pool's cache entry was evicted (and the line later rebuilt) must
// still appear in the aggregated engine counters. Before orphan-pool
// tracking, eviction snapshotted the pool's counters immediately, so
// in-flight lease deltas vanished and a rebuild looked like a counter
// reset.
func TestSnapCacheEvictionKeepsInFlightCounters(t *testing.T) {
	echo := compile(t, echoSrc)
	leaky := compile(t, leakySrc)
	echoHash := HashELF(mustELF(t, echo))
	leakyHash := HashELF(mustELF(t, leaky))

	// A 1-byte budget keeps only the most recently used line resident.
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20}, MaxBytes: 1})

	// Check out a lease on the echo line and hold it across the
	// eviction caused by building the leaky line.
	lease, err := c.Get(context.Background(), echoHash, 0644, 0, echo)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("counted even after eviction")
	cacheStream(t, c, leakyHash, 0644, 0, leaky, payload, nil)
	if c.Contains(echoHash, 0644) {
		t.Fatal("echo line still resident; eviction did not happen")
	}
	preRelease := c.Stats().VM.Steps

	// Run the stream on the orphaned pool's lease and release it.
	var out bytes.Buffer
	reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	lease.Release(reusable)
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatalf("echo decoded %d bytes, want %d", out.Len(), len(payload))
	}

	// Rebuild the echo line (a fresh pool) and check nothing was lost.
	cacheStream(t, c, echoHash, 0644, 0, echo, payload, payload)
	s := c.Stats()
	if s.VM.Steps <= preRelease {
		t.Fatalf("in-flight lease's steps lost at eviction: %d -> %d", preRelease, s.VM.Steps)
	}
	if s.VM.UopsFused == 0 || s.VM.SuperblocksFormed == 0 {
		t.Fatalf("optimizer counters missing from aggregated stats: %+v", s.VM)
	}
	if s.Evictions == 0 {
		t.Fatalf("expected at least one eviction: %+v", s)
	}
}

// manyLoopsSrc is a decoder with 32 small hot loops, one function each,
// all of which every stream runs.
func manyLoopsSrc() string {
	var b strings.Builder
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "int f%d(int n) { int s = %d; int i; for (i = 0; i < n; i++) s = s * %d + i; return s; }\n", i, i, 2*i+3)
	}
	b.WriteString("int main(void) {\n\twhile (1) {\n\t\t__stdio_reset();\n\t\tint c = getb();\n\t\tint s = 0;\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "\t\ts = s + f%d(c);\n", i)
	}
	b.WriteString("\t\tputb(s & 255);\n\t\tvxa_done();\n\t}\n\treturn 0;\n}\n")
	return b.String()
}

// TestSnapCacheCountsCodeOnce: the bytes a cache line is charged for its
// decoder's compiled code are the pages that code occupies in the
// snapshot's arena — not a page per trace, which made thirty small
// traces cost 120 KiB of the budget, and not the arena once per trace.
// With the image sparse as well, a warm line of a small decoder is tens
// of KiB, and the 1 GiB default budget means what it says.
func TestSnapCacheCountsCodeOnce(t *testing.T) {
	elf := compile(t, manyLoopsSrc())
	hash := HashELF(mustELF(t, elf))
	c := NewSnapCache(SnapCacheConfig{VM: vm.Config{MemSize: 4 << 20, OptLevel: vm.OptEager}})
	cacheStream(t, c, hash, 0644, 0, elf, []byte{200}, nil)
	st := c.Stats()
	if st.VM.Tier2Compiled == 0 {
		t.Skip("no tier-2 emitter for this host")
	}
	if st.Traces < 30 {
		t.Fatalf("the snapshot carries %d published traces, want at least 30", st.Traces)
	}
	c.mu.Lock()
	snap := c.entries[CacheKey{Hash: hash, Mode: 0644}].snap
	c.mu.Unlock()
	code := snap.CodeBytes()
	if code <= 0 || code >= 64<<10 {
		t.Fatalf("%d published traces are charged %d bytes of code, want under 64 KiB", st.Traces, code)
	}
	if st.Bytes != snap.Footprint() || st.Bytes < code || st.Bytes >= 256<<10 {
		t.Fatalf("the line is charged %d bytes (footprint %d, code %d), want its footprint, under 256 KiB", st.Bytes, snap.Footprint(), code)
	}
}
