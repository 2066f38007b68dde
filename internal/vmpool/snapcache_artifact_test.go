package vmpool

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"testing"

	"vxa/internal/artifact"
	"vxa/internal/vm"
)

var testVMCfg = vm.Config{MemSize: 4 << 20}

// noBuild is an elf source that must never be invoked — the assertion
// that a request was served from the artifact store.
func noBuild() ([]byte, error) { return nil, errors.New("elf build path reached") }

// entryFootprint reads the resident entry's live snapshot footprint.
func entryFootprint(t *testing.T, c *SnapCache, hash [32]byte) (int64, int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[hash]
	if e == nil || e.snap == nil {
		t.Fatal("entry not resident")
	}
	return e.snap.Footprint(), e.snap.BlockCount()
}

// TestSnapCacheFootprintTracksAbsorb pins the byte-accounting fix:
// AbsorbBlocks grows a snapshot after its entry was sized, and
// Stats().Bytes must follow the live Footprint, not the build-time
// figure the entry was admitted at.
func TestSnapCacheFootprintTracksAbsorb(t *testing.T) {
	echo := compile(t, echoSrc)
	echoHash := HashELF(mustELF(t, echo))
	c := NewSnapCache(SnapCacheConfig{VM: testVMCfg})

	// Build the line without running a stream: the snapshot has no
	// absorbed blocks yet.
	lease, err := c.Get(context.Background(), echoHash, 0644, 0, echo)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release(false)
	buildBytes := c.Stats().Bytes

	// Decode a stream; releasing the lease absorbs the translated
	// blocks into the snapshot, growing its footprint.
	payload := bytes.Repeat([]byte("grow the block cache "), 64)
	cacheStream(t, c, echoHash, 0644, 0, echo, payload, payload)
	live, blocks := entryFootprint(t, c, echoHash)
	if blocks == 0 {
		t.Fatal("stream absorbed no blocks; test is vacuous")
	}
	if live <= buildBytes {
		t.Fatalf("live footprint %d not larger than build-time %d", live, buildBytes)
	}
	if got := c.Stats().Bytes; got != live {
		t.Fatalf("Stats().Bytes = %d, want live footprint %d (stale build-time size was %d)",
			got, live, buildBytes)
	}
}

// TestSnapCacheOrphanBytesVisible pins the third accounting fix: bytes
// pinned by an evicted line with a lease still in flight stay visible
// as OrphanBytes until the last lease releases.
func TestSnapCacheOrphanBytesVisible(t *testing.T) {
	echo := compile(t, echoSrc)
	leaky := compile(t, leakySrc)
	echoHash := HashELF(mustELF(t, echo))
	leakyHash := HashELF(mustELF(t, leaky))

	// 1-byte budget: building the leaky line evicts the echo line.
	c := NewSnapCache(SnapCacheConfig{VM: testVMCfg, MaxBytes: 1})
	lease, err := c.Get(context.Background(), echoHash, 0644, 0, echo)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("pinned by an in-flight lease")
	cacheStream(t, c, leakyHash, 0644, 0, leaky, payload, nil)
	if c.Contains(echoHash) {
		t.Fatal("echo line still resident; eviction did not happen")
	}

	s := c.Stats()
	if s.OrphanBytes <= 0 {
		t.Fatalf("stats = %+v, want orphan-pinned snapshot bytes visible after eviction", s)
	}
	if s.Bytes < 0 {
		t.Fatalf("resident bytes went negative: %+v", s)
	}

	reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &bytes.Buffer{}, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	lease.Release(reusable)
	if s := c.Stats(); s.OrphanBytes != 0 {
		t.Fatalf("stats = %+v, want orphan bytes released with the last lease", s)
	}
}

// TestSnapCacheArtifactRoundTrip is the cross-process story: one cache
// builds from the ELF and persists; a fresh cache (a new process in
// disguise) serves the same decoder from the store alone — the ELF
// path is never touched, the golden output hash is unchanged, and the
// persisted uop block cache eliminates re-translation.
func TestSnapCacheArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	echo := compile(t, echoSrc)
	echoHash := HashELF(mustELF(t, echo))
	payload := bytes.Repeat([]byte("persistent artifact round trip "), 32)
	golden := sha256.Sum256(payload) // echo: output == input

	store1, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store1})
	cacheStream(t, c1, echoHash, 0644, 0, echo, payload, payload)
	_, blocks1 := entryFootprint(t, c1, echoHash)
	if blocks1 == 0 {
		t.Fatal("no blocks absorbed; disk-warm would be meaningless")
	}
	if n := c1.FlushArtifacts(); n != 1 {
		t.Fatalf("FlushArtifacts wrote %d artifacts, want 1 (grown block cache)", n)
	}
	if s := store1.Stats(); s.Saves < 2 { // build-time save + flush
		t.Fatalf("store stats = %+v, want build save plus flush save", s)
	}

	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store2})
	lease, err := c2.Get(context.Background(), echoHash, 0644, 0, noBuild)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	built := lease.VM().Stats().BlocksBuilt
	lease.Release(reusable)

	if got := sha256.Sum256(out.Bytes()); got != golden {
		t.Fatalf("disk-warm output hash %x, want %x", got, golden)
	}
	if built != 0 {
		t.Fatalf("disk-warm stream re-translated %d blocks, want 0", built)
	}
	if _, blocks2 := entryFootprint(t, c2, echoHash); blocks2 != blocks1 {
		t.Fatalf("loaded snapshot carries %d blocks, want %d", blocks2, blocks1)
	}
	if s := store2.Stats(); s.Hits != 1 || s.Fallbacks != 0 {
		t.Fatalf("store stats = %+v, want one clean hit", s)
	}
}

// TestSnapCacheArtifactCorruptionFallsBack: every way the store can be
// wrong — bit rot, truncation, an empty file — must leave the request
// path untouched: the cache silently rebuilds from the ELF, the decode
// output is bit-identical, and the store's fallback counter records
// the event. The rebuild also repairs the store in passing.
func TestSnapCacheArtifactCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	echo := compile(t, echoSrc)
	echoHash := HashELF(mustELF(t, echo))
	payload := bytes.Repeat([]byte("fallback must be invisible "), 16)
	golden := sha256.Sum256(payload)

	seed, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c0 := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: seed})
	cacheStream(t, c0, echoHash, 0644, 0, echo, payload, payload)
	c0.FlushArtifacts()
	path := seed.Path(echoHash, testVMCfg)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name   string
		mutate func() []byte
	}{
		{"payload bit rot", func() []byte {
			d := append([]byte(nil), pristine...)
			d[len(d)-9] ^= 0x20
			return d
		}},
		{"truncation", func() []byte { return pristine[:len(pristine)/3] }},
		{"empty file", func() []byte { return nil }},
	}
	for _, dm := range damage {
		t.Run(dm.name, func(t *testing.T) {
			if err := os.WriteFile(path, dm.mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := artifact.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store})
			lease, err := c.Get(context.Background(), echoHash, 0644, 0, echo)
			if err != nil {
				t.Fatalf("request failed on a corrupt store: %v", err)
			}
			var out bytes.Buffer
			reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
			if err != nil {
				t.Fatal(err)
			}
			lease.Release(reusable)
			if got := sha256.Sum256(out.Bytes()); got != golden {
				t.Fatalf("fallback output hash %x, want %x", got, golden)
			}
			s := store.Stats()
			if s.Fallbacks != 1 {
				t.Fatalf("store stats = %+v, want exactly one fallback", s)
			}
			if s.Saves == 0 {
				t.Fatalf("store stats = %+v, want the rebuild to repair the artifact", s)
			}
			// The repaired artifact serves the next fresh process.
			fresh, err := artifact.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			c2 := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: fresh})
			l2, err := c2.Get(context.Background(), echoHash, 0644, 0, noBuild)
			if err != nil {
				t.Fatalf("repaired artifact did not load: %v", err)
			}
			l2.Release(false)
		})
	}
}

// TestSnapCacheFlushOnNewSuperblock: a newly absorbed superblock must
// trigger FlushArtifacts even when block-cache growth stays under the
// flushMinNewBlocks threshold — superblocks encode hot-path tracing
// across many streams, the most expensive translation state to lose on
// restart.
func TestSnapCacheFlushOnNewSuperblock(t *testing.T) {
	dir := t.TempDir()
	echo := compile(t, echoSrc)
	echoHash := HashELF(mustELF(t, echo))
	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store})

	// A short stream stays below the superblock heat threshold (the
	// echo loop runs once per byte, so fewer bytes than sbHotThreshold):
	// blocks absorb, superblocks don't form.
	short := []byte("cold loop")
	cacheStream(t, c, echoHash, 0644, 0, echo, short, short)
	c.mu.Lock()
	e := c.entries[echoHash]
	if sc := e.snap.SBCount(); sc != 0 {
		c.mu.Unlock()
		t.Fatalf("short stream formed %d superblocks; test needs a cold start", sc)
	}
	c.mu.Unlock()
	c.FlushArtifacts()

	// A long stream runs the loop hot: superblocks form and absorb on
	// release, while most blocks were already translated.
	long := bytes.Repeat([]byte("superblock heat "), 256)
	cacheStream(t, c, echoHash, 0644, 0, echo, long, long)
	c.mu.Lock()
	if sc := e.snap.SBCount(); sc == 0 {
		c.mu.Unlock()
		t.Fatal("long stream absorbed no superblocks; test is vacuous")
	}
	// Neutralize the block-count trigger so only the superblock delta
	// can justify the write we assert on.
	e.savedBlocks = e.snap.BlockCount()
	c.mu.Unlock()

	if n := c.FlushArtifacts(); n != 1 {
		t.Fatalf("FlushArtifacts wrote %d artifacts, want 1 (new superblock)", n)
	}
	// The write advanced the saved counters: nothing new, nothing flushed.
	if n := c.FlushArtifacts(); n != 0 {
		t.Fatalf("repeat FlushArtifacts wrote %d artifacts, want 0", n)
	}

	// The persisted superblocks reach the next process.
	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store2})
	lease, err := c2.Get(context.Background(), echoHash, 0644, 0, noBuild)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release(false)
	c2.mu.Lock()
	sc := c2.entries[echoHash].snap.SBCount()
	c2.mu.Unlock()
	if sc == 0 {
		t.Fatal("restored snapshot carries no superblocks")
	}
}

// TestSnapCacheArtifactConcurrentMisses: many goroutines asking for one
// cold decoder under distinct modes while the store is live coalesce
// onto one build, race-free and always correct (run with -race).
func TestSnapCacheArtifactConcurrentMisses(t *testing.T) {
	dir := t.TempDir()
	echo := compile(t, echoSrc)
	echoHash := HashELF(mustELF(t, echo))
	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSnapCache(SnapCacheConfig{VM: testVMCfg, Artifacts: store})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(mode uint32) {
			payload := []byte(fmt.Sprintf("stream under mode %o", mode))
			lease, err := c.Get(context.Background(), echoHash, mode, 0, echo)
			if err != nil {
				done <- err
				return
			}
			var out bytes.Buffer
			reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
			lease.Release(reusable && err == nil)
			if err == nil && !bytes.Equal(out.Bytes(), payload) {
				err = errors.New("echo output mismatch")
			}
			done <- err
		}(uint32(0600 + i))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.FlushArtifacts()
	if s := store.Stats(); s.Fallbacks != 0 || s.SaveErrors != 0 {
		t.Fatalf("store stats = %+v, want clean concurrent operation", s)
	}
}
