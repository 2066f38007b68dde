package artifact

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vxa/internal/vm"
)

// collected runs the collector until the store reports no mapped bytes:
// a finalizer runs some time after the cycle that found its object dead.
func collected(t *testing.T, store *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().MappedBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d artifact bytes still mapped with no snapshot alive", store.Stats().MappedBytes)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// storeMappings counts this process's mappings of files under dir.
func storeMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps here")
	}
	return strings.Count(string(maps), dir)
}

func savedStore(t *testing.T) (*Store, [32]byte, []byte) {
	t.Helper()
	snap, hash, golden := buildSnapshot(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(hash, testCfg, snap); err != nil {
		t.Fatal(err)
	}
	return store, hash, golden
}

// TestMappingDiesWithSnapshot: a load maps the file, and the mapping is
// released once the snapshot over it is unreachable — not kept for the
// life of the store.
func TestMappingDiesWithSnapshot(t *testing.T) {
	store, hash, _ := savedStore(t)
	snap, err := store.Load(hash, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().MappedBytes; got <= 0 {
		t.Fatalf("mapped_bytes = %d with a loaded snapshot alive", got)
	}
	if runtime.GOOS == "linux" && storeMappings(t, store.Dir()) != 1 {
		t.Fatalf("%d mappings of the artifact, want 1", storeMappings(t, store.Dir()))
	}
	runtime.KeepAlive(snap)
	snap = nil
	collected(t, store)
	if runtime.GOOS == "linux" && storeMappings(t, store.Dir()) != 0 {
		t.Fatal("the artifact is still mapped after its snapshot was collected")
	}
}

// TestVMOutlivesLoadedSnapshot: a VM copies its image out of the
// snapshot, so it keeps running — and resetting its own heap — after the
// snapshot and the mapping under it are gone.
func TestVMOutlivesLoadedSnapshot(t *testing.T) {
	store, hash, golden := savedStore(t)
	snap, err := store.Load(hash, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	v := snap.NewVM()
	snap = nil
	collected(t, store)
	for stream := 0; stream < 3; stream++ {
		var out bytes.Buffer
		v.Stdout = &out
		if st, err := v.Run(); err != nil || st != vm.StatusDone {
			t.Fatalf("stream %d after the snapshot was dropped: st=%v err=%v", stream, st, err)
		}
		want := append([]byte(nil), golden...)
		want[0] += byte(stream) // the guest's counter, one up per stream
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("stream %d wrote %x, want %x", stream, out.Bytes(), want)
		}
	}
}

// TestLoadDropLoopHoldsMappingsFlat is what a shard that evicts and
// reloads does, and what diskwarm_start does 700 times a run: mappings
// follow what is alive, not how often it was loaded.
func TestLoadDropLoopHoldsMappingsFlat(t *testing.T) {
	store, hash, golden := savedStore(t)
	var one int64
	for i := 0; i < 200; i++ {
		snap, err := store.Load(hash, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			one = store.Stats().MappedBytes
		}
		if out, _ := runStream(t, snap); !bytes.Equal(out, golden) {
			t.Fatalf("load %d: stream wrote %x, want %x", i, out, golden)
		}
		if i%20 == 19 {
			snap = nil
			collected(t, store)
		}
	}
	if got := store.Stats().Hits; got != 200 {
		t.Fatalf("%d hits, want 200", got)
	}
	if one <= 0 || store.Stats().MappedBytes != 0 {
		t.Fatalf("mapped_bytes: %d after one load, %d after the loop", one, store.Stats().MappedBytes)
	}
	if runtime.GOOS == "linux" && storeMappings(t, store.Dir()) != 0 {
		t.Fatal("mappings left behind by a load/drop loop")
	}
}
