//go:build amd64 && linux

package vm

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"vxa/internal/vm/tier2"
)

// The wall for the code arena: one pair of mappings per snapshot lineage,
// written through one view and run from the other, alive exactly as long
// as a Trace, Snapshot or VM holds it, shared by VMs that compile into it
// at once, and bounded.

// mapsLine returns the line of /proc/self/maps for the mapping that
// starts at view's first byte, or "" when there is none.
func mapsLine(t *testing.T, view []byte) string {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps to read")
	}
	prefix := fmt.Sprintf("%x-", uintptr(unsafe.Pointer(unsafe.SliceData(view))))
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// SetArenaSize gives v, which has compiled nothing yet, an arena of its
// own of size bytes in place of the default. Exported (from a test file)
// for the external test that drives the built-in decoders.
func SetArenaSize(v *VM, size int) { v.arena = tier2.NewArena(size) }

// TestArenaLifetime: the two views stay mapped while anything that can
// reach code in them is alive — here, at the end, one Trace alone — and
// are unmapped once nothing is. The arena is the snapshot's, so it is
// also the arena of the VM the snapshot was taken from and of every VM
// made from it.
func TestArenaLifetime(t *testing.T) {
	snap := soakSharedSnapshot(t, 64, eager)
	v := warmShared(t, snap)
	w := snap.NewVM()
	if v.arena != snap.arena || w.arena != snap.arena {
		t.Fatal("a snapshot's VMs do not share its arena")
	}
	rw, rx := snap.arena.Views()
	if rw == nil || rx == nil {
		t.Fatal("a snapshot with published traces has no mapped arena")
	}
	for _, tr := range vmTraces(v) {
		if c := tr.Code(); uintptr(unsafe.Pointer(&c[0])) < uintptr(unsafe.Pointer(&rx[0])) ||
			uintptr(unsafe.Pointer(&c[len(c)-1])) > uintptr(unsafe.Pointer(&rx[len(rx)-1])) {
			t.Fatal("a trace's code lies outside the arena's executable view")
		}
	}
	held := vmTraces(v)[0]

	// collect runs the collector until finalizers have had their turn.
	collect := func() {
		for i := 0; i < 4; i++ {
			runtime.GC()
			done := make(chan struct{})
			runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(done) })
			runtime.GC()
			<-done
		}
	}
	snap, v, w = nil, nil, nil
	collect()
	if mapsLine(t, rw) == "" || mapsLine(t, rx) == "" {
		t.Fatal("the arena was unmapped under a trace that is still held")
	}
	if held.Code()[0] == 0 { // still readable, and still code
		t.Fatal("held trace reads as zeros")
	}
	runtime.KeepAlive(held)
	held = nil
	collect()
	if l := mapsLine(t, rw); l != "" {
		t.Fatalf("writable view still mapped with nothing holding the arena: %s", l)
	}
	if l := mapsLine(t, rx); l != "" {
		t.Fatalf("executable view still mapped with nothing holding the arena: %s", l)
	}
}

// TestArenaSharedByConcurrentCompilers: eight VMs of one snapshot start
// cold at once, so all of them compile into the snapshot's arena — each
// appending its traces while the others run theirs from the same pages
// — publish, reset onto whatever has been published and go again. Every
// stream leaves what tier 1 leaves and every link table stays sound. Run
// under -race.
func TestArenaSharedByConcurrentCompilers(t *testing.T) {
	forSharedSeeds(t, func(t *testing.T, seed int64) {
		want := soakReference(t, seed)
		snap := soakSharedSnapshot(t, seed, eager)
		if !nativeTier2() {
			t.Skip("no tier-2 emitter for this host")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := snap.NewVM()
				for round := 0; round < 3; round++ {
					got, err := soakStream(v)
					if err != nil {
						t.Errorf("vm %d round %d: %v", g, round, err)
						return
					}
					if d := got.diff(want); d != "" {
						t.Errorf("vm %d round %d: %s", g, round, d)
						return
					}
					if _, err := v.CheckLinks(); err != nil {
						t.Errorf("vm %d round %d: %v", g, round, err)
						return
					}
					if v.arena != snap.arena {
						t.Errorf("vm %d compiles into an arena of its own", g)
						return
					}
					snap.AbsorbBlocks(v)
					if err := v.Reset(snap); err != nil {
						t.Errorf("vm %d round %d: %v", g, round, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		checkRecords(t, snap)
		if snap.T2Count() == 0 {
			t.Fatal("nothing was published")
		}
	})
}

// TestFootprintCountsTheArenaOnce: a snapshot's footprint carries the
// code pages of its arena once, not a page per trace: the SnapCache's
// byte budget is spent on what is resident.
func TestFootprintCountsTheArenaOnce(t *testing.T) {
	snap := soakSharedSnapshot(t, 91, eager)
	before := snap.Footprint()
	warmShared(t, snap)
	var code int64
	for _, r := range snap.sbs {
		if r.t2 != nil {
			code += r.t2.MappedBytes()
			if r.t2.MappedBytes() != int64(len(r.t2.Code())) {
				t.Fatal("a trace's share of the arena is not its code length")
			}
		}
	}
	if snap.T2Count() < 2 {
		t.Fatalf("%d traces published, want several", snap.T2Count())
	}
	pages := (code + PageSize - 1) &^ (PageSize - 1)
	if got := snap.CodeBytes(); got < pages || got > pages+PageSize {
		t.Fatalf("%d traces of %d bytes in all occupy %d bytes of arena, want the pages they fill (%d)", snap.T2Count(), code, got, pages)
	}
	var blocks int64
	for _, b := range snap.blocks {
		blocks += blockFootprint(b)
	}
	for _, r := range snap.sbs {
		blocks += blockFootprint(r.b)
	}
	if got, want := snap.Footprint(), before+blocks+snap.CodeBytes(); got != want {
		t.Fatalf("footprint %d, want image %d + blocks %d + code %d", got, before, blocks, snap.CodeBytes())
	}
}

// TestTranslationLedger: superblock formation is clocked (it used to be
// booked as execution with nothing to tell it apart), and the trace
// compiler's time is split into emission and the copy into the arena,
// both inside TranslateNS, whose definition has not moved.
func TestTranslationLedger(t *testing.T) {
	v := soakSharedSnapshot(t, 64, eager).NewVM()
	if _, err := soakStream(v); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.SuperblocksFormed == 0 || st.Tier2Compiled == 0 {
		t.Fatalf("the stream formed %d superblocks and compiled %d traces", st.SuperblocksFormed, st.Tier2Compiled)
	}
	if st.SuperblockNS == 0 || st.Tier2EmitNS == 0 || st.Tier2SealNS == 0 {
		t.Fatalf("unclocked stage: superblocks %d ns, emit %d ns, seal %d ns", st.SuperblockNS, st.Tier2EmitNS, st.Tier2SealNS)
	}
	if st.Tier2EmitNS+st.Tier2SealNS > st.TranslateNS {
		t.Fatalf("emit %d + seal %d ns exceed TranslateNS %d, which contains them", st.Tier2EmitNS, st.Tier2SealNS, st.TranslateNS)
	}
	if st.SuperblockNS > st.ExecuteNS {
		t.Fatalf("superblock formation %d ns exceeds ExecuteNS %d, which still contains it", st.SuperblockNS, st.ExecuteNS)
	}
}
