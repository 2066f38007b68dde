package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vxa/internal/vm/tier2"
)

// The wall for snapshot-owned tier-2 traces: a native trace is compiled
// once, published on the snapshot and run by every VM of it. Every test
// here forces the tier hot, so each superblock the soak program forms is
// compiled on its first entry and the comparisons cover compiled code.

// sharedSeeds are soak programs whose hot paths the native backend
// compiles (many seeds draw an ADC or SBB into every superblock, which
// it leaves to tier-1); 64 and 91 publish more than one trace.
var sharedSeeds = []int64{64, 91, 69}

// eager is the configuration these tests force: every superblock
// compiled on its first entry.
var eager = Config{OptLevel: OptEager}

// withProcessOpt makes level the process-wide default (what VXA_OPT
// would have set) until the test ends.
func withProcessOpt(t *testing.T, level OptLevel) {
	t.Helper()
	old := processOpt
	processOpt = func() (OptLevel, error) { return level, nil }
	t.Cleanup(func() { processOpt = old })
}

// vmTraces returns the compiled traces a VM holds.
func vmTraces(v *VM) []*tier2.Trace {
	var ts []*tier2.Trace
	for _, br := range v.blocks {
		if sb := br.sb; sb != nil && sb.t2 != nil {
			ts = append(ts, sb.t2)
		}
	}
	return ts
}

// forSharedSeeds runs f on each of sharedSeeds.
func forSharedSeeds(t *testing.T, f func(t *testing.T, seed int64)) {
	for _, seed := range sharedSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { f(t, seed) })
	}
}

// soakSharedSnapshot snapshots a random soak program at its start state.
// Unlike soakVM it maps the code read-only (the jump table, scratch page
// and checkpoint trace stay writable), so blocks, superblocks and traces
// are absorbable, and it seeds registers before the capture, so Reset
// and NewVM rewind to a runnable stream.
func soakSharedSnapshot(t *testing.T, seed int64, cfg Config) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	image := make([]byte, soakSpan)
	soakBuildProgram(t, rng, image)
	if cfg.MemSize == 0 {
		cfg.MemSize = 4 << 20
	}
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const code = soakTable - soakCode
	if err := v.MapSegment(soakCode, image[:code], code, true); err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(soakTable, image[code:], soakSpan-code, false); err != nil {
		t.Fatal(err)
	}
	soakSeedRegs(rng, v)
	v.eip = soakBlockAddr(0)
	return v.Snapshot()
}

// soakOutcome is everything one soak stream leaves behind that a guest
// or a caller can observe.
type soakOutcome struct {
	kind               TrapKind
	eip, addr          uint32
	regs               [8]uint32
	cf, zf, sf, of, pf bool
	steps              uint64
	mem                []byte
}

// soakStream runs v from its current (start) state to the program's
// trapping exit.
func soakStream(v *VM) (soakOutcome, error) {
	steps0 := v.stats.Steps
	_, err := v.Run()
	v.materializeFlags()
	tr, ok := err.(*Trap)
	if !ok {
		return soakOutcome{}, fmt.Errorf("soak stream did not trap: %v", err)
	}
	return soakOutcome{
		kind: tr.Kind, eip: tr.EIP, addr: tr.Addr,
		regs: [8]uint32(v.m.Regs[:8]),
		cf:   v.m.CF, zf: v.m.ZF, sf: v.m.SF, of: v.m.OF, pf: v.m.PF,
		steps: v.stats.Steps - steps0,
		mem:   append([]byte(nil), v.mem[soakCode:soakCode+soakSpan]...),
	}, nil
}

func (o soakOutcome) diff(want soakOutcome) string {
	switch {
	case o.kind != want.kind || o.eip != want.eip || o.addr != want.addr:
		return fmt.Sprintf("trap kind=%v eip=%#x addr=%#x, want kind=%v eip=%#x addr=%#x",
			o.kind, o.eip, o.addr, want.kind, want.eip, want.addr)
	case o.regs != want.regs:
		return fmt.Sprintf("registers %x, want %x", o.regs, want.regs)
	case o.cf != want.cf || o.zf != want.zf || o.sf != want.sf || o.of != want.of || o.pf != want.pf:
		return "flags differ"
	case o.steps != want.steps:
		return fmt.Sprintf("steps %d, want %d", o.steps, want.steps)
	case !bytes.Equal(o.mem, want.mem):
		return "guest memory differs"
	}
	return ""
}

// soakReference is the stream's outcome with the tier off.
func soakReference(t *testing.T, seed int64) soakOutcome {
	t.Helper()
	want, err := soakStream(soakSharedSnapshot(t, seed, Config{OptLevel: OptSuperblocks}).NewVM())
	if err != nil {
		t.Fatal(err)
	}
	if want.eip != soakExit {
		t.Fatalf("reference stream trapped at %#x, not the exit block", want.eip)
	}
	return want
}

// warmShared runs one stream on a fresh VM of snap and publishes what it
// compiled. It skips the test on platforms with no emitter to compile
// with, and returns the VM.
func warmShared(t *testing.T, snap *Snapshot) *VM {
	t.Helper()
	v := snap.NewVM()
	if _, err := soakStream(v); err != nil {
		t.Fatal(err)
	}
	if len(vmTraces(v)) == 0 {
		if nativeTier2() {
			t.Fatal("a hot stream left no compiled trace")
		}
		t.Skip("no tier-2 emitter for this host: nothing can be shared")
	}
	snap.AbsorbBlocks(v)
	if snap.T2Count() == 0 {
		t.Fatal("a hot stream published no trace")
	}
	return v
}

// checkRecords asserts the invariant publication rests on: a record's
// trace is the code its own fragment compiles to, for the snapshot's
// geometry.
func checkRecords(t *testing.T, s *Snapshot) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for addr, r := range s.sbs {
		if r.t2 == nil {
			continue
		}
		if r.t2.Geom != s.geometry() {
			t.Errorf("record %#x: published trace geometry=%+v", addr, r.t2.Geom)
		}
		again, _ := tier2.Compile(r.b.uops, r.b.uops[0].EIP, s.geometry(), s.arena)
		if again == nil || !bytes.Equal(again.Code(), r.t2.Code()) {
			t.Errorf("record %#x: published trace is not what its fragment compiles to", addr)
		}
	}
}

// TestSharedTracePositionIndependent: compiled code holds no address of
// the VM it was compiled through. Compiling one superblock twice gives
// the same bytes, and traces compiled by VM A, installed in VM B, leave
// exactly what the tier-1 engine leaves.
func TestSharedTracePositionIndependent(t *testing.T) {
	forSharedSeeds(t, testSharedTracePositionIndependent)
}

func testSharedTracePositionIndependent(t *testing.T, seed int64) {
	want := soakReference(t, seed)
	snap := soakSharedSnapshot(t, seed, eager)
	a := warmShared(t, snap)

	b := snap.NewVM()
	if &a.mem[0] == &b.mem[0] {
		t.Fatal("two VMs share guest memory")
	}
	compared := 0
	for _, br := range a.blocks {
		sb := br.sb
		if sb == nil || sb.t2 == nil {
			continue
		}
		tb, _ := tier2.Compile(sb.b.uops, sb.b.uops[0].EIP, b.m.Geometry, b.arena)
		if tb == nil || len(tb.Code()) == 0 || !bytes.Equal(tb.Code(), sb.t2.Code()) {
			t.Fatalf("superblock %#x compiles to different code against another machine", sb.b.uops[0].EIP)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no trace to compare")
	}

	if got, want := b.Stats().Tier2Shared, uint64(snap.T2Count()); got != want {
		t.Fatalf("NewVM installed %d traces, snapshot carries %d", got, want)
	}
	for addr, br := range b.blocks {
		if sb := br.sb; sb != nil && sb.t2 != nil {
			if !sb.t2Shared || sb.t2 != snap.sbs[addr].t2 {
				t.Fatalf("superblock %#x: trace is not the snapshot's", addr)
			}
		}
	}
	got, err := soakStream(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.diff(want); d != "" {
		t.Fatalf("stream on installed traces: %s", d)
	}
	if st := b.Stats(); st.Tier2Executed == 0 {
		t.Fatal("the installed traces never ran")
	}
	checkRecords(t, snap)
}

// TestSharedTraceConcurrent: eight VMs of one snapshot run the same
// published code at once, publish what they compile themselves and reset
// onto the result, several rounds each. Every stream must leave what the
// tier-1 engine leaves. Run under -race, this is also the check that
// publication and installation are ordered.
func TestSharedTraceConcurrent(t *testing.T) {
	forSharedSeeds(t, testSharedTraceConcurrent)
}

func testSharedTraceConcurrent(t *testing.T, seed int64) {
	want := soakReference(t, seed)
	snap := soakSharedSnapshot(t, seed, eager)
	warmShared(t, snap)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := snap.NewVM()
			for round := 0; round < 4; round++ {
				got, err := soakStream(v)
				if err != nil {
					t.Errorf("vm %d round %d: %v", g, round, err)
					return
				}
				if d := got.diff(want); d != "" {
					t.Errorf("vm %d round %d: %s", g, round, d)
					return
				}
				snap.AbsorbBlocks(v)
				if err := v.Reset(snap); err != nil {
					t.Errorf("vm %d round %d: %v", g, round, err)
					return
				}
			}
			if v.Stats().Tier2Shared == 0 {
				t.Errorf("vm %d never had a trace installed", g)
			}
		}(g)
	}
	wg.Wait()
	checkRecords(t, snap)
}

// TestSharedTraceResetDeterminism: what a stream leaves does not depend
// on how the VM came by its code — fresh and compiling, or reset 1, 5 or
// 50 times onto installed traces.
func TestSharedTraceResetDeterminism(t *testing.T) {
	forSharedSeeds(t, testSharedTraceResetDeterminism)
}

func testSharedTraceResetDeterminism(t *testing.T, seed int64) {
	want := soakReference(t, seed)
	snap := soakSharedSnapshot(t, seed, eager)
	v := warmShared(t, snap)
	for resets := 1; resets <= 50; resets++ {
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		got, err := soakStream(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.diff(want); d != "" {
			t.Fatalf("after %d resets: %s", resets, d)
		}
		snap.AbsorbBlocks(v)
	}
	if v.Stats().Tier2Shared == 0 {
		t.Fatal("no reset installed a trace")
	}
}

// TestSharedTraceNeverInstalledWithTierOff: VXA_OPT describes the running
// process, so a snapshot that configures no level keeps its published
// traces out of every VM materialized while the override is below tier 2.
func TestSharedTraceNeverInstalledWithTierOff(t *testing.T) {
	const seed = 64
	want := soakReference(t, seed)
	withProcessOpt(t, OptEager)
	snap := soakSharedSnapshot(t, seed, Config{})
	warmShared(t, snap)

	withProcessOpt(t, OptSuperblocks)
	v := snap.NewVM()
	for addr, br := range v.blocks {
		if br.sb != nil && br.sb.t2 != nil {
			t.Fatalf("superblock %#x has a trace with the tier off", addr)
		}
	}
	got, err := soakStream(v)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.diff(want); d != "" {
		t.Fatal(d)
	}
	if st := v.Stats(); st.Tier2Shared != 0 || st.Tier2Executed != 0 || st.Tier2Compiled != 0 {
		t.Fatalf("tier off, yet shared=%d executed=%d compiled=%d", st.Tier2Shared, st.Tier2Executed, st.Tier2Compiled)
	}
}

// TestImportRefusesTraceAcrossGeometry: a trace's bounds checks are
// compiled for one sandbox geometry. A snapshot of another geometry
// imports the superblocks and leaves the traces behind; one of the same
// geometry takes both.
func TestImportRefusesTraceAcrossGeometry(t *testing.T) {
	const seed = 91
	want := soakReference(t, seed)
	snap := soakSharedSnapshot(t, seed, eager)
	warmShared(t, snap)

	other := soakSharedSnapshot(t, seed, Config{MemSize: 8 << 20, OptLevel: OptEager})
	if other.ImportBlocks(snap.ExportBlocks()) == 0 || other.SBCount() == 0 {
		t.Fatal("nothing imported across geometries; the superblocks are still valid")
	}
	if n := other.T2Count(); n != 0 {
		t.Fatalf("%d traces imported across geometries", n)
	}

	same := soakSharedSnapshot(t, seed, eager)
	same.ImportBlocks(snap.ExportBlocks())
	if got, want := same.T2Count(), snap.T2Count(); got != want {
		t.Fatalf("same geometry: imported %d of %d traces", got, want)
	}
	for addr, r := range same.sbs {
		if r == snap.sbs[addr] {
			t.Fatalf("record %#x is shared between snapshots, not copied", addr)
		}
	}
	v := same.NewVM()
	got, err := soakStream(v)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.diff(want); d != "" {
		t.Fatalf("stream on imported traces: %s", d)
	}
	if v.Stats().Tier2Shared == 0 {
		t.Fatal("imported traces were not installed")
	}
}
