package vm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// TestResetRebuildsStaleView: a Reset keeps a VM's translation view only
// while it is still the snapshot's. Each case makes it stale in one of
// the ways it can go stale, and the stream after the Reset must show the
// rebuilt view.
func TestResetRebuildsStaleView(t *testing.T) {
	// A sibling publishes a trace after the view was made: the next Reset
	// installs it.
	t.Run("published", func(t *testing.T) {
		const seed = 64
		want := soakReference(t, seed)
		snap := soakSharedSnapshot(t, seed, tier2Cfg)
		v := snap.NewVM()
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if n := v.Stats().Tier2Shared; n != 0 {
			t.Fatalf("%d traces installed from a snapshot that carries none", n)
		}
		warmShared(t, snap)
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if got, want := v.Stats().Tier2Shared, uint64(snap.T2Count()); got != want {
			t.Fatalf("the Reset after a sibling published installed %d traces, the snapshot carries %d", got, want)
		}
		got, err := soakStream(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.diff(want); d != "" {
			t.Fatal(d)
		}
	})

	// The process level changes between streams: the view built at the
	// old level, traces and all, goes.
	t.Run("level", func(t *testing.T) {
		const seed = 64
		want := soakReference(t, seed)
		withProcessOpt(t, OptTier2)
		snap := soakSharedSnapshot(t, seed, Config{})
		v := snap.NewVM()
		if _, err := soakStream(v); err != nil {
			t.Fatal(err)
		}
		snap.AbsorbBlocks(v)
		if nativeTier2() && len(vmTraces(v)) == 0 {
			t.Fatal("a hot stream left no compiled trace")
		}
		withProcessOpt(t, OptSuperblocks)
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if n := len(vmTraces(v)); n != 0 {
			t.Fatalf("%d traces kept across a Reset that turned the tier off", n)
		}
		st0 := v.Stats()
		got, err := soakStream(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.diff(want); d != "" {
			t.Fatal(d)
		}
		if n := v.Stats().Tier2Executed - st0.Tier2Executed; n != 0 {
			t.Fatalf("%d trace passes with the tier off", n)
		}
	})
}

// staleLimitProgram reads three words per stream, a flag and two
// addresses: with the flag set it first grows the heap to staleTop with
// setperm; then it adds up the word at the first address once and the
// word at the second 3999 times, in a loop hot enough to be compiled, and
// reports done.
func staleLimitProgram(u *asm.Unit) {
	gate := x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1}
	u.DefBSS("arg", 12, 4)
	u.Label("start")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysRead))
	u.Op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EBX))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("arg"))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(12))
	u.Op1(x86.INT, gate)
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.MAbs("arg", 0, 4))
	u.Op2(x86.TEST, x86.R(x86.EAX), x86.R(x86.EAX))
	u.Jcc(x86.CCE, "touch")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(PageSize))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(staleTop-PageSize))
	u.Op1(x86.INT, gate)
	u.Label("touch")
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.MAbs("arg", 4, 4))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.MAbs("arg", 8, 4))
	u.Op2(x86.MOV, x86.R(x86.ESI), x86.I(4000))
	u.Label("loop")
	u.Op2(x86.ADD, x86.R(x86.EDI), x86.M(x86.EBX, 0))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.ECX))
	u.Op1(x86.DEC, x86.R(x86.ESI))
	u.Jcc(x86.CCNE, "loop")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
	u.Op1(x86.INT, gate)
	u.Jmp("start")
}

// staleTop is where staleLimitProgram's setperm ends the heap.
const staleTop = PageSize + 1<<20

// TestResetLowersCompiledHeapLimit: compiled code checks the heap's end
// against limits derived from Brk once per run, so a Reset that lowers
// Brk must not leave it the grown heap's. A stream grows the heap and
// reads its top word from a compiled loop; after a Reset to the snapshot,
// whose heap ends far below, the same loop, entered on a word in bounds,
// reads the old top word again on its second pass, the first its compiled
// code makes, and every level must raise the trap tier 1 raises there:
// kind, EIP and address.
func TestResetLowersCompiledHeapLimit(t *testing.T) {
	args := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	run := func(t *testing.T, level OptLevel) (*Trap, uint64) {
		t.Helper()
		v, _ := buildVM(t, Config{OptLevel: level}, nil, staleLimitProgram)
		snap := v.Snapshot()
		v = snap.NewVM()
		if v.Brk() > staleTop-PageSize {
			t.Fatalf("the program's heap already ends at %#x", v.Brk())
		}
		v.Stdin, v.Stdout = bytes.NewReader(args(1, staleTop-4, staleTop-4)), &bytes.Buffer{}
		if st, err := v.Run(); err != nil || st != StatusDone || v.Brk() != staleTop {
			t.Fatalf("%v: growing stream: st=%v err=%v brk=%#x", level, st, err, v.Brk())
		}
		snap.AbsorbBlocks(v)
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		resumes := v.Stats().Tier2Resumes
		v.Stdin, v.Stdout = bytes.NewReader(args(0, PageSize, staleTop-4)), &bytes.Buffer{}
		_, err := v.Run()
		tr, ok := err.(*Trap)
		if !ok {
			t.Fatalf("%v: the stream after the Reset read the old heap's top: %v", level, err)
		}
		return tr, v.Stats().Tier2Resumes - resumes
	}
	want, _ := run(t, OptSuperblocks)
	if want.Kind != TrapMemory || want.Addr != staleTop-4 {
		t.Fatalf("tier 1: %v, want a read fault at %#x", want, staleTop-4)
	}
	for _, level := range OptLevels() {
		got, resumes := run(t, level)
		if got.Kind != want.Kind || got.EIP != want.EIP || got.Addr != want.Addr {
			t.Fatalf("%v: %v, tier 1 %v", level, got, want)
		}
		if level >= OptTier2 && nativeTier2() && resumes == 0 {
			t.Fatalf("%v: no compiled check turned the read down", level)
		}
	}
}
