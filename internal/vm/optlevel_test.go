package vm

import (
	"strings"
	"testing"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// TestOptOverrideSpellings: VXA_OPT is an exact level name or nothing.
// Anything else — a typo, a number, the wrong case, the switches this
// replaced, a retired level — is an error out of vm.New and Deserialize,
// never a silent default.
func TestOptOverrideSpellings(t *testing.T) {
	good := map[string]OptLevel{
		"": OptTier2, "reference": OptReference, "superblocks": OptSuperblocks, "tier2": OptTier2,
	}
	for s, want := range good {
		t.Setenv("VXA_OPT", s)
		if got, err := optOverride(); err != nil || got != want {
			t.Errorf("VXA_OPT=%q: %v, %v; want %v", s, got, err, want)
		}
	}
	for _, l := range OptLevels() {
		if good[l.String()] != l {
			t.Errorf("level %d prints as %q, which does not name it", l, l)
		}
	}
	for _, s := range []string{"default", "eager", "Eager", "eager ", " tier2", "tier-2", "t2", "5", "0", "1", "abc", "closure", "superblock", "off", "hot", "blocks", "optimized"} {
		t.Setenv("VXA_OPT", s)
		if l, err := optOverride(); err == nil {
			t.Errorf("VXA_OPT=%q passed for %v", s, l)
		} else if !strings.Contains(err.Error(), "VXA_OPT") {
			t.Errorf("VXA_OPT=%q: error does not name the variable: %v", s, err)
		}
	}

	// The error reaches whoever makes a VM, unless the Config chose a
	// level itself: then the override is never consulted.
	old := processOpt
	processOpt = optOverride
	defer func() { processOpt = old }()
	for _, s := range []string{"abc", "blocks", "optimized", "eager"} {
		t.Setenv("VXA_OPT", s)
		if _, err := New(Config{}); err == nil {
			t.Errorf("New succeeded under VXA_OPT=%s", s)
		}
	}
	t.Setenv("VXA_OPT", "abc")
	v, err := New(Config{OptLevel: OptSuperblocks})
	if err != nil {
		t.Fatalf("an explicit level under VXA_OPT=abc: %v", err)
	}
	data, err := v.Snapshot().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deserialize(data); err == nil {
		t.Error("Deserialize succeeded under VXA_OPT=abc")
	}
	if _, err := New(Config{OptLevel: OptTier2 + 1}); err == nil {
		t.Error("New accepted a level past the top of the ladder")
	}

	// A snapshot carries its configured level in byte 61; one past the
	// top of the ladder (4, the retired eager level) is refused.
	data[61] = byte(OptTier2 + 1)
	t.Setenv("VXA_OPT", "")
	if _, err := Deserialize(data); err == nil || !strings.Contains(err.Error(), "optimization level 4") {
		t.Errorf("Deserialize of level byte 4: %v", err)
	}
}

// TestCompileOnFirstSuperblockEntry pins the one promotion rule: at the
// default level, a loop's block forms its superblock on its
// sbHotThreshold-th entry and runs it on tier 1 there; the superblock's
// first entry from the dispatcher, the block's next entry, compiles it.
func TestCompileOnFirstSuperblockEntry(t *testing.T) {
	if !nativeTier2() {
		t.Skip("no tier-2 emitter for this host: no level compiles anything")
	}
	withProcessOpt(t, OptTier2)
	// loopVM enters the loop block n times: once by the jmp, n-1 times
	// by the back edge.
	loopVM := func(n int32) Stats {
		t.Helper()
		v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
			u.Label("start")
			u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(n))
			u.Jmp("loop")
			u.Label("loop")
			u.Op2(x86.ADD, x86.R(x86.EAX), x86.R(x86.ECX))
			u.Op1(x86.DEC, x86.R(x86.ECX))
			u.Jcc(x86.CCNE, "loop")
			sysExit(u, 0)
		})
		if st, err := v.Run(); err != nil || st != StatusExit {
			t.Fatalf("%d entries: st=%v err=%v", n, st, err)
		}
		return v.Stats()
	}
	if st := loopVM(sbHotThreshold); st.SuperblocksFormed != 1 || st.Tier2Compiled != 0 {
		t.Errorf("after %d block entries: %d superblocks formed, %d traces compiled; want 1 and 0",
			sbHotThreshold, st.SuperblocksFormed, st.Tier2Compiled)
	}
	if st := loopVM(sbHotThreshold + 1); st.SuperblocksFormed != 1 || st.Tier2Compiled != 1 || st.Tier2Executed == 0 {
		t.Errorf("after %d block entries: %d superblocks formed, %d traces compiled, %d run; want 1, 1 and some",
			sbHotThreshold+1, st.SuperblocksFormed, st.Tier2Compiled, st.Tier2Executed)
	}
}

// TestOverrideIsNeverStored: the process override decides what a VM runs
// at, and nothing else. A snapshot taken, warmed and serialized while the
// override held tier 2 off carries "unset", so a process without the
// override compiles traces on it; the converse holds too; and a level a
// Config chose survives every override.
func TestOverrideIsNeverStored(t *testing.T) {
	if !nativeTier2() {
		t.Skip("no tier-2 emitter for this host: no level compiles anything")
	}
	const seed = 64
	want := soakReference(t, seed)
	// roundTrip warms a snapshot of cfg under the override from, persists
	// it, and runs a stream on a VM the payload yields under the override to.
	roundTrip := func(cfg Config, from, to OptLevel) Stats {
		t.Helper()
		withProcessOpt(t, from)
		snap := soakSharedSnapshot(t, seed, cfg)
		v := snap.NewVM()
		if _, err := soakStream(v); err != nil {
			t.Fatal(err)
		}
		snap.AbsorbBlocks(v)
		data, err := snap.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		withProcessOpt(t, to)
		back, err := Deserialize(data)
		if err != nil {
			t.Fatal(err)
		}
		v = back.NewVM()
		got, err := soakStream(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.diff(want); d != "" {
			t.Fatalf("%v then %v: %s", from, to, d)
		}
		return v.Stats()
	}
	if st := roundTrip(Config{}, OptSuperblocks, OptTier2); st.Tier2Compiled == 0 || st.Tier2Steps == 0 {
		t.Errorf("an artifact written under VXA_OPT=superblocks keeps tier 2 off without it: %d traces compiled, %d steps in them",
			st.Tier2Compiled, st.Tier2Steps)
	}
	if st := roundTrip(Config{}, OptTier2, OptSuperblocks); st.Tier2Compiled != 0 || st.Tier2Steps != 0 {
		t.Errorf("an artifact written without the override runs tier 2 under VXA_OPT=superblocks: %d traces compiled, %d steps in them",
			st.Tier2Compiled, st.Tier2Steps)
	}
	if st := roundTrip(Config{OptLevel: OptSuperblocks}, OptTier2, OptTier2); st.Tier2Compiled != 0 {
		t.Errorf("VXA_OPT=tier2 overrode an explicit OptSuperblocks: %d traces compiled", st.Tier2Compiled)
	}
	if st := roundTrip(tier2Cfg, OptSuperblocks, OptSuperblocks); st.Tier2Compiled == 0 {
		t.Error("VXA_OPT=superblocks overrode an explicit OptTier2")
	}
}
