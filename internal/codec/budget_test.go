package codec_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vm"
)

// decodeGoldenInput runs one codec's archived decoder over its
// roundtrip-golden input in a fresh VM and returns the decoded size and
// the VM's counters.
func decodeGoldenInput(t *testing.T, c *codec.Codec) (int, vm.Stats) {
	t.Helper()
	var enc bytes.Buffer
	if err := c.Encode(&enc, roundTripInput(c)); err != nil {
		t.Fatal(err)
	}
	elf, err := c.DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := codec.RunDecoderELFToStats(context.Background(), c.Name, elf,
		bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out, vm.Config{MemSize: 64 << 20})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return out.Len(), stats
}

// instructionBudget is, per decoder, the most guest instructions it may
// retire per decoded byte over its roundtrip-golden input. The counts
// are exact — the sandbox is deterministic — so this is a gate on code
// quality with no timing noise in it: the VXC compiler (internal/vxcc),
// libvx and the decoder sources are the only things that move it.
//
// stackMachine is what vxcc.Version 2 — the EAX/ECX stack machine, every
// temporary a PUSH/POP, every local a frame slot — retired on the same
// inputs; the ceilings sit a few percent above what Version 3 retires
// and at least 74% below that.
var instructionBudget = map[string]struct{ ceiling, stackMachine float64 }{
	"adpcm":   {47, 183.6},
	"bwt":     {94, 375.8},
	"dct":     {289, 1535.0},
	"deflate": {59, 267.4},
	"haar":    {156, 632.1},
	"lpc":     {138, 569.3},
	"zlib":    {66, 302.4},
}

// TestInstructionBudget fails when a decoder retires more guest
// instructions per decoded byte than its committed ceiling.
func TestInstructionBudget(t *testing.T) {
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		b, ok := instructionBudget[c.Name]
		if !ok {
			t.Errorf("%s: no instruction budget committed", c.Name)
			continue
		}
		n, stats := decodeGoldenInput(t, c)
		got := float64(stats.Steps) / float64(n)
		t.Logf("%-8s %9d instructions / %6d bytes = %7.1f per byte (ceiling %v, stack machine %v)",
			c.Name, stats.Steps, n, got, b.ceiling, b.stackMachine)
		if got > b.ceiling {
			t.Errorf("%s: %.1f guest instructions per decoded byte, budget %v: "+
				"the decoder compiler (or libvx, or the decoder source) got worse", c.Name, got, b.ceiling)
		}
	}
}

// interpreterBudget is, per decoder, the most guest instructions per
// decoded byte that may retire outside compiled traces when every
// superblock is promoted on first entry (VXA_TIER2_HOT=1), over the
// roundtrip-golden input. A code shape the native emitter cannot take — a
// memory-operand or SIB form that makes nativeCompile bail — leaves its
// whole loop on the interpreter and shows here as a multiple of the
// ceiling, not as a wrong answer anywhere.
//
// The gate is the instructions left behind, not their share of the
// total: vxcc.Version 3 retires a quarter of the instructions Version 2
// did, so the same residue is a four times larger share. stackMachine is
// what Version 2's decoders left on the interpreter, stackShare the share
// they reached. Five decoders leave less than they did; lpc leaves more
// (the head of read_rice's unary loop, now expanded into main, is a
// trace the profiler tears down: most codes end at their first bit). On
// share alone every decoder but dct is below Version 2 — ISSUE 14 asked
// for "no lower", and that is not met; see CHANGES.md. What is left on
// the interpreter is not code the emitter refuses (every superblock that
// forms compiles) but blocks whose traces left through a guard on more
// than half their entries eight times over, after which the engine stops
// re-forming them: adpcm's sign, magnitude and clamp branches, haar's
// position-dependent step_at.
var interpreterBudget = map[string]struct{ ceiling, stackMachine, stackShare float64 }{
	"adpcm":   {10.4, 17.48, 0.9048},
	"bwt":     {0.39, 1.40, 0.9963},
	"dct":     {4.9, 45.35, 0.9705},
	"deflate": {0.39, 0.73, 0.9973},
	"haar":    {14.2, 55.52, 0.9122},
	"lpc":     {0.78, 0.58, 0.9990},
	"zlib":    {0.41, 0.77, 0.9974},
}

// TestTier2TakesCompilerOutput holds what every decoder leaves on the
// interpreter under forced promotion against the committed ceiling.
func TestTier2TakesCompilerOutput(t *testing.T) {
	if s := os.Getenv("VXA_NO_TIER2"); s != "" && s != "0" {
		t.Skip("tier 2 is switched off for this run")
	}
	t.Setenv("VXA_TIER2_HOT", "1")
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		b, ok := interpreterBudget[c.Name]
		if !ok {
			t.Errorf("%s: no interpreter budget committed", c.Name)
			continue
		}
		n, stats := decodeGoldenInput(t, c)
		if stats.Tier2Compiled == 0 && stats.Tier2Shared == 0 {
			t.Skip("no compiled tier on this platform")
		}
		left := stats.Steps - stats.Tier2Steps
		got := float64(left) / float64(n)
		t.Logf("%-8s %7d of %8d instructions outside compiled traces = %6.2f per byte (ceiling %v, stack machine %v); share %.4f (stack machine %v)",
			c.Name, left, stats.Steps, got, b.ceiling, b.stackMachine,
			float64(stats.Tier2Steps)/float64(stats.Steps), b.stackShare)
		if got > b.ceiling {
			t.Errorf("%s: %.2f instructions per decoded byte left on the interpreter under forced promotion, budget %v: "+
				"some loop the compiler emits no longer compiles to a trace", c.Name, got, b.ceiling)
		}
	}
}
