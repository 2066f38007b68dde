package codec_test

import (
	"bytes"
	"context"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vm/tier2"
)

// decodeGoldenInput runs one codec's archived decoder over its
// roundtrip-golden input in a fresh VM at the given level and returns the
// decoded size and the VM's counters.
func decodeGoldenInput(t *testing.T, c *codec.Codec, level vm.OptLevel) (int, vm.Stats) {
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
		bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out, vm.Config{MemSize: 64 << 20, OptLevel: level})
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
		n, stats := decodeGoldenInput(t, c, vm.OptDefault)
		got := float64(stats.Steps) / float64(n)
		t.Logf("%-8s %9d instructions / %6d bytes = %7.1f per byte (ceiling %v, stack machine %v)",
			c.Name, stats.Steps, n, got, b.ceiling, b.stackMachine)
		if got > b.ceiling {
			t.Errorf("%s: %.1f guest instructions per decoded byte, budget %v: "+
				"the decoder compiler (or libvx, or the decoder source) got worse", c.Name, got, b.ceiling)
		}
	}
}

// interpreterBudget is, per decoder, what may stay outside compiled
// traces when every superblock is promoted on first entry
// (vm.OptEager), over the roundtrip-golden input: ceiling is the most
// guest instructions per decoded byte, floor the least share of all
// instructions that must retire in traces. A code shape the native
// emitter cannot take — a memory-operand or SIB form that makes
// nativeCompile bail — leaves its whole loop on the interpreter and
// shows here as a multiple of the ceiling, not as a wrong answer
// anywhere.
//
// What stays on the interpreter now is start-up code and the first
// sbHotThreshold entries of every block: a fixed residue, not loops. The
// floors are where the share stood before the engine could be blamed
// for it: for adpcm and haar what vxcc.Version 2's stack-machine
// decoders reached (0.9048, 0.9122) — Version 3 retires a quarter of
// the instructions, the exit-ratio teardown then kept 22% and 9% of
// them on the interpreter, and ISSUE 14's "share no lower than the
// parent" went unmet until the teardown went — and for the other five
// what PR 14 measured under the same forced promotion. The ceilings sit
// a few percent above what is measured.
var interpreterBudget = map[string]struct{ ceiling, floor float64 }{
	"adpcm":   {0.16, 0.9048},
	"bwt":     {0.20, 0.9959},
	"dct":     {0.85, 0.9833},
	"deflate": {0.31, 0.9936},
	"haar":    {0.75, 0.9122},
	"lpc":     {0.22, 0.9945},
	"zlib":    {0.33, 0.9940},
}

// TestTier2TakesCompilerOutput holds what every decoder leaves on the
// interpreter under forced promotion against the committed ceiling, and
// the share it runs compiled against the committed floor.
func TestTier2TakesCompilerOutput(t *testing.T) {
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		b, ok := interpreterBudget[c.Name]
		if !ok {
			t.Errorf("%s: no interpreter budget committed", c.Name)
			continue
		}
		n, stats := decodeGoldenInput(t, c, vm.OptEager)
		if stats.Tier2Compiled == 0 && stats.Tier2Shared == 0 {
			t.Skip("no compiled tier on this platform")
		}
		left := stats.Steps - stats.Tier2Steps
		got := float64(left) / float64(n)
		share := float64(stats.Tier2Steps) / float64(stats.Steps)
		t.Logf("%-8s %7d of %8d instructions outside compiled traces = %6.2f per byte (ceiling %v); share %.4f (floor %v)",
			c.Name, left, stats.Steps, got, b.ceiling, share, b.floor)
		if got > b.ceiling {
			t.Errorf("%s: %.2f instructions per decoded byte left on the interpreter under forced promotion, budget %v: "+
				"some loop the compiler emits no longer compiles to a trace", c.Name, got, b.ceiling)
		}
		if share < b.floor {
			t.Errorf("%s: %.4f of the instructions retire in compiled traces under forced promotion, floor %v",
				c.Name, share, b.floor)
		}
	}
}

// roundTripBudget is, per decoder, the most returns from compiled code
// to the dispatcher (vm.Stats.Tier2Exits) per decoded KiB over the
// roundtrip-golden input, at the default promotion thresholds. Compiled
// traces reach one another through link slots, so what comes back to the
// dispatcher is the syscall gate, the poll quantum, edges whose target
// has not compiled yet and inline-cache misses; a trace shape whose exits
// cannot link — or an engine change that stops linking them — shows here
// as a multiple of the ceiling. unlinked is what the engine made per KiB
// when every exit of every trace returned to the dispatcher (PR 14, on
// the same inputs); the ceilings sit a few percent above what is
// measured and at least ten times below that.
var roundTripBudget = map[string]struct{ ceiling, unlinked float64 }{
	"adpcm":   {10.4, 1558},
	"bwt":     {13.8, 1540},
	"dct":     {76, 5624},
	"deflate": {17.9, 1024},
	"haar":    {156, 2346},
	"lpc":     {10.7, 2927},
	"zlib":    {18.2, 1025},
}

// TestDispatcherRoundTrips holds the dispatcher round trips every decoder
// makes per decoded KiB against the committed ceiling, and requires that
// none of them is a resume: a check that covers several memory operands
// may be stricter than they are, and a trace whose check fails on a
// well-behaved stream would finish every pass on tier 1, quietly.
func TestDispatcherRoundTrips(t *testing.T) {
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		b, ok := roundTripBudget[c.Name]
		if !ok {
			t.Errorf("%s: no round-trip budget committed", c.Name)
			continue
		}
		n, stats := decodeGoldenInput(t, c, vm.OptTier2)
		if stats.Tier2Links == 0 {
			t.Skip("no linking tier on this platform")
		}
		got := float64(stats.Tier2Exits) / (float64(n) / 1024)
		t.Logf("%-8s %5d returns to the dispatcher / %6d bytes = %6.1f per KiB (ceiling %v, unlinked %v); %d exits linked, %.0f instructions per round trip",
			c.Name, stats.Tier2Exits, n, got, b.ceiling, b.unlinked, stats.Tier2Links,
			float64(stats.Tier2Steps)/float64(stats.Tier2Exits))
		if got > b.ceiling {
			t.Errorf("%s: %.1f returns from compiled code to the dispatcher per decoded KiB, budget %v: "+
				"some hot trace exit is not being linked", c.Name, got, b.ceiling)
		}
		if b.ceiling*10 > b.unlinked {
			t.Errorf("%s: ceiling %v is not ten times below the unlinked engine's %v", c.Name, b.ceiling, b.unlinked)
		}
		if stats.Tier2Resumes != 0 {
			t.Errorf("%s: %d trace passes failed a group check and were finished on tier 1; a decode of valid input has none", c.Name, stats.Tier2Resumes)
		}
	}
}

// hostBudget is, per decoder, the most host instructions the native
// emitter may spend per guest instruction, statically: the hot-body
// instructions (trace entry, every micro-op's fall-through path, bounds
// checks included; out-of-line exit paths excluded) of every trace the
// golden decode's superblocks compile to, over the guest instructions
// those traces stand for. Like the budgets above it is an exact count.
// parent is the same count on the emitter before registers were pinned
// and checks coalesced (PR 15's, measured with an instruction counter
// added to its assembler and nothing else changed): every guest register
// access a load or store on the Machine, every memory operand its own
// inline check and fault exit. The ceilings sit a few percent above what
// is measured, and at least 35% below parent. total is the ceiling on
// everything emitted, exit paths included, per guest instruction: a
// second copy of anything — PR 17 emitted every trace twice, 15.3-17.6
// all told — cannot come back under it.
var hostBudget = map[string]struct{ ceiling, parent, total float64 }{
	"adpcm":   {3.35, 12.318, 5.95},
	"bwt":     {3.35, 12.688, 5.70},
	"dct":     {2.95, 11.153, 5.15},
	"deflate": {2.95, 11.729, 4.95},
	"haar":    {2.90, 11.384, 5.05},
	"lpc":     {2.90, 11.385, 5.15},
	"zlib":    {2.95, 11.922, 4.98},
}

// TestHostInstructionsPerGuest holds the emitter's static cost per guest
// instruction against the committed ceilings, and requires that at least
// half of the guest memory operands in those traces emit no bounds check
// of their own.
func TestHostInstructionsPerGuest(t *testing.T) {
	var operands, checks int64
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		b, ok := hostBudget[c.Name]
		if !ok {
			t.Errorf("%s: no host-instruction budget committed", c.Name)
			continue
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc, roundTripInput(c)); err != nil {
			t.Fatal(err)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()), &out, nil, vm.StreamFuel(enc.Len())); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var l tier2.Ledger
		traces := 0
		for _, p := range v.TracePlans() {
			if p.Backend != "native" {
				continue
			}
			l.Add(p.Trace.Ledger, 1)
			traces++
		}
		if traces == 0 {
			t.Skip("no tier-2 emitter on this platform")
		}
		got := float64(l.Hot) / float64(l.Guest)
		total := float64(l.Hot+l.Stub) / float64(l.Guest)
		t.Logf("%-8s %3d traces: %5d host instructions in hot bodies / %4d guest = %6.3f (ceiling %v, parent %v: %+.0f%%); "+
			"%d more in exit paths, all told %6.3f per guest instruction (ceiling %v); %d guest memory operands under %d checks, %d resume exits",
			c.Name, traces, l.Hot, l.Guest, got, b.ceiling, b.parent, 100*(got/b.parent-1), l.Stub, total, b.total, l.Accesses, l.Checks, l.Resumes)
		if total > b.total {
			t.Errorf("%s: %.3f host instructions emitted per guest instruction, hot bodies and exit paths together, budget %v: "+
				"something is being emitted twice, or exit paths have grown", c.Name, total, b.total)
		}
		if got > b.ceiling {
			t.Errorf("%s: %.3f host instructions per guest instruction, budget %v: the native emitter got worse", c.Name, got, b.ceiling)
		}
		if b.ceiling > 0.65*b.parent {
			t.Errorf("%s: ceiling %v is less than 35%% below the parent emitter's %v", c.Name, b.ceiling, b.parent)
		}
		operands, checks = operands+l.Accesses, checks+l.Checks
	}
	if operands > 0 && 2*checks > operands {
		t.Errorf("%d bounds checks for %d guest memory operands: fewer than half ride on another's check", checks, operands)
	}
}
