package codec_test

import (
	"bytes"
	"context"
	"runtime"
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
		bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out, vm.Config{OptLevel: level})
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
// and at least 74% below that. Those of deflate, zlib, bwt and lpc were
// lowered when their bit reader, Huffman decoder and inflate went from
// bit-serial to table-driven (vxcsrc): from 59, 66, 94 and 138; those of
// adpcm, dct and haar when their hot paths became straight-line code (an
// unrolled IDCT, a step per column, an in-place inverse wavelet, masked
// clamps, two samples per ADPCM byte): from 47, 289 and 156.
var instructionBudget = map[string]struct{ ceiling, stackMachine float64 }{
	"adpcm":   {44, 183.6},
	"bwt":     {68.8, 375.8},
	"dct":     {124, 1535.0},
	"deflate": {17.2, 267.4},
	"haar":    {102, 632.1},
	"lpc":     {74, 569.3},
	"zlib":    {25.4, 302.4},
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
// traces at vm.OptTier2, which compiles every superblock on its first
// entry, over the roundtrip-golden input: ceiling is the most
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
// what was measured under the same first-entry promotion. The ceilings sit
// a few percent above what is measured. The table-driven bit reader and
// Huffman decoder added start-up code to bwt and lpc (ceilings 0.20 and
// 0.22 before) and cut deflate's and zlib's instructions by 3.5 and 2.6
// times around an unchanged residue of about 9 500, so their floors sit
// just under the share that leaves (0.9936 and 0.9940 before). The
// straight-line media decoders left less start-up code on the interpreter
// (dct 0.81 and haar 0.71 per byte before, ceilings 0.85 and 0.75), and
// adpcm's loop, two samples an iteration, as much as before.
var interpreterBudget = map[string]struct{ ceiling, floor float64 }{
	"adpcm":   {0.16, 0.9048},
	"bwt":     {0.27, 0.9959},
	"dct":     {0.79, 0.9833},
	"deflate": {0.31, 0.9820},
	"haar":    {0.63, 0.9122},
	"lpc":     {0.23, 0.9945},
	"zlib":    {0.33, 0.9870},
}

// TestTier2TakesCompilerOutput holds what every decoder leaves on the
// interpreter at tier 2 against the committed ceiling, and
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
		n, stats := decodeGoldenInput(t, c, vm.OptTier2)
		if stats.Tier2Compiled == 0 && stats.Tier2Shared == 0 {
			t.Skip("no compiled tier on this platform")
		}
		left := stats.Steps - stats.Tier2Steps
		got := float64(left) / float64(n)
		share := float64(stats.Tier2Steps) / float64(stats.Steps)
		t.Logf("%-8s %7d of %8d instructions outside compiled traces = %6.2f per byte (ceiling %v); share %.4f (floor %v)",
			c.Name, left, stats.Steps, got, b.ceiling, share, b.floor)
		if got > b.ceiling {
			t.Errorf("%s: %.2f instructions per decoded byte left on the interpreter at tier 2, budget %v: "+
				"some loop the compiler emits no longer compiles to a trace", c.Name, got, b.ceiling)
		}
		if share < b.floor {
			t.Errorf("%s: %.4f of the instructions retire in compiled traces at tier 2, floor %v",
				c.Name, share, b.floor)
		}
	}
}

// roundTripBudget is, per decoder, the most returns from compiled code
// to the dispatcher (vm.Stats.Tier2Exits) per decoded KiB over the
// roundtrip-golden input, at the default promotion thresholds. Compiled
// traces reach one another through link slots, and a loop's back edge is
// a direct jump that never leaves its trace, so what comes back to the
// dispatcher is the syscall gate, the poll quantum, edges whose target
// has not compiled yet and inline-cache misses; a trace shape whose exits
// cannot link — or an engine change that stops linking them — shows here
// as a multiple of the ceiling. unlinked is what the engine made per KiB
// when every exit of every trace returned to the dispatcher (PR 14, on
// the same inputs); the ceilings sit a few percent above what is
// measured and at least ten times below that.
//
// passes is the ceiling on trace passes (vm.Stats.Tier2Executed, one per
// pass through a trace's superblock, each iteration of a looping trace
// counted) per decoded byte, the other half of how a program meets the
// engine: a data-dependent branch in a hot loop is a guard, and a byte
// whose work crosses several traces pays an entry and an exit for each. Before the media decoders'
// hot paths became straight-line code, adpcm made 1.951 passes per byte,
// dct 20.625 and haar 7.181, and returned to the dispatcher 8.9, 70.5
// and 147.8 times per KiB (haar's from coeff_varint's two call sites, one
// return inline cache between them).
var roundTripBudget = map[string]struct{ ceiling, unlinked, passes float64 }{
	"adpcm":   {0.75, 1558, 0.26},
	"bwt":     {13.1, 1540, 5.59},
	"dct":     {45.5, 5624, 3.73},
	"deflate": {17.4, 1024, 0.71},
	"haar":    {36, 2346, 4.61},
	"lpc":     {10.3, 2927, 1.88},
	"zlib":    {17.7, 1025, 1.74},
}

// TestDispatcherRoundTrips holds the dispatcher round trips every decoder
// makes per decoded KiB and the trace passes it makes per decoded byte
// against the committed ceilings, and requires that
// none of them is a resume: a check that covers several memory operands
// may be stricter than they are, and a trace whose check fails on a
// well-behaved stream would finish every pass on tier 1, quietly.
func TestDispatcherRoundTrips(t *testing.T) {
	// A decoder whose hot loop is one trace links no exit at all (adpcm),
	// so the platform, not the counters, says whether traces link.
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("no native tier-2 emitter, and no linking, on this platform")
	}
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
		got := float64(stats.Tier2Exits) / (float64(n) / 1024)
		passes := float64(stats.Tier2Executed) / float64(n)
		t.Logf("%-8s %5d returns to the dispatcher / %6d bytes = %6.1f per KiB (ceiling %v, unlinked %v); %d exits linked, %.0f instructions per round trip; %.3f trace passes per byte (ceiling %v)",
			c.Name, stats.Tier2Exits, n, got, b.ceiling, b.unlinked, stats.Tier2Links,
			float64(stats.Tier2Steps)/float64(stats.Tier2Exits), passes, b.passes)
		if passes > b.passes {
			t.Errorf("%s: %.3f trace passes per decoded byte, budget %v: a hot loop's work is split across more traces",
				c.Name, passes, b.passes)
		}
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
// instructions (trace entry, every micro-op's fall-through path, the
// mainline test of every bounds check included; out-of-line exit paths
// and check fallbacks excluded) of every trace the golden decode's
// superblocks compile to, over the guest instructions those traces stand
// for, each trace weighted by the passes the decode runs of it. Like the
// budgets above it is an exact count. parent is the same count, at weight
// 1, on the emitter before registers were pinned and checks coalesced
// (PR 15's, measured with an instruction counter added to its assembler
// and nothing else changed): every guest register access a load or store
// on the Machine, every memory operand its own inline check and fault
// exit; the ceilings stay at least 35% below it. total is the ceiling on
// everything emitted, exit paths included, per guest instruction, at the
// same weights: a second copy of anything — PR 17 emitted every trace
// twice, 15.3-17.6 all told — cannot come back under it.
//
// The weights are new with the shared exit code. Until then every trace
// counted once, so the figures moved with which small loops happened to
// become traces (haar's hot bodies read 1.84 against a 1.70 ceiling as
// soon as the imagec rewrite dropped nine clamp traces at 1.4, though the
// decode retired fewer instructions). The ceilings were re-measured once
// for the new instrument, 2.5% above the measurement: weighted, the hot
// bodies read adpcm 1.300, bwt 2.392, dct 1.562, deflate 1.690, haar
// 1.783, lpc 1.487, zlib 1.933, and everything emitted 2.188, 5.501,
// 3.094, 4.066, 3.996, 3.422, 4.709. The parent of the shared exit code
// read, at the same weights, 1.300, 2.414, 1.570, 1.717, 1.802, 1.501,
// 1.959 in the hot bodies (which the shared code shortens only by the
// terminators' return stubs) and 2.353, 6.059, 3.342, 4.532, 4.390,
// 3.777, 5.200 all told. The weight-1 figures are logged beside them.
var hostBudget = map[string]struct{ ceiling, parent, total float64 }{
	"adpcm":   {1.34, 12.318, 2.25},
	"bwt":     {2.46, 12.688, 5.64},
	"dct":     {1.61, 11.153, 3.18},
	"deflate": {1.74, 11.729, 4.17},
	"haar":    {1.83, 11.384, 4.10},
	"lpc":     {1.53, 11.385, 3.51},
	"zlib":    {1.99, 11.922, 4.83},
}

// TestHostInstructionsPerGuest holds the emitter's static cost per guest
// instruction against the committed ceilings, each trace weighted by the
// passes the golden decode runs of it, logs the same figures with every
// trace at weight 1 and what of the hot bodies is bounds checks, and
// requires that at least half of the guest memory operands in those
// traces emit no bounds check of their own.
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
		passes := v.CountTracePasses()
		var out bytes.Buffer
		if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()), &out, nil, vm.StreamFuel(enc.Len())); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var l tier2.Ledger
		var guest, hot, all float64 // weighted by passes
		traces := 0
		for _, p := range v.TracePlans() {
			if p.Backend != "native" {
				continue
			}
			tl := p.Trace.Ledger
			l.Add(tl, 1)
			w := float64(passes[p.Entry])
			guest, hot, all = guest+w*float64(tl.Guest), hot+w*float64(tl.Hot), all+w*float64(tl.Hot+tl.Stub)
			traces++
		}
		if traces == 0 {
			t.Skip("no tier-2 emitter on this platform")
		}
		got, total := hot/guest, all/guest
		t.Logf("%-8s %3d traces, weighted by their passes: %6.3f host instructions in hot bodies per guest instruction (ceiling %v, parent %v: %+.0f%%), "+
			"all told %6.3f (ceiling %v); at weight 1: %5d in hot bodies / %4d guest = %6.3f, %d more in exit paths, all told %6.3f; "+
			"%d guest memory operands under %d checks of %d hot-body instructions, %.3f per guest instruction; %d resume exits; %d direct loop edges, %d checks ahead of the loop label",
			c.Name, traces, got, b.ceiling, b.parent, 100*(got/b.parent-1), total, b.total,
			l.Hot, l.Guest, float64(l.Hot)/float64(l.Guest), l.Stub, float64(l.Hot+l.Stub)/float64(l.Guest), l.Accesses, l.Checks,
			l.CheckHot, float64(l.CheckHot)/float64(l.Guest), l.Resumes, l.Loops, l.Hoisted)
		if total > b.total {
			t.Errorf("%s: %.3f host instructions emitted per guest instruction, hot bodies and exit paths together, weighted by passes, budget %v: "+
				"something is being emitted twice, or exit paths have grown", c.Name, total, b.total)
		}
		if got > b.ceiling {
			t.Errorf("%s: %.3f host instructions per guest instruction, weighted by passes, budget %v: the native emitter got worse", c.Name, got, b.ceiling)
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
