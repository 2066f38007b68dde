//go:build amd64 && linux

package vm_test

import (
	"testing"
	"time"

	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// compileRounds is how many rounds of a decoder's superblocks
// BenchmarkTraceCompile and TestTraceCompileAllocBudget compile into one
// arena before they take a fresh one, so that an arena's first mapping is
// paid as often as a decoder's first stream pays it per round.
const compileRounds = 50

// superblocks runs d's stream at OptSuperblocks, which forms superblocks
// and compiles none, absorbs them into the VM's snapshot and returns them
// with the geometry they compile for.
func (d decoderStream) superblocks(tb testing.TB) ([][]uop.Uop, tier2.Geometry) {
	tb.Helper()
	v, err := elf32.NewVM(d.elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptSuperblocks})
	if err != nil {
		tb.Fatal(err)
	}
	snap := v.Snapshot()
	d.run(tb, v)
	snap.AbsorbBlocks(v)
	sbs, g := vm.Superblocks(snap)
	if len(sbs) == 0 {
		tb.Fatalf("%s formed no superblock", d.name)
	}
	return sbs, g
}

// compileAll compiles every superblock of sbs into a, and returns the
// traces' exits and the host instructions of their exit paths. It fails
// at a trace the arena refuses: the rounds must fit one arena.
func compileAll(tb testing.TB, sbs [][]uop.Uop, g tier2.Geometry, a *tier2.Arena) (exits, stub int) {
	for _, us := range sbs {
		t, o := tier2.Compile(us, us[0].EIP, g, a)
		if o.Refused {
			tb.Fatalf("the arena refused a trace of %d micro-ops", len(us))
		}
		if t != nil {
			exits += len(t.Exits)
			stub += int(t.Ledger.Stub)
		}
	}
	return exits, stub
}

// BenchmarkTraceCompile compiles every superblock a built-in decoder's
// stream forms, as the first VM to run each of them hot would, into a
// fresh arena every compileRounds rounds. It reports the compile's cost
// per micro-op handed to it (vm.Stats.UopsCompiled counts the same) and
// the host instructions of the exit paths per exit of what it compiled.
func BenchmarkTraceCompile(b *testing.B) {
	for _, d := range decoderStreams(b) {
		b.Run(d.name, func(b *testing.B) {
			sbs, g := d.superblocks(b)
			uops := 0
			for _, us := range sbs {
				uops += len(us)
			}
			var a *tier2.Arena
			exits, stub := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if i%compileRounds == 0 {
					a = tier2.NewArena(tier2.ArenaSize)
				}
				exits, stub = compileAll(b, sbs, g, a)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*uops), "ns/uop")
			b.ReportMetric(float64(stub)/float64(max(exits, 1)), "exit-insts/exit")
		})
	}
}

// traceCompileBudgets are the ceilings of TestTraceCompileAllocBudget:
// heap allocations per compiled trace, averaged over compiling every
// superblock a decoder's stream forms into an arena that already holds
// code, the largest of GOMAXPROCS 1, 2, 4 and 8 with a tenth of headroom.
// A compile allocates the Trace and nothing else of its own; its exit
// table, unlinked slots and hoisted checks come out of the arena's
// chunks, a chunk every few dozen traces. Measured 1.00-1.05 (Go 1.24);
// before the emitter kept its out-of-line paths as data instead of
// closures and carved the trace's tables from chunks, 10.4 (bwt) to 21.0
// (adpcm's one trace).
var traceCompileBudgets = map[string]float64{
	"adpcm":   1.1,
	"bwt":     1.15,
	"dct":     1.15,
	"deflate": 1.15,
	"haar":    1.15,
	"lpc":     1.1,
	"zlib":    1.15,
}

// TestTraceCompileAllocBudget holds what the trace compiler allocates per
// trace under per-decoder ceilings, and logs its cost per micro-op.
func TestTraceCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	for _, d := range decoderStreams(t) {
		sbs, g := d.superblocks(t)
		uops := 0
		for _, us := range sbs {
			uops += len(us)
		}
		// compileRounds rounds in all, into one arena: the first maps it.
		a := tier2.NewArena(tier2.ArenaSize)
		start := time.Now()
		compileAll(t, sbs, g, a)
		ns := float64(time.Since(start).Nanoseconds())
		allocs := testing.AllocsPerRun(compileRounds-2, func() { compileAll(t, sbs, g, a) })
		perTrace := allocs / float64(len(sbs))
		ceiling, ok := traceCompileBudgets[d.name]
		t.Logf("%-8s %3d superblocks of %5d micro-ops: %5.2f allocations per trace (ceiling %v); the first round, mapping the arena, %4.0f ns per micro-op",
			d.name, len(sbs), uops, perTrace, ceiling, ns/float64(uops))
		if !ok || perTrace > ceiling {
			t.Errorf("%s: %.2f allocations per compiled trace, ceiling %v", d.name, perTrace, ceiling)
		}
	}
}
