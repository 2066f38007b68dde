package vm_test

import (
	"runtime"
	"testing"
	"time"

	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// fragments runs d's stream on a fresh VM at the default level and
// returns every fragment it translated, with their guest instruction
// count, and the VM, for Rebuild.
func (d decoderStream) fragments(tb testing.TB) ([]vm.Fragment, int, *vm.VM) {
	tb.Helper()
	v, err := elf32.NewVM(d.elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2})
	if err != nil {
		tb.Fatal(err)
	}
	d.run(tb, v)
	frags := vm.Fragments(v)
	insts := 0
	for _, f := range frags {
		insts += len(f.Code)
	}
	return frags, insts, v
}

// rebuildAll builds every fragment of frags again on v and returns the
// guest instructions decoded.
func rebuildAll(tb testing.TB, v *vm.VM, frags []vm.Fragment) int {
	n := 0
	for _, f := range frags {
		k, err := vm.Rebuild(v, f.Addr)
		if err != nil {
			tb.Fatal(err)
		}
		n += k
	}
	return n
}

// BenchmarkBlockBuild prices block build per guest instruction, over
// every fragment a built-in decoder's stream translates, stage by stage:
// decode (x86.Decode), lower (uop.Lower of the decoded instructions),
// the optimizer's two passes, fuse and elide, each over its own input,
// optimize (uop.Optimize, both passes) and build, the whole of what a
// miss in the fragment cache costs the translator (VM.buildBlock: the
// three stages, the fragment's clock pair and its storage). Each pass and
// optimize copy their input into scratch first, as the translator does.
func BenchmarkBlockBuild(b *testing.B) {
	for _, d := range decoderStreams(b) {
		frags, insts, v := d.fragments(b)
		perInst := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
		}
		b.Run(d.name+"/build", func(b *testing.B) {
			runtime.GC() // the loop starts on a clean heap: collecting what the set-up left is not the build's work
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				rebuildAll(b, v, frags)
			}
			perInst(b)
		})
		decoded := make([][]x86.Inst, len(frags))
		raw := make([][]uop.Uop, len(frags))
		fused := make([][]uop.Uop, len(frags))
		for i, f := range frags {
			decoded[i] = make([]x86.Inst, len(f.Code))
			for k, code := range f.Code {
				if err := x86.Decode(code, &decoded[i][k]); err != nil {
					b.Fatal(err)
				}
				raw[i] = uop.Lower(raw[i], &decoded[i][k], f.EIPs[k])
			}
			fused[i], _ = uop.Fuse(append([]uop.Uop(nil), raw[i]...))
		}
		scratch := make([]uop.Uop, 0, 64)
		b.Run(d.name+"/decode", func(b *testing.B) {
			var inst x86.Inst
			for range b.N {
				for _, f := range frags {
					for _, code := range f.Code {
						if err := x86.Decode(code, &inst); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			perInst(b)
		})
		b.Run(d.name+"/lower", func(b *testing.B) {
			for range b.N {
				for i, f := range frags {
					us := scratch[:0]
					for k := range decoded[i] {
						us = uop.Lower(us, &decoded[i][k], f.EIPs[k])
					}
				}
			}
			perInst(b)
		})
		b.Run(d.name+"/fuse", func(b *testing.B) {
			for range b.N {
				for _, us := range raw {
					uop.Fuse(append(scratch[:0], us...))
				}
			}
			perInst(b)
		})
		b.Run(d.name+"/elide", func(b *testing.B) {
			for range b.N {
				for _, us := range fused {
					uop.ElideDeadFlags(append(scratch[:0], us...))
				}
			}
			perInst(b)
		})
		b.Run(d.name+"/optimize", func(b *testing.B) {
			for range b.N {
				for _, us := range raw {
					uop.Optimize(append(scratch[:0], us...))
				}
			}
			perInst(b)
		})
	}
}

// blockBuildBudgets are the ceilings of TestBlockBuildAllocBudget: heap
// allocations per fragment built, averaged over building every fragment
// of a decoder's stream again, the largest of GOMAXPROCS 1, 2, 4 and 8
// with a tenth of headroom. A fragment allocates nothing of its own: its
// micro-ops and its block are carved from the VM's chunks (as is the
// wrapper a miss in the cache puts around it, which this leaves out), a
// chunk every 8 fragments or so. Measured 0.121-0.164 (Go 1.24); before
// the chunks, 3.0 (the block, a copy of its raw and of its optimized
// micro-ops).
var blockBuildBudgets = map[string]float64{
	"adpcm":   0.18,
	"bwt":     0.14,
	"dct":     0.16,
	"deflate": 0.15,
	"haar":    0.16,
	"lpc":     0.14,
	"zlib":    0.15,
}

// TestBlockBuildAllocBudget holds what building a fragment allocates
// under per-decoder ceilings, and logs its cost per guest instruction.
func TestBlockBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	for _, d := range decoderStreams(t) {
		frags, insts, v := d.fragments(t)
		start := time.Now()
		rebuildAll(t, v, frags)
		ns := float64(time.Since(start).Nanoseconds())
		allocs := testing.AllocsPerRun(20, func() { rebuildAll(t, v, frags) })
		perFrag := allocs / float64(len(frags))
		ceiling, ok := blockBuildBudgets[d.name]
		t.Logf("%-8s %4d fragments of %5d guest instructions: %5.3f allocations per fragment (ceiling %v); one round %4.0f ns per guest instruction",
			d.name, len(frags), insts, perFrag, ceiling, ns/float64(insts))
		if !ok || perFrag > ceiling {
			t.Errorf("%s: %.3f allocations per fragment built, ceiling %v", d.name, perFrag, ceiling)
		}
	}
}
