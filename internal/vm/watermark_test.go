package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"testing"
)

// TestMain checks the watermark contract at every setperm the package's
// tests make: nothing above brk has been written since the address space
// was last zeroed, so setperm can expose it as it is.
func TestMain(m *testing.M) {
	setPermHook = func(v *VM) {
		if v.dirtyBrk > v.m.Brk {
			panic(fmt.Sprintf("vm: setperm on a VM whose dirtyBrk %#x is above its brk %#x", v.dirtyBrk, v.m.Brk))
		}
	}
	os.Exit(m.Run())
}

// TestResetDropsGrownHeap: the heap a stream grew past the snapshot's brk
// goes back to the kernel at Reset. The host reads it as zero, none of
// its whole pages is resident (the witness that they were dropped, not
// cleared), the watermark is back at or below brk, and the next stream
// that grows the heap over the same range reads zeros — at every level,
// and on an address space that is plain heap memory, where dropping is
// clearing.
func TestResetDropsGrownHeap(t *testing.T) {
	const grow = 4 << 20
	type leg struct {
		name  string
		level OptLevel
		heap  bool
	}
	legs := []leg{{"heap", OptTier2, true}, {eagerLeg, OptTier2, false}}
	for _, level := range tier2Legs {
		legs = append(legs, leg{level.String(), level, false})
	}
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			v, _ := buildVM(t, Config{OptLevel: l.level}, nil, pokeProgram)
			snap := v.Snapshot()
			if l.heap {
				size := uint32(len(v.mem))
				v = &VM{mem: make([]byte, size), memOwner: &guestMem{}, dirtyBrk: PageSize, stackLow: size}
				snap.restore(v)
			}
			lo, hi := snap.brk, snap.brk+grow
			first := (lo + PageSize - 1) &^ (PageSize - 1) // the first whole page grown
			end := (hi + PageSize - 1) &^ (PageSize - 1)
			for round := 0; round < 3; round++ {
				// Grow the heap, read back its first byte, its first whole
				// page and its last page, then leave sentinels in all three.
				var in []byte
				for _, c := range [][3]uint32{
					{1, lo, grow}, {2, lo, 1}, {2, first, PageSize}, {2, hi - PageSize, PageSize},
					{0, lo, 0xA5}, {0, first, 0xA5}, {0, hi - 1, 0xA5},
				} {
					for _, x := range c {
						in = binary.LittleEndian.AppendUint32(in, x)
					}
				}
				v.Stdin = bytes.NewReader(in)
				if out := runStream(t, v); len(out) != 1+2*PageSize || !allZero(out) {
					t.Fatalf("round %d: the grown heap read %d bytes, %d of them non-zero", round, len(out), len(out)-bytes.Count(out, []byte{0}))
				}
				if v.mem[lo] != 0xA5 || v.mem[first] != 0xA5 || v.mem[hi-1] != 0xA5 {
					t.Fatalf("round %d: the sentinels are not in guest memory", round)
				}

				if err := v.Reset(snap); err != nil {
					t.Fatal(err)
				}
				if v.m.Brk != snap.brk || v.dirtyBrk > v.m.Brk {
					t.Fatalf("round %d: after Reset brk %#x, dirtyBrk %#x; want brk %#x and dirtyBrk at or below it", round, v.m.Brk, v.dirtyBrk, snap.brk)
				}
				// Residency first: reading the range maps pages in.
				if !l.heap {
					if n, ok := resident(v.mem[first:end]); ok && n != 0 {
						t.Fatalf("round %d: %d of the %d whole pages grown are still resident after Reset", round, n, (end-first)/PageSize)
					}
				}
				if !allZero(v.mem[lo:end]) {
					t.Fatalf("round %d: the grown heap is not zero after Reset", round)
				}
			}
		})
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
