//go:build amd64 && linux

package tier2

import (
	"os"
	"strings"
	"testing"
	"unsafe"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// execLines counts the executable mappings of the process, and fails the
// test on one that is also writable.
func execLines(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps to read")
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.Contains(f[1], "x") {
			continue
		}
		if strings.Contains(f[1], "w") {
			t.Fatalf("a mapping is writable and executable: %s", line)
		}
		n++
	}
	return n
}

// arenaTrace is a small trace with a memory operand, so a bounds check
// and the exit behind it: "mov eax, [ebx+n]; ud2".
func arenaTrace(n uint32) []uop.Uop {
	return []uop.Uop{
		{Kind: uop.KindLoad, Dst: uint8(x86.EAX), Base: uint8(x86.EBX), Idx: uop.RegZero, Disp: 4 * n, Cost: 1, EIP: 0x1000, Next: 0x1003},
		{Kind: uop.KindUd2, Cost: 1, EIP: 0x1003, Next: 0x1005},
	}
}

// TestArenaOneMappingPerLineage: compiling costs one executable mapping
// for the arena, when its first trace is placed, and none per trace —
// fifty more traces leave the process's executable mappings as they were
// — and the mapping code runs from is not the one it is written through.
func TestArenaOneMappingPerLineage(t *testing.T) {
	a := NewArena(ArenaSize)
	before := execLines(t)
	var traces []*Trace
	compile := func(n uint32) {
		tr, o := Compile(arenaTrace(n), 0x1000, edgeGeometry, a)
		if tr == nil || o.Refused {
			t.Fatalf("trace %d did not compile (refused=%v)", n, o.Refused)
		}
		traces = append(traces, tr)
	}
	compile(0)
	first := execLines(t)
	if first != before+1 {
		t.Fatalf("the first trace of an arena changed the executable mappings from %d to %d, want one more", before, first)
	}
	for n := uint32(1); n <= 50; n++ {
		compile(n)
	}
	if after := execLines(t); after != first {
		t.Fatalf("%d executable mappings after 50 more traces, %d after the first", after, first)
	}

	rw, rx := a.Views()
	lo, hi := uintptr(unsafe.Pointer(&rx[0])), uintptr(unsafe.Pointer(&rx[len(rx)-1]))
	var prevEnd uintptr
	for i, tr := range traces {
		p := tr.EntryAddr()
		if p < lo || p+uintptr(len(tr.Code()))-1 > hi {
			t.Fatalf("trace %d lies outside the executable view", i)
		}
		if p%codeAlign != 0 || p < prevEnd {
			t.Fatalf("trace %d at %#x: misaligned or overlapping the one before (ends %#x)", i, p, prevEnd)
		}
		prevEnd = p + uintptr(len(tr.Code()))
		// The same bytes, seen through the other view.
		off := p - lo
		if string(rw[off:off+uintptr(len(tr.Code()))]) != string(tr.Code()) {
			t.Fatalf("trace %d reads differently through the two views", i)
		}
	}
	if got, want := a.Committed(), int64(prevEnd-lo+pageSize-1)&^(pageSize-1); got != want {
		t.Fatalf("committed %d bytes, want %d", got, want)
	}
}

// TestArenaFull: an arena with no room left refuses the trace — Compile
// returns nil and says why — and keeps serving the traces it has.
func TestArenaFull(t *testing.T) {
	a := NewArena(2 * pageSize)
	var m Machine
	m.Geometry = edgeGeometry
	m.Mem = make([]byte, edgeGeometry.MemLen)
	var last *Trace
	for n := uint32(0); ; n++ {
		tr, o := Compile(arenaTrace(n), 0x1000, edgeGeometry, a)
		if tr == nil {
			if !o.Refused {
				t.Fatalf("trace %d failed to compile for another reason than a full arena", n)
			}
			if n == 0 {
				t.Fatal("the arena refused its first trace")
			}
			break
		}
		if o.Refused {
			t.Fatal("a compiled trace reported as refused")
		}
		last = tr
		if n > 10000 {
			t.Fatal("an 8 KiB arena never filled")
		}
	}
	if a.Committed() > 2*pageSize {
		t.Fatalf("a two-page arena committed %d bytes", a.Committed())
	}
	// An unsupported trace is not the arena's doing.
	if tr, o := Compile([]uop.Uop{{Kind: uop.KindGeneric, Cost: 1}}, 0x1000, edgeGeometry, a); tr != nil || o.Refused {
		t.Fatal("an uncompilable trace was blamed on the arena")
	}
	// The last trace placed still runs: ebx points below the heap, so the
	// load's check fails.
	m.Brk, m.Budget = 8*pageSize, 100
	links := append([]Link(nil), last.Unlinked()...)
	m.Links = &links[0]
	if s := last.Run(&m, 0); s <= 0 || last.Exits[s-1].Kind != ExitResume {
		t.Fatalf("status %d running the last trace placed", s)
	}
}

// TestArenaRefusedByHost: a host that will not give the arena its
// mappings gets no native code, and one answer for good.
func TestArenaRefusedByHost(t *testing.T) {
	a := NewArena(-1) // no memory file can be given a negative length
	for i := 0; i < 2; i++ {
		if tr, o := Compile(arenaTrace(0), 0x1000, edgeGeometry, a); tr != nil || !o.Refused {
			t.Fatalf("attempt %d: trace=%v refused=%v on an arena that cannot be mapped", i, tr != nil, o.Refused)
		}
	}
	if rw, rx := a.Views(); rw != nil || rx != nil {
		t.Fatal("a refused arena holds a mapping")
	}
}
