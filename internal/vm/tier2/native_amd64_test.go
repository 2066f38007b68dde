//go:build amd64 && linux

package tier2

import (
	"fmt"
	"testing"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// edgeGeometry is a small sandbox with every boundary on its own page:
// guard page, read-only text up to page 3, a heap whose end the cases
// move, a stack from page 12 to the end at page 16.
var edgeGeometry = Geometry{MemLen: 16 * pageSize, ROLimit: 3 * pageSize, StackBase: 12 * pageSize}

// edgeArena holds every test trace.
var edgeArena = NewArena(ArenaSize)

// edgeAccess is one guest memory operand of a test trace.
type edgeAccess struct {
	size  uint32
	write bool
	disp  uint32
}

// edgeTrace compiles "access...; ud2" with every access at
// [base+idx*scale+disp].
func edgeTrace(t *testing.T, m *Machine, base, idx, scale uint8, accs []edgeAccess) *Trace {
	t.Helper()
	var us []uop.Uop
	for i, ac := range accs {
		u := uop.Uop{Dst: uint8(x86.EAX), Src: uint8(x86.EDX), Base: base, Idx: idx, Scale: scale,
			Disp: ac.disp, Cost: 1, EIP: 0x1000 + uint32(i), Next: 0x1001 + uint32(i)}
		switch {
		case ac.write && ac.size == 4:
			u.Kind = uop.KindStore
		case ac.write:
			u.Kind = uop.KindStore8
		case ac.size == 4:
			u.Kind = uop.KindLoad
		case ac.size == 2:
			u.Kind = uop.KindMovzxRM16
		default:
			u.Kind = uop.KindMovzxRM8
		}
		us = append(us, u)
	}
	us = append(us, uop.Uop{Kind: uop.KindUd2, Cost: 1, EIP: 0x1100, Next: 0x1102})
	tr, _ := Compile(us, 0x1000, m.Geometry, edgeArena)
	if tr == nil {
		t.Fatal("test trace did not compile")
	}
	return tr
}

// TestGeometryEdges runs native traces of one, two and three accesses off
// one address at every edge of the sandbox and compares what each run
// does — which access faults, at which address, with what left of the
// budget — with Geometry.ReadOK/WriteOK applied access by access: the
// emitted checks, coalesced (spans of 8, 64 and a whole page) or in
// place, agree with the one definition everywhere, on all three operand
// shapes and for a heap end that is and is not page-aligned.
func TestGeometryEdges(t *testing.T) {
	g := edgeGeometry
	m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g}
	type shape struct {
		name             string
		base, idx, scale uint8
		d0               uint32 // the displacement of the span's first access
		// set points the shape's registers at address a.
		set func(m *Machine, a uint32)
	}
	shapes := []shape{
		{"one register", uint8(x86.EBX), uop.RegZero, 0, 0, func(m *Machine, a uint32) { m.Regs[x86.EBX] = a }},
		// The guest's sum wraps for every address below the displacement;
		// the host's 64-bit one does not, and must not be believed.
		{"one register, sum wraps", uint8(x86.EBX), uop.RegZero, 0, 0x9000, func(m *Machine, a uint32) { m.Regs[x86.EBX] = a - 0x9000 }},
		{"scaled index", uop.RegZero, uint8(x86.ESI), 4, 3, func(m *Machine, a uint32) { m.Regs[x86.ESI] = (a - 3) / 4 }},
		{"scaled index, product wraps", uop.RegZero, uint8(x86.ESI), 4, 3, func(m *Machine, a uint32) { m.Regs[x86.ESI] = (a-3)/4 | 0x40000000 }},
		{"two registers", uint8(x86.EBP), uint8(x86.EDI), 2, 0, func(m *Machine, a uint32) {
			m.Regs[x86.EDI] = 0x7FFF1234
			m.Regs[x86.EBP] = a - 2*0x7FFF1234
		}},
	}
	runs, faults := 0, 0
	for _, sh := range shapes {
		for _, size := range []uint32{1, 2, 4} {
			for _, span := range []uint32{size, 8, 64, pageSize} {
				for _, write := range []bool{false, true} {
					if write && size == 2 {
						continue // no 16-bit store micro-op
					}
					d0 := sh.d0
					// First, last and (for the wide spans) a middle access
					// of the span; reads, and one write if asked.
					accs := []edgeAccess{{size, false, d0}}
					if span > size {
						accs = append(accs, edgeAccess{size, write, d0 + span - size})
					} else {
						accs[0].write = write
					}
					if span >= 64 {
						accs = append(accs, edgeAccess{size, false, d0 + span/2})
					}
					tr := edgeTrace(t, m, sh.base, sh.idx, sh.scale, accs)
					links := append([]Link(nil), tr.Unlinked()...)
					m.Links = &links[0]
					for _, brk := range []uint32{8 * pageSize, 8*pageSize + 5, 3 * pageSize, pageSize} {
						m.Brk = brk
						for _, edge := range []uint64{0, pageSize, uint64(g.ROLimit), uint64(brk), uint64(g.StackBase), uint64(g.MemLen), 1 << 31, 1 << 32} {
							for _, delta := range []int64{-int64(span) - 1, -int64(span), -int64(span) + 1, -int64(size) - 1, -int64(size), -int64(size) + 1, -1, 0, 1} {
								a := uint32(int64(edge) + delta)
								if sh.scale == 4 {
									a = a&^3 + 3 // what index*4+3 can reach
								}
								sh.set(m, a)
								m.Budget, m.Acct = 1000, 0
								s := tr.Run(m, 0)
								runs++
								// What the one definition says should happen.
								wantUop, wantKind, wantAddr := len(accs), ExitIllegal, uint32(0)
								for i, ac := range accs {
									addr := a + ac.disp - d0
									ok := g.ReadOK(addr, ac.size, brk)
									kind := ExitReadFault
									if ac.write {
										ok, kind = g.WriteOK(addr, ac.size, brk), ExitWriteFault
									}
									if !ok {
										wantUop, wantKind, wantAddr = i, kind, addr
										faults++
										break
									}
								}
								desc := fmt.Sprintf("%s, size %d, span %d, write %v, brk %#x, address %#x", sh.name, size, span, write, brk, a)
								if s <= 0 || int(s) > len(tr.Exits) {
									t.Fatalf("%s: status %d", desc, s)
								}
								x := tr.Exits[s-1]
								if x.Kind != wantKind || x.Uop != wantUop {
									t.Fatalf("%s: exit %d from micro-op %d, the bounds say %d from %d", desc, x.Kind, x.Uop, wantKind, wantUop)
								}
								if wantKind != ExitIllegal && m.TrapAddr != wantAddr {
									t.Fatalf("%s: fault address %#x, want %#x", desc, m.TrapAddr, wantAddr)
								}
								if used := 1000 - m.Budget; used != int64(wantUop)+1 {
									t.Fatalf("%s: %d instructions charged, want %d", desc, used, wantUop+1)
								}
								if m.Passes() != 1 || m.Uops() != uint64(wantUop)+1 {
									t.Fatalf("%s: %d passes, %d micro-ops counted", desc, m.Passes(), m.Uops())
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d of them faulting", runs, faults)
	if faults < runs/10 || faults > runs*9/10 {
		t.Fatalf("the edge set is lopsided: %d faults in %d runs", faults, runs)
	}
}
