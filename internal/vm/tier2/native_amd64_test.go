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
// one address at every edge of the sandbox — spans of one access, 8, 64
// and a whole page under one check, on all three operand shapes and for
// a heap end that is and is not page-aligned — and holds what each run
// does against Geometry.ReadOK/WriteOK applied access by access. The
// check may be stricter than the accesses it stands for, never weaker:
// a run that leaves through it (ExitResume) has executed nothing, been
// charged nothing and leaves the verdict to tier 1; a run the check lets
// through has every access in bounds; and the check does let through
// every run whose whole span lies in one window above the floor the
// accesses need, unless the host's 64-bit address sum is not the guest's
// 32-bit one, which it refuses.
func TestGeometryEdges(t *testing.T) {
	g := edgeGeometry
	m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g}
	type shape struct {
		name             string
		base, idx, scale uint8
		d0               uint32 // the displacement of the span's first access
		// set points the shape's registers at address a and returns the
		// sum the host forms for the first access: in 64 bits over one
		// register, mod 2^32 like the guest's over two.
		set func(m *Machine, a uint32) uint64
	}
	shapes := []shape{
		{"one register", uint8(x86.EBX), uop.RegZero, 0, 0, func(m *Machine, a uint32) uint64 {
			m.Regs[x86.EBX] = a
			return uint64(a)
		}},
		// The guest's sum wraps for every address below the displacement;
		// the host's 64-bit one does not, and must not be believed.
		{"one register, sum wraps", uint8(x86.EBX), uop.RegZero, 0, 0x9000, func(m *Machine, a uint32) uint64 {
			m.Regs[x86.EBX] = a - 0x9000
			return uint64(a-0x9000) + 0x9000
		}},
		{"scaled index", uop.RegZero, uint8(x86.ESI), 4, 3, func(m *Machine, a uint32) uint64 {
			m.Regs[x86.ESI] = (a - 3) / 4
			return uint64((a-3)/4)*4 + 3
		}},
		{"scaled index, product wraps", uop.RegZero, uint8(x86.ESI), 4, 3, func(m *Machine, a uint32) uint64 {
			m.Regs[x86.ESI] = (a-3)/4 | 0x40000000
			return uint64((a-3)/4|0x40000000)*4 + 3
		}},
		{"two registers", uint8(x86.EBP), uint8(x86.EDI), 2, 0, func(m *Machine, a uint32) uint64 {
			m.Regs[x86.EDI] = 0x7FFF1234
			m.Regs[x86.EBP] = a - 2*0x7FFF1234
			return uint64(a)
		}},
	}
	runs, faults, resumes := 0, 0, 0
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
								sum := sh.set(m, a)
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
								if x.Kind == ExitResume {
									// Every access rides on the first one's check.
									spanOK := g.ReadOK(a, span, brk)
									if write {
										spanOK = g.WriteOK(a, span, brk)
									}
									if x.Uop != 0 || spanOK && sum == uint64(a) {
										t.Fatalf("%s: the run resumes at micro-op %d (span in bounds: %v, host sum %#x)", desc, x.Uop, spanOK, sum)
									}
									if m.Budget != 1000 || m.Passes() != 1 || m.Uops() != 0 {
										t.Fatalf("%s: resumed before anything ran with %d charged, %d passes, %d micro-ops counted", desc, 1000-m.Budget, m.Passes(), m.Uops())
									}
									resumes++
									continue
								}
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
	t.Logf("%d runs, %d of them faulting, %d left to tier 1", runs, faults, resumes)
	if resumes < faults {
		t.Fatalf("%d faulting runs, %d resumes: some fault was not left to tier 1", faults, resumes)
	}
	if faults < runs/10 || faults > runs*9/10 {
		t.Fatalf("the edge set is lopsided: %d faults in %d runs", faults, runs)
	}
}

// TestGeometryEdgesConstantAddress is TestGeometryEdges for operands
// with no register in them, whose trace is compiled for the address. A
// constant between the write floor and the stack goes under a check of
// the heap's end alone, shared with its neighbours; every other one — a
// read-only word, the stack, no address at all — is checked in place, by
// the exact check with its own fault exit, which this is the test of at
// every edge. A run either does what Geometry.ReadOK/WriteOK say, access
// by access, or leaves through a shared check that had reason to fail,
// before the first access that is out of bounds.
func TestGeometryEdgesConstantAddress(t *testing.T) {
	g := edgeGeometry
	m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g}
	shared := func(addr, size uint32) bool {
		return addr >= g.ROLimit && uint64(addr)+uint64(size) <= uint64(g.StackBase)
	}
	runs, faults, resumes, inPlace := 0, 0, 0, 0
	for _, size := range []uint32{1, 2, 4} {
		for _, span := range []uint32{size, 64, pageSize} {
			for _, write := range []bool{false, true} {
				if write && size == 2 {
					continue // no 16-bit store micro-op
				}
				for _, edge := range []uint64{0, pageSize, uint64(g.ROLimit), 8 * pageSize, 8*pageSize + 5, uint64(g.StackBase), uint64(g.MemLen), 1 << 32} {
					for _, delta := range []int64{-int64(span) - 1, -int64(span), -int64(span) + 1, -int64(size) - 1, -int64(size), -int64(size) + 1, -1, 0, 1} {
						a := uint32(int64(edge) + delta)
						accs := []edgeAccess{{size, false, a}}
						if span > size {
							accs = append(accs, edgeAccess{size, write, a + span - size}, edgeAccess{size, false, a + span/2})
						} else {
							accs[0].write = write
						}
						tr := edgeTrace(t, m, uop.RegZero, uop.RegZero, 0, accs)
						links := append([]Link(nil), tr.Unlinked()...)
						m.Links = &links[0]
						for _, brk := range []uint32{8 * pageSize, 8*pageSize + 5, 3 * pageSize, pageSize} {
							m.Brk = brk
							m.Budget, m.Acct = 1000, 0
							s := tr.Run(m, 0)
							runs++
							wantUop, wantKind, wantAddr := len(accs), ExitIllegal, uint32(0)
							var sharedEnd uint32 // where the shared check's span ends
							for i, ac := range accs {
								if shared(ac.disp, ac.size) {
									sharedEnd = max(sharedEnd, ac.disp+ac.size)
								} else if i == 0 {
									inPlace++
								}
								ok, kind := g.ReadOK(ac.disp, ac.size, brk), ExitReadFault
								if ac.write {
									ok, kind = g.WriteOK(ac.disp, ac.size, brk), ExitWriteFault
								}
								if !ok && wantKind == ExitIllegal {
									wantUop, wantKind, wantAddr = i, kind, ac.disp
									faults++
								}
							}
							desc := fmt.Sprintf("size %d, span %d, write %v, brk %#x, address %#x", size, span, write, brk, a)
							if s <= 0 || int(s) > len(tr.Exits) {
								t.Fatalf("%s: status %d", desc, s)
							}
							x := tr.Exits[s-1]
							got := int64(x.Uop) + 1
							if x.Kind == ExitResume {
								if x.Uop > wantUop || !shared(accs[x.Uop].disp, accs[x.Uop].size) || sharedEnd <= brk {
									t.Fatalf("%s: the run resumes at micro-op %d; the first fault is at %d, the shared span ends at %#x", desc, x.Uop, wantUop, sharedEnd)
								}
								got--
								resumes++
							} else if x.Kind != wantKind || x.Uop != wantUop || wantKind != ExitIllegal && m.TrapAddr != wantAddr {
								t.Fatalf("%s: exit %d from micro-op %d at %#x, the bounds say %d from %d at %#x", desc, x.Kind, x.Uop, m.TrapAddr, wantKind, wantUop, wantAddr)
							}
							if used := 1000 - m.Budget; used != got || m.Passes() != 1 || m.Uops() != uint64(got) {
								t.Fatalf("%s: %d instructions charged, %d passes, %d micro-ops counted, want %d, 1, %d", desc, used, m.Passes(), m.Uops(), got, got)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d of them faulting, %d left to tier 1, %d with the first access checked in place", runs, faults, resumes, inPlace)
	if faults < runs/10 || resumes == 0 || inPlace < runs/4 {
		t.Fatal("the edge set is lopsided")
	}
}
