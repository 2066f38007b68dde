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

// edgeBrks are the heap ends the edge tests run every trace under: one
// far from every floor, one not page-aligned, each floor itself, and a
// page above each floor give or take a byte, where the floor's HeapFast
// is 0, 1 and 2.
var edgeBrks = []uint32{8 * pageSize, 8*pageSize + 5, 3 * pageSize, pageSize,
	2*pageSize - 1, 2 * pageSize, 2*pageSize + 1, 4*pageSize - 1, 4 * pageSize, 4*pageSize + 1}

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
// heap ends at and near each floor (edgeBrks) — and holds what each run
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
					for _, brk := range edgeBrks {
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
						for _, brk := range edgeBrks {
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

// BenchmarkHeapCheckLoop runs a compiled loop shaped like dct's hottest
// one, an 8-tap inner product: each pass loads a word from one table and
// multiplies it by a word from another, both through an index the pass
// has just computed with a lea, scaled by 4 — so each load opens a group
// whose check is made in the loop body on every pass — and counts the
// loop down to a direct loop edge. It reports the time per pass.
func BenchmarkHeapCheckLoop(b *testing.B) {
	g := Geometry{MemLen: 1 << 20, ROLimit: 2 * pageSize, StackBase: 1<<20 - 64*pageSize}
	m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g, Brk: 0x80000}
	const entry, passes = 0x1000, 1024
	eax, edx, ebx, ebp, esi, edi := uint8(x86.EAX), uint8(x86.EDX), uint8(x86.EBX), uint8(x86.EBP), uint8(x86.ESI), uint8(x86.EDI)
	us := []uop.Uop{
		{Kind: uop.KindLea, Dst: eax, Base: esi, Idx: ebx, Scale: 8},
		{Kind: uop.KindLoad, Dst: eax, Base: uop.RegZero, Idx: eax, Scale: 4, Disp: 0x10000},
		{Kind: uop.KindLea, Dst: edx, Base: ebp, Idx: ebx, Scale: 8},
		{Kind: uop.KindImulRMNF, Dst: eax, Base: uop.RegZero, Idx: edx, Scale: 4, Disp: 0x40000},
		{Kind: uop.KindAddRRNF, Dst: edi, Src: eax},
		{Kind: uop.KindAddRINF, Dst: ebx, Imm: 1},
		{Kind: uop.KindCmpJccRI, Dst: ebx, Imm: passes, Sub: byte(x86.CCL), Target: entry},
	}
	for i := range us {
		u := &us[i]
		u.Cost, u.EIP = 1, entry+4*uint32(i)
		u.Next = u.EIP + 4
	}
	tr, _ := Compile(us, entry, g, edgeArena)
	if tr == nil {
		b.Fatal("the loop did not compile")
	}
	if l := tr.Ledger; l.Checks != 2 || l.Hoisted != 0 || l.Loops != 1 {
		b.Fatalf("the loop compiled to %v, not two checks in the body of a loop", l)
	}
	links := append([]Link(nil), tr.Unlinked()...)
	m.Links = &links[0]
	b.ResetTimer()
	for range b.N {
		m.Regs = [9]uint32{}
		m.Budget, m.Acct = 1<<30, 0
		if s := tr.Run(m, 0); s <= 0 || tr.Exits[s-1].Kind != ExitJccFall || m.Passes() != passes {
			b.Fatalf("status %d after %d passes", s, m.Passes())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes), "ns/pass")
}

// meterTrace compiles us, each micro-op at its own guest address from
// entry up, for g in the test arena.
func meterTrace(t testing.TB, g Geometry, entry uint32, us []uop.Uop) *Trace {
	t.Helper()
	for i := range us {
		us[i].EIP = entry + 4*uint32(i)
		us[i].Next = us[i].EIP + 4
	}
	tr, _ := Compile(us, entry, g, edgeArena)
	if tr == nil {
		t.Fatal("test trace did not compile")
	}
	return tr
}

// TestMeterFields holds the meter (Machine.Meter) to its field widths and
// every way a run charges and refunds it, against hand-computed Budget,
// Passes and Uops: a cost-1 self-loop run for the most passes a run can
// take, MaxRun, and once more with a budget above MaxRun, which stops at
// the clamp and hands the rest back; a budget one short of the trace's
// Cost, which declines with Budget and Acct as they were; and an exit of
// every refund shape — none, instructions and micro-ops, instructions
// alone, micro-ops alone, a resume that refunds its own micro-op, and a
// check ahead of the loop label that fails before the pass is charged.
func TestMeterFields(t *testing.T) {
	g := edgeGeometry
	ebx, esi, eax := uint8(x86.EBX), uint8(x86.ESI), uint8(x86.EAX)
	const entry, brk = 0x1000, 8 * pageSize
	const acct = 7<<acctShift | 5 // what Acct holds before a run: Run adds to it
	addEBX := uop.Uop{Kind: uop.KindAddRI, Dst: ebx, Imm: 1, Cost: 1}
	ud2 := func(cost uint8) uop.Uop { return uop.Uop{Kind: uop.KindUd2, Cost: cost} }
	guard := uop.Uop{Kind: uop.KindGuardCmpRI, Dst: ebx, Imm: 0, Sub: byte(x86.CCE), Target: 0x9000, Cost: 1}
	load := func(base uint8) uop.Uop {
		return uop.Uop{Kind: uop.KindLoad, Dst: eax, Base: base, Idx: uop.RegZero, Cost: 1}
	}
	cases := []struct {
		name     string
		us       []uop.Uop
		budget   int64
		ebx, esi uint32
		// What the run must end with: the exit's kind and micro-op (status
		// 0: a declined pass), its refund, and Budget and the counters.
		declined     bool
		kind         ExitKind
		uop          int
		refund       int64
		refundUops   uint64
		budgetAfter  int64
		passes, uops uint64
		hoisted      bool
	}{
		{name: "cost-1 self-loop, MaxRun passes", us: []uop.Uop{{Kind: uop.KindJmp, Target: entry, Cost: 1}},
			budget: MaxRun, declined: true, budgetAfter: 0, passes: MaxRun, uops: MaxRun},
		{name: "cost-1 self-loop, budget above MaxRun", us: []uop.Uop{{Kind: uop.KindJmp, Target: entry, Cost: 1}},
			budget: MaxRun + 12345, declined: true, budgetAfter: 12345, passes: MaxRun, uops: MaxRun},
		{name: "budget one short of Cost", us: []uop.Uop{addEBX, addEBX, ud2(1)},
			budget: 2, declined: true, budgetAfter: 2},
		{name: "exit from the last micro-op: no refund", us: []uop.Uop{addEBX, addEBX, ud2(1)},
			budget: 100, kind: ExitIllegal, uop: 2, budgetAfter: 97, passes: 1, uops: 3},
		{name: "guard exit: instructions and micro-ops", us: []uop.Uop{guard, addEBX, addEBX, ud2(1)},
			budget: 100, kind: ExitGuard, uop: 0, refund: 3, refundUops: 3, budgetAfter: 99, passes: 1, uops: 1},
		{name: "fault in the last micro-op: instructions alone", us: []uop.Uop{addEBX, ud2(3)},
			budget: 100, kind: ExitIllegal, uop: 1, refund: 2, budgetAfter: 98, passes: 1, uops: 2},
		{name: "guard exit before a free jump: micro-ops alone", us: []uop.Uop{guard, {Kind: uop.KindJmp, Target: 0x9000}},
			budget: 100, kind: ExitGuard, uop: 0, refundUops: 1, budgetAfter: 99, passes: 1, uops: 1},
		{name: "resume: its own micro-op and the rest", us: []uop.Uop{addEBX, load(ebx), ud2(1)}, ebx: 0x20,
			budget: 100, kind: ExitResume, uop: 1, refund: 2, refundUops: 2, budgetAfter: 99, passes: 1, uops: 1},
		{name: "hoisted check fails before the charge", esi: 0x20,
			us:     []uop.Uop{load(esi), addEBX, {Kind: uop.KindCmpJccRI, Dst: ebx, Imm: 10, Sub: byte(x86.CCL), Target: entry, Cost: 2}},
			budget: 100, kind: ExitResume, uop: 0, budgetAfter: 100, hoisted: true},
	}
	for _, c := range cases {
		tr := meterTrace(t, g, entry, c.us)
		if c.hoisted != (len(tr.Hoisted) > 0) {
			t.Fatalf("%s: %d checks hoisted ahead of the loop label", c.name, len(tr.Hoisted))
		}
		links := append([]Link(nil), tr.Unlinked()...)
		m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g, Brk: brk, Links: &links[0]}
		m.Regs[x86.EBX], m.Regs[x86.ESI] = c.ebx, c.esi
		m.Budget, m.Acct = c.budget, acct
		s := tr.Run(m, 0)
		switch {
		case c.declined && (s != 0 || m.ExitTarget != entry):
			t.Fatalf("%s: status %d, ExitTarget %#x; want a declined pass", c.name, s, m.ExitTarget)
		case !c.declined && (s <= 0 || int(s) > len(tr.Exits)):
			t.Fatalf("%s: status %d", c.name, s)
		case !c.declined:
			x := tr.Exits[s-1]
			if x.Kind != c.kind || x.Uop != c.uop || x.Refund != c.refund || x.RefundUops != c.refundUops {
				t.Fatalf("%s: exit %d from micro-op %d refunding %d, %d; want %d from %d refunding %d, %d",
					c.name, x.Kind, x.Uop, x.Refund, x.RefundUops, c.kind, c.uop, c.refund, c.refundUops)
			}
		}
		if m.Budget != c.budgetAfter || m.Passes() != 7+c.passes || m.Uops() != 5+c.uops {
			t.Fatalf("%s: Budget %d, %d passes, %d micro-ops; want %d, %d, %d",
				c.name, m.Budget, m.Passes()-7, m.Uops()-5, c.budgetAfter, c.passes, c.uops)
		}
		t.Logf("%-48s budget %6d -> %6d, %6d passes, %6d micro-ops", c.name, c.budget, m.Budget, m.Passes()-7, m.Uops()-5)
	}
}

// BenchmarkTightLoop prices what a pass costs beyond its body: a
// two-micro-op self-loop, "add ebx, 1; cmp ebx, N; jl" back to its own
// entry, whose pass is the charge, the add and a fused compare-and-branch
// that is the loop edge. It reports the time per pass.
func BenchmarkTightLoop(b *testing.B) {
	g := edgeGeometry
	const entry, passes = 0x1000, 4096
	ebx := uint8(x86.EBX)
	tr := meterTrace(b, g, entry, []uop.Uop{
		{Kind: uop.KindAddRINF, Dst: ebx, Imm: 1, Cost: 1},
		{Kind: uop.KindCmpJccRI, Dst: ebx, Imm: passes, Sub: byte(x86.CCL), Target: entry, Cost: 2},
	})
	if l := tr.Ledger; l.Checks != 0 || l.Loops != 1 {
		b.Fatalf("the loop compiled to %v, not a loop without checks", l)
	}
	links := append([]Link(nil), tr.Unlinked()...)
	m := &Machine{Mem: make([]byte, g.MemLen), Geometry: g, Brk: 8 * pageSize, Links: &links[0]}
	b.ResetTimer()
	for range b.N {
		m.Regs = [9]uint32{}
		m.Budget, m.Acct = MaxRun, 0
		if s := tr.Run(m, 0); s <= 0 || tr.Exits[s-1].Kind != ExitJccFall || m.Passes() != passes {
			b.Fatalf("status %d after %d passes", s, m.Passes())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes), "ns/pass")
}
