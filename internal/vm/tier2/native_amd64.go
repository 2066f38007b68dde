//go:build amd64 && linux

package tier2

import (
	"encoding/binary"
	"slices"
	"sync"
	"time"
	"unsafe"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// The native backend emits one superblock trace as flat amd64 machine
// code in which a guest register IS a host register and a run of guest
// memory accesses shares one bounds check.
//
// The register map (the jitcall shim in jitcall_amd64.s fills and spills
// it; this table and the shim's are one):
//
//	guest  host     guest  host     host   role
//	EAX    R9       ESP    R12      RDI    *Machine, never written
//	ECX    R10      EBP    RBP      RSI    guest memory base, never written
//	EDX    R11      ESI    R13      RAX RCX RDX R8   scratch
//	EBX    RBX      EDI    R15      RSP    the goroutine's stack
//	                                R14    the meter (Machine.Meter)
//
// The eight guest registers live in their host registers for as long as
// control is in compiled code: the shim loads them from Machine.Regs
// before it calls a trace and stores them back when compiled code
// returns, whichever trace of a linked chain returns; a slot jump from
// trace to trace carries them untouched. Machine.Regs is therefore stale
// while compiled code runs and current whenever Go runs. Every write to
// a pinned register is a 32-bit (or 8-bit) operation, so its upper half
// stays zero and the register can be used directly in a 64-bit address.
// Micro-ops operate on the pinned registers in place; the lazy-flag
// record and the exit payload stay in the Machine. R14 holds the run's
// budget and counters, packed (Machine.Meter): Go's g lives there, but
// only Go code needs it, and emitted code never calls Go — the shim
// returns to an ABI wrapper that reloads g, and a signal handler loads
// g from thread-local storage before it runs Go code. Only the charge
// of a pass, a declined pass and the refunds touch R14.
//
// Memory. A guest operand [base+idx*scale+disp] is used in one of two
// shapes. With one register it is the host operand [rsi+reg*scale+disp]
// itself — a 64-bit sum, so unlike the guest's it does not wrap; with
// two, "lea ecx, [base+idx*scale+disp]" (32-bit, wrapping like the
// guest's) and then [rsi+rcx]. Neither is bounds-checked where it is
// used. Instead the operands of a trace are sorted into groups as they
// are met: operands whose address is the same register values plus a
// constant — the same symbols in the assembler's write log, so [ebp-8],
// [ebp-24] and the [esp+4] after "mov ebp, esp; sub esp, 40" are one group
// — and which span at most a page. The first operand of a group emits,
// at the start of its micro-op, one check that the whole span [lo, hi)
// lies in the heap window or the stack window, computed in 64 bits for
// the one-register shape (so an address sum that leaves [0, 2^32) fails
// it) and in 32 for the other; a group with a write in it takes the write
// floor. The rest of the group emits nothing. A one-register operand
// whose register moved by a constant since the check joins only if the
// move cannot have wrapped the register (noWrap). An operand whose
// address registers are rewritten earlier in its own micro-op cannot be
// checked ahead and gets the exact, per-access check in place, with a
// fault exit of its own.
//
// A check that passes is one lea, one compare and a branch not taken.
// The heap window is tried first unless the address is ESP- or EBP-based:
// "lea rdx, [a-floor]; cmp rdx, [HeapFast]; jae fallback", where HeapFast
// is Brk-floor-pageSize+1 (or 0), which Run derives from Brk before it
// enters compiled code, once per run (Geometry.HeapLimits) — so a pass
// proves floor <= a <= Brk-pageSize, never weaker than ReadOK/WriteOK and
// stricter only within a page of Brk. The fallback, out of line behind
// the mainline, makes the exact test — the heap against HeapTop,
// Brk-floor, less the span, then the stack window — and jumps back when
// one passes; when none does it falls into the exit the check has. The
// stack window first is the same shape the other way round: its test on
// the mainline, the heap's out of line.
//
// One pass. A group's span is final only when the trace ends, and that a
// micro-op leads a group is known only once it has been emitted, so: a
// check's mainline is emitted with every constant in a 32-bit field
// (nasm.long), which is rewritten in place when the trace is done
// (fixChecks), and its fallback only then; and the checks of the groups a
// micro-op turns out to lead are emitted behind it and rotated in front
// of it, every position recorded meanwhile moved along (checksFirst).
// Every micro-op is emitted once. An operand with no register in it is
// judged on the spot: between the write floor and the stack it needs only
// the heap's end checked, and shares that; anywhere else it is checked in
// place.
//
// Exactness. A group's check is never weaker than the checks it
// replaces but may be stricter — a later operand of the span may sit
// behind a guard that leaves the trace first, a read may share the
// write floor, a wrapping address sum is refused — so its failure is not
// a fault. It is an exit, ExitResume: the check sits before anything of
// its micro-op has executed, the exit gives back what the entry charged
// for that micro-op and everything after it, and the dispatcher runs the
// rest of the superblock — the same micro-op array, from that index — on
// the tier-1 loop, which checks every access where it happens and either
// raises the instruction-exact fault or finishes the pass and chains on.
// The state between two micro-ops is exact for that purpose because both
// tiers execute the one optimized array: a flag record the optimizer
// elided is elided on both sides of the boundary. (It would not be exact
// for resuming at a guest EIP, on freshly decoded instructions.)
//
// The code's first byte is the trace entry, for the dispatcher and for
// every exit linked to the trace alike: "mov Cur, rdx", then the loop
// label, "movabs rax, K; add r14, rax; js decline", where K takes the
// Cost off the meter's budget and counts a pass and its micro-ops, and
// the sign is the budget's: register arithmetic, nothing in memory. The
// budget is what the dispatcher allows the run — the smaller of Fuel and
// the poll Credit — and a declined pass (status 0, the entry's guest
// address in ExitTarget) gives its charge back, "sub r14, rax". Every
// exit gives back what the entry charged for the micro-ops it skips
// before control leaves the trace's code. A link exit does so itself,
// "movabs rdx, R; add r14, rdx" (RDX: RAX may hold an indirect target
// there), and then jumps through its slot of the VM's link table — into
// the next trace once the VM has linked the edge, and until then into the
// shared exit code (below), which returns the status the unlinked slot
// holds; an inline-cache exit takes its slot only when the guest target
// equals the slot's recorded address, and otherwise the shared miss path.
// Every other exit returns to the dispatcher: one with nothing to give
// back returns its status itself, "mov eax, s; ret", and one with a
// refund goes through the shared exit code with its descriptor, "lea rdx,
// [rip+desc]; jmp leave" — the descriptor table follows the trace's code
// and holds each such exit's refund and status. But a loop edge: an exit
// back to the trace's own entry that needs no flags materialized for it
// (link) is a direct jmp or jcc onto the loop label, so a pass of a loop
// costs its charge and no slot. The only indirect branches in the code
// are the slot jumps and ret, and no emitted instruction ever writes code.
//
// Shared exit code. What an exit does only on its way back to the
// dispatcher — return the status an unlinked slot holds, store a faulting
// address or a missed inline-cache target, take a refund from a
// descriptor — is emitted once per arena, at its start (sharedExits),
// instead of behind every exit. The exact tests of the checks' fallbacks
// stay with their checks, whose constants they share; what a failed one
// does next is shared.
//
// Checks made once per loop entry. In a trace with an exit to its own
// entry, a group whose address registers hold their entry values where
// it opens, and are written by no micro-op of the trace (or which
// micro-op 0 leads), has its check made ahead of the loop label, behind
// the entry's store of Cur (hoist). A loop edge lands past those checks
// when the registers they were made on still hold their entry values,
// as the write log says at the edge, and on the ones it moved otherwise.
// A check reads only registers, geometry constants and the heap limits,
// which only the dispatcher moves, so a check that held on entry holds on
// every pass that skips it. Made before the pass is charged, such a check
// fails through an ExitResume at micro-op 0 that refunds nothing; the
// fallbacks of these checks follow all other code.
//
// Where the code lives. The emitter assembles into a buffer of its own and
// hands the finished bytes, with the descriptor table behind them, to the
// trace's Arena (execbuf.go), which copies them once, through its writable
// view, to the next free 16-byte boundary; the trace runs from the same
// offset of the executable view. Jumps inside a trace and the addresses of
// its descriptors are relative, everything else goes through RDI, RSI and
// the link table; only the jumps into the arena's shared exit code depend
// on where the trace lies, and seal resolves them once it knows. The only
// absolute addresses, the shared exit code's in Trace.unlinked, are data
// beside the code, computed after it is placed.
//
// Micro-ops whose semantics need lazy-flag materialization of a record
// that is not statically known (a plain guard or Jcc-less setcc form,
// INC/DEC's carry preservation, ADC/SBB after a conditional writer)
// bail: materializing an unknown deferred flag record is a branchy
// per-FlagOp computation that belongs in Go. A plain Jcc terminator
// exits with ExitJccLazy and lets the glue evaluate the condition;
// everything else unsupported fails compilation and leaves the
// superblock on tier-1.

// hostReg is the register map: the host register a guest register is
// pinned in.
var hostReg = [8]int{
	x86.EAX: hR9, x86.ECX: hR10, x86.EDX: hR11, x86.EBX: hBX,
	x86.ESP: hR12, x86.EBP: hBP, x86.ESI: hR13, x86.EDI: hR15,
}

//go:noescape
func jitcall(code uintptr, m *Machine, cur uint32) int32

// Machine field offsets, resolved once against a zero value. The
// emitter addresses every field as [rdi+off].
var zm Machine

var (
	offFl       = int32(unsafe.Offsetof(zm.Fl))
	offCF       = int32(unsafe.Offsetof(zm.CF))
	offZF       = int32(unsafe.Offsetof(zm.ZF))
	offSF       = int32(unsafe.Offsetof(zm.SF))
	offOF       = int32(unsafe.Offsetof(zm.OF))
	offPF       = int32(unsafe.Offsetof(zm.PF))
	offBrk      = int32(unsafe.Offsetof(zm.Brk))
	offHeapTop  = int32(unsafe.Offsetof(zm.HeapTop))
	offHeapFast = int32(unsafe.Offsetof(zm.HeapFast))
	offLinks    = int32(unsafe.Offsetof(zm.Links))
	offCur      = int32(unsafe.Offsetof(zm.Cur))
	offTrapAddr = int32(unsafe.Offsetof(zm.TrapAddr))
	offTrapAux  = int32(unsafe.Offsetof(zm.TrapAux))
	offExitTgt  = int32(unsafe.Offsetof(zm.ExitTarget))

	// Link slot fields, as displacements off a slot's address.
	linkEntry = int32(unsafe.Offsetof(Link{}.Entry))
	linkCur   = int32(unsafe.Offsetof(Link{}.Cur))
	linkAddr  = int32(unsafe.Offsetof(Link{}.Addr))

	// Flags record sub-fields. A dword store at offFlOp covers Op,
	// KeptCF and the two pad bytes.
	offFlOp  = offFl + int32(unsafe.Offsetof(zm.Fl.Op))
	offFlA   = offFl + int32(unsafe.Offsetof(zm.Fl.A))
	offFlB   = offFl + int32(unsafe.Offsetof(zm.Fl.B))
	offFlCin = offFl + int32(unsafe.Offsetof(zm.Fl.Cin))
	offFlRes = offFl + int32(unsafe.Offsetof(zm.Fl.Res))
)

func init() {
	// The dword-covers-Op-and-KeptCF trick and the field stores assume
	// the Flags layout; fail loudly if it ever changes.
	if unsafe.Offsetof(zm.Fl.Op) != 0 || unsafe.Offsetof(zm.Fl.KeptCF) != 1 ||
		unsafe.Offsetof(zm.Fl.A) != 4 || unsafe.Offsetof(zm.Fl.B) != 8 ||
		unsafe.Offsetof(zm.Fl.Cin) != 12 || unsafe.Offsetof(zm.Fl.Res) != 16 {
		panic("tier2: uop.Flags layout changed; update the native emitter")
	}
}

// fld is the Machine field at off.
func fld(off int32) rm { return at(hDI, off) }

// ---- the shared exit code -----------------------------------------------

// sharedExits is the code an exit runs only on its way back to the
// dispatcher, which every arena holds once, at its start, and the exit
// paths of its traces jump to:
//
//	ret:    mov eax, edx; ret               — an unlinked link slot's target:
//	                                          the slot jump has loaded the
//	                                          slot's Cur, the exit's status,
//	                                          into EDX
//	fault:  mov [TrapAddr], ecx             — a failed exact check, the
//	                                          address in ECX; then leave
//	leave:  add r14, [rdx]; mov eax, [rdx+8]; ret
//	                                        — RDX points at the exit's
//	                                          descriptor: its refund, as
//	                                          the meter adds it, then its
//	                                          status
//	miss[r]: mov [ExitTarget], r; mov eax, edx; ret
//	                                        — an inline-cache miss, the
//	                                          guest target in r and the
//	                                          status in EDX
//
// The offsets are from the arena's start. Nothing in it depends on where
// the arena is, so the bytes are built once.
var sharedExits = buildSharedExits()

type sharedCode struct {
	code              []byte
	ret, fault, leave int32
	miss              [16]int32 // by host register; -1 where none
}

func buildSharedExits() (sh sharedCode) {
	var a nasm
	sh.ret = a.here()
	a.mov(hAX, rg(hDX))
	a.ret()
	sh.fault = a.here()
	a.movTo(fld(offTrapAddr), hCX)
	sh.leave = a.here()
	a.alu64(aluAddRM, hR14, at(hDX, 0))
	a.mov(hAX, at(hDX, 8))
	a.ret()
	for r := range sh.miss {
		sh.miss[r] = -1
		if r == hAX || r == hR8 || slices.Contains(hostReg[:], r) {
			sh.miss[r] = a.here()
			a.movTo(fld(offExitTgt), r)
			a.mov(hAX, rg(hDX))
			a.ret()
		}
	}
	sh.code = a.c
	return sh
}

// sharedAddr is the host address of the shared exit code at off.
func (a *Arena) sharedAddr(off int32) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(a.rx))) + uintptr(off)
}

// ---- the emitter --------------------------------------------------------

// pstub is an out-of-line exit path, emitted once the fall-through body
// is done: the fixup sites that jump to it, what it is (a stub kind) and
// for which exit, and the flag state the mainline had where the path
// leaves it. A path that may end in a loop edge also gets the write log
// there (log, an index into nemit.logs; -1 for none), which the edge
// records (loopJump).
type pstub struct {
	fixes fixes
	kind  uint8
	s     int32 // the exit
	// arg is stubResume's group, stubGuardNF's micro-op, stubTrap's
	// TrapAux value and stubInd's register; test is stubFault's check.
	arg  int
	test rangeTest
	flOp int
	log  int32
}

// Stub kinds.
const (
	stubDecline = iota // a declined pass: the charge back, status 0
	stubResume         // a group check's fallback, then its resume exit
	stubFault          // an exact check's fallback, then its fault exit
	stubTrap           // TrapAux, then the exit (a divide's traps)
	stubLink           // link
	stubGuardNF        // a flag-suppressed guard's compare, recorded, then link
	stubInd            // linkInd
)

// wlog is the assembler's write log at one point (nasm.sym, nasm.off).
type wlog struct {
	sym [16]uint32
	off [16]int64
}

// reloc is a rel32 field the emitted code leaves to seal: a jump to the
// shared exit code at offset to of the arena, or (desc) the address of
// the trace's exit descriptor to.
type reloc struct {
	at   fix
	to   int32
	desc bool
}

// fixes is up to two fixup sites; -1 marks an unused one.
type fixes [2]fix

// ea is a guest effective address: base + idx*scale + disp with absent
// registers encoded as uop.RegZero, as in a micro-op.
type ea struct {
	base, idx uint8
	scale     uint8
	disp      uint32
}

func uea(u *uop.Uop) ea {
	x := ea{base: u.Base, idx: u.Idx, scale: u.Scale, disp: u.Disp}
	if x.scale == 0 {
		x.idx = uop.RegZero // absent index is encoded with Scale 0
	}
	return x
}

// stackBased reports whether x is ESP- or EBP-based, in which case its
// check tries the stack window first.
func stackBased(x ea) bool { return x.base == uint8(x86.ESP) || x.base == uint8(x86.EBP) }

// stackEA is [esp+disp].
func stackEA(disp int32) ea {
	return ea{base: uint8(x86.ESP), idx: uop.RegZero, disp: uint32(disp)}
}

// Operand shapes (see the file comment).
const (
	shapeAbs = iota // no register: [rsi+disp]
	shapeOne        // one register: [rsi+reg*scale+disp]
	shapeTwo        // two: lea ecx, [base+idx*scale+disp]; [rsi+rcx]
)

// access is one guest memory operand as it is met: where its address
// stands relative to the symbols of its registers, and how a check placed
// at the start of its micro-op would address it.
type access struct {
	shape      uint8
	symB, symI uint32 // symbols of the address registers (0: absent)
	scale      uint8
	pos        int64 // the address minus symB + symI*scale
	regOff     int64 // shapeOne: the register minus its symbol, at the access
	size       uint32
	write      bool
	stack      bool // ESP- or EBP-based: try the stack window first

	// hoist: the address registers hold, at the start of the micro-op,
	// the symbols they hold at the access; startPos is then what they
	// contribute to the address there (startOff the shapeOne register's
	// own offset), hb/hi the host registers.
	hoist    bool
	hb, hi   int
	startPos int64
	startOff int64
}

// group is a run of accesses under one check: the access the check was
// emitted for, the span in that access's pos coordinates and whether any
// member writes — both still growing until the trace ends — and the code
// offsets of the check and of what follows it, whose constants follow
// from them. A group of a loop whose lead's registers hold their entry
// values, and which no micro-op writes or micro-op 0 leads, is pre: its
// check is made ahead of the loop label (hoist) for the micro-op uop.
type group struct {
	lead     access
	lo, hi   int64
	write    bool
	at, back int32
	pre      bool
	uop      int
}

// edge is a loop edge as emitted: its exit, the site of its jump's rel32
// and the write log there.
type edge struct {
	s   int32
	at  fix
	sym [16]uint32
	off [16]int64
}

type nemit struct {
	a     nasm
	us    []uop.Uop
	entry uint32
	cost  int64
	g     Geometry
	arena *Arena
	// ledger is the trace's Ledger as it is counted.
	ledger Ledger

	mlen, ro, sbase uint32
	tail            []int64 // suffixCosts(us)

	emitState

	// entrySym is the symbols the registers hold at the entry, edges the
	// loop edges.
	entrySym [16]uint32
	edges    []edge

	// groups holds every check group of the trace in the order the checks
	// are emitted; open indexes the ones still taking members, the newest
	// of each address shape.
	groups []group
	open   []int

	// Scratch that outlives a compile (see emitters): the code buffer, a
	// second one for hoist, the exit table under construction, the
	// fixups of the hoisted checks and the micro-ops those cover.
	code, spare []byte
	exits       []Exit
	fails       []fix
	hoisted     []int

	pend  []pstub
	logs  []wlog
	slots []int32 // the shared exit code each link slot leads to until it is linked

	// descs lists the exits, by status, that return through a descriptor
	// (leave), relocs the rel32 fields seal resolves.
	descs  []int32
	relocs []reloc
}

// emitState is the scalar state of one compile, which init resets.
type emitState struct {
	// loop is the code offset of the loop label, where every entry charges
	// the pass, and recheck that of the checks hoisted ahead of it (loop
	// when there are none). loops: the trace has an exit to its own entry,
	// so checks on what registers no micro-op of it writes (the host
	// registers outside written) hold at the entry may be hoisted.
	loop, recheck int32
	loops         bool
	written       uint16

	// flOp is the FlagOp the lazy record is statically known to hold
	// at the current emission point: flEntry before the first writer,
	// flUnknown after a conditional one (see native_flags_amd64.go).
	// usedEntry records that some consumer read the entry state and
	// the trace therefore needs the glue's entry materialization.
	flOp      int
	usedEntry bool

	// last is the group of the operand opnd last returned, -1 when it was
	// checked in place and its address is still in ECX (stackFirst:
	// against the stack window first), which is what alsoWrite extends.
	last       int
	stackFirst bool

	// Guest memory operands; bounds checks emitted for them, and the host
	// instructions those take in the hot body.
	accesses, checks, checkHot int
}

// nativeCompile emits us as machine code and places it in arena a. It
// returns nil on any unsupported micro-op or when the arena takes no more
// code; the superblock then stays on tier-1.
func nativeCompile(us []uop.Uop, entry uint32, g Geometry, ar *Arena, o *Outcome) *Trace {
	if g.MemLen > 1<<30 || g.MemLen < g.StackBase+pageSize || g.StackBase < pageSize || g.ROLimit > g.StackBase {
		// The checks compare 64-bit sums against sign-extended 32-bit
		// immediates, subtract a span of up to a page from either window's
		// end and take an address below either floor for one below the
		// stack; any real guest address space satisfies this.
		return nil
	}
	cost := uop.Cost(us)
	if cost <= 0 || cost > MaxRun || int64(len(us)) > cost+1 {
		return nil // a run's charges must fit the meter's fields
	}
	e := emitters.Get().(*nemit)
	defer e.release()
	e.init(us, entry, g, ar, cost)

	a := &e.a
	a.movTo64(fld(offCur), hDX)
	e.loop = a.here()
	a.movI64(hAX, uint64(-cost)<<meterShift+acctIter+uint64(len(us)))
	a.alu64(aluAddRM, hR14, rg(hAX))
	e.stub(pstub{kind: stubDecline}, fixes{a.jcc(byte(x86.CCS)), -1})
	for i := range us {
		a.room(uopRoom)
		a.begin()
		var m mark // field by field: a composite literal is built aside and copied in whole
		m.code, m.pend, m.edges, m.relocs, m.groups = len(a.c), len(e.pend), len(e.edges), len(e.relocs), len(e.groups)
		if !e.one(i) {
			return nil
		}
		if e.inBody(m.groups) {
			// The micro-op leads groups checked in the body: emit their
			// checks and move them in front of it.
			e.emitChecks(i, m.groups)
			e.checksFirst(&m)
		}
	}
	e.fixChecks()
	hot, hotEnd := a.n, a.here()
	e.flush()
	shift, hoisted := e.hoist()
	l := &e.ledger
	l.Guest, l.Hot, l.Accesses, l.Checks = cost, int64(hot+hoisted), int64(e.accesses), int64(e.checks)
	l.CheckHot = int64(e.checkHot)
	l.Stub, l.Loops = int64(a.n)-l.Hot, int64(len(e.edges))
	return e.seal(o, int(hotEnd+shift))
}

// uopRoom is the code buffer's spare capacity at the start of a
// micro-op: more than any micro-op emits, so that the assembler's
// instructions land in place.
const uopRoom = 1 << 10

// mark is where the code and the lists of positions in it stood at the
// start of a micro-op: what checksFirst moves.
type mark struct{ code, pend, edges, relocs, groups int }

// checksFirst puts the checks emitChecks has just emitted behind the
// micro-op that started at m in front of it: it rotates the code and
// moves every position recorded since m — the out-of-line paths' fixups
// and return points, the checks', the loop edges' and the relocations' —
// with it. The loop edges' jumps, the one kind among them that leaves
// what moved for a fixed point, are patched again.
func (e *nemit) checksFirst(m *mark) {
	a := &e.a
	p0, p1, p2 := int32(m.code), int32(0), a.here()
	for gi := m.groups; gi < len(e.groups); gi++ {
		if g := &e.groups[gi]; !g.pre {
			p1 = g.at
			break
		}
	}
	rotate(a.c[p0:p2], int(p1-p0))
	op, ck := p1-p0, p2-p1 // the lengths of the micro-op and of its checks
	move := func(x int32) int32 {
		switch {
		case x < p0:
		case x < p1:
			x += ck
		default:
			x -= op
		}
		return x
	}
	for k := m.pend; k < len(e.pend); k++ {
		p := &e.pend[k]
		for j, f := range p.fixes {
			if f >= 0 {
				p.fixes[j] = fix(move(int32(f)))
			}
		}
		p.test.back = move(p.test.back)
	}
	for gi := m.groups; gi < len(e.groups); gi++ {
		if g := &e.groups[gi]; !g.pre {
			g.at, g.back = move(g.at), move(g.back)
		}
	}
	for k := m.edges; k < len(e.edges); k++ {
		j := &e.edges[k]
		j.at = fix(move(int32(j.at)))
		a.patchTo(j.at, e.loop)
	}
	for k := m.relocs; k < len(e.relocs); k++ {
		e.relocs[k].at = fix(move(int32(e.relocs[k].at)))
	}
}

// rotate moves b[:k] to the end of b, the rest of it to the front.
func rotate(b []byte, k int) {
	slices.Reverse(b[:k])
	slices.Reverse(b[k:])
	slices.Reverse(b)
}

// seal lays the trace out — its code, then its exit descriptor table —
// resolves the relocations, has the arena take it and copies the trace,
// its exit table and its unlinked slots out of the emitter. It returns
// nil, and says so in o, when the arena refuses the code.
func (e *nemit) seal(o *Outcome, hotEnd int) *Trace {
	a := &e.a
	start := time.Now()
	n := len(a.c)
	dstart := (n + 7) &^ 7
	for _, r := range e.relocs {
		if r.desc {
			a.patchTo(r.at, int32(dstart)+descSize*r.to)
		}
	}
	off, exits, links, hoisted := e.arena.reserve(dstart+int(descSize)*len(e.descs), len(e.exits), max(len(e.slots), 1), len(e.hoisted))
	if off < 0 {
		o.Seal, o.Refused = time.Since(start), true
		return nil
	}
	for _, r := range e.relocs {
		if !r.desc {
			a.patchTo(r.at, r.to-int32(off))
		}
	}
	a.room(dstart - n + int(descSize)*len(e.descs))
	a.c = a.c[:dstart]
	clear(a.c[n:])
	for _, s := range e.descs {
		x := &e.exits[s-1]
		a.c = binary.LittleEndian.AppendUint64(a.c, uint64(x.Refund)<<meterShift-x.RefundUops)
		a.c = binary.LittleEndian.AppendUint64(a.c, uint64(s))
	}
	code := e.arena.fill(off, a.c)
	o.Seal = time.Since(start)

	copy(exits, e.exits)
	t := &Trace{Exits: exits, code: code[:n:n], desc: code[dstart:], arena: e.arena, Geom: e.g,
		Entry: e.entry, Cost: e.cost, NUops: len(e.us), Slots: len(e.slots), Ledger: e.ledger,
		hotEnd: hotEnd, loop: int(e.loop), recheck: int(e.recheck), NeedFlags: e.usedEntry}
	copy(hoisted, e.hoisted)
	t.Hoisted = hoisted
	for s, x := range exits {
		if k := x.Slot; k >= 0 {
			links[k] = Link{Entry: t.arena.sharedAddr(e.slots[k]), Cur: uint32(s + 1)}
		}
	}
	t.unlinked = links
	return t
}

// emitters recycles emitters with the slices they have grown: what a
// compile keeps is the Trace and the copy of its code in the arena.
var emitters = sync.Pool{New: func() any { return new(nemit) }}

// init readies a recycled emitter for a trace of its own: no code, every
// register its own symbol, the flag state the entry guarantees.
func (e *nemit) init(us []uop.Uop, entry uint32, g Geometry, ar *Arena, cost int64) {
	n := len(us)
	e.us, e.entry, e.cost, e.g, e.arena = us, entry, cost, g, ar
	e.mlen, e.ro, e.sbase = g.MemLen, g.ROLimit, g.StackBase
	e.ledger, e.emitState = Ledger{}, emitState{flOp: flEntry}
	e.a = nasm{c: e.code[:0]}
	e.exits, e.groups, e.open = e.exits[:0], e.groups[:0], e.open[:0]
	e.pend, e.logs, e.slots, e.edges, e.fails = e.pend[:0], e.logs[:0], e.slots[:0], e.edges[:0], e.fails[:0]
	e.hoisted, e.descs, e.relocs = e.hoisted[:0], e.descs[:0], e.relocs[:0]
	e.tail = suffixCosts(slices.Grow(e.tail[:0], n)[:n], us)
	e.a.room(n*64 + uopRoom)
	for r := range e.a.sym {
		e.a.sym[r] = uint32(r + 1)
	}
	e.a.nsym = uint32(len(e.a.sym))
	e.entrySym = e.a.sym
	for i := range us {
		u := &us[i]
		r := &uop.Kinds[u.Kind]
		e.loops = e.loops || (r.Guard || r.Term) && u.Target == entry ||
			r.Term && r.Ops&uop.OpCC != 0 && u.Next == entry
	}
	if e.loops { // what hoisting needs to know
		for i := range us {
			e.written |= writes(&us[i])
		}
	}
}

// writes returns, as a mask of host registers, the guest registers u may
// write: its Dst and Aux registers, Src of an exchange, ESP for the stack
// kinds, EAX and EDX for the multiplies, the divides and CDQ. It need not
// be exact, only never short: a loop edge that finds a register moved
// under a hoisted check anyway makes the check again (hoist).
func writes(u *uop.Uop) uint16 {
	var m uint16
	r := &uop.Kinds[u.Kind]
	if r.Ops&uop.OpDst != 0 {
		m |= 1 << hostReg[u.Dst&7]
	}
	if r.Ops&uop.OpAux != 0 {
		m |= 1 << hostReg[u.Aux&7]
	}
	switch u.Kind {
	case uop.KindXchgRR:
		m |= 1 << hostReg[u.Src&7]
	case uop.KindPushR, uop.KindPushI, uop.KindPushM, uop.KindPopR, uop.KindPopM, uop.KindCall, uop.KindCallR,
		uop.KindCallM, uop.KindRet, uop.KindPopRet, uop.KindPushCall, uop.KindRetGuard:
		m |= 1 << hostReg[x86.ESP]
	case uop.KindMulR, uop.KindMulRNF, uop.KindMulM, uop.KindMulMNF, uop.KindDivR, uop.KindDivM, uop.KindCdq:
		m |= 1<<hostReg[x86.EAX] | 1<<hostReg[x86.EDX]
	}
	return m
}

// release drops what the emitter holds of the trace and hands it back
// with its code buffer as far as that has grown.
func (e *nemit) release() {
	e.code = e.a.c
	e.us, e.arena, e.a.c = nil, nil, nil
	emitters.Put(e)
}

// flush emits the out-of-line paths behind the mainline.
func (e *nemit) flush() {
	a := &e.a
	for k := range e.pend {
		p := &e.pend[k]
		a.room(uopRoom)
		for _, f := range p.fixes {
			if f >= 0 {
				a.patch(f)
			}
		}
		e.flOp = p.flOp
		if p.log >= 0 {
			a.sym, a.off = e.logs[p.log].sym, e.logs[p.log].off
		}
		switch p.kind {
		case stubDecline:
			a.alu64(aluSubRM, hR14, rg(hAX))
			a.movI(fld(offExitTgt), e.entry)
			a.retStatus(0)
		case stubResume:
			e.fallback(&e.groups[p.arg])
			e.leave(p.s, sharedExits.leave)
		case stubFault:
			e.slowTest(&p.test)
			e.leave(p.s, sharedExits.fault)
		case stubTrap:
			a.movI(fld(offTrapAux), uint32(p.arg))
			e.leave(p.s, sharedExits.leave)
		case stubLink:
			e.link(p.s)
		case stubGuardNF:
			u := &e.us[p.arg]
			e.compare(u, hostReg[u.Dst&7], hostReg[u.Src&7], true)
			e.link(p.s)
		case stubInd:
			e.linkInd(p.s, p.arg)
		}
	}
	e.pend = e.pend[:0]
}

// ---- check grouping -------------------------------------------------------

// join finds the group for operand ac of the micro-op being emitted,
// greedily in program order: the open group of ac's address shape if the
// span still fits a page with ac in it, else a new group that ac leads,
// whose check the micro-op then emits in front of itself. It returns the
// group's index, or -1 for an operand that can do neither and is checked
// in place. Only the newest group of each address shape stays open, and
// a trace has few shapes live at a time, so the open list is searched.
func (e *nemit) join(i int, ac *access) int {
	if max(ac.pos, -ac.pos, ac.startPos, -ac.startPos) >= 1<<29 {
		return -1 // keeps every check displacement, less StackBase, an int32
	}
	if ac.shape == shapeAbs && (ac.pos < int64(e.ro) || ac.pos+int64(ac.size) > int64(e.sbase)) {
		// A constant address shares a check — of the heap's end alone —
		// only where any access is in bounds once the heap reaches past
		// it. A read-only word must not ride on a writer's check, which it
		// could never pass; the stack and what is no address at all are
		// the exact check's.
		return -1
	}
	at := -1
	for o, gi := range e.open {
		if l := &e.groups[gi].lead; l.symB == ac.symB && l.symI == ac.symI && l.scale == ac.scale && l.shape == ac.shape {
			at = o
			break
		}
	}
	if at >= 0 {
		g := &e.groups[e.open[at]]
		lo, hi := min(g.lo, ac.pos), max(g.hi, ac.pos+int64(ac.size))
		if hi-lo <= pageSize && noWrap(ac, &g.lead, lo) {
			g.lo, g.hi, g.write = lo, hi, g.write || ac.write
			return e.open[at]
		}
	}
	if !ac.hoist || !noWrap(ac, ac, ac.pos) {
		return -1
	}
	gi := len(e.groups)
	if at >= 0 {
		e.open[at] = gi
	} else {
		e.open = append(e.open, gi)
	}
	e.groups = append(e.groups, group{lead: *ac, lo: ac.pos, hi: ac.pos + int64(ac.size), write: ac.write,
		pre: e.loops && !e.movedAtBegin(ac) && (i == 0 || !e.writes(ac)), uop: i})
	return gi
}

// writes reports whether a micro-op of the trace may write an address
// register of ac.
func (e *nemit) writes(ac *access) bool {
	for _, r := range [2]int{ac.hb, ac.hi} {
		if r >= 0 && e.written&(1<<r) != 0 {
			return true
		}
	}
	return false
}

// moved reports whether, by the write log sym and off, an address
// register of ac holds other than its entry value.
func (e *nemit) moved(ac *access, sym *[16]uint32, off *[16]int64) bool {
	for _, r := range [2]int{ac.hb, ac.hi} {
		if r >= 0 && (sym[r] != e.entrySym[r] || off[r] != 0) {
			return true
		}
	}
	return false
}

// movedAtBegin reports whether an address register of ac held other than
// its entry value at the start of the micro-op being emitted.
func (e *nemit) movedAtBegin(ac *access) bool {
	for _, r := range [2]int{ac.hb, ac.hi} {
		if r < 0 {
			continue
		}
		if sym, off := e.a.atBegin(r); sym != e.entrySym[r] || off != 0 {
			return true
		}
	}
	return false
}

// noWrap reports whether ac may rely on a check that leader's micro-op
// makes for a span starting at lo. The check proves a fact about the
// 64-bit sum reg*scale+c for the value reg held then; a one-register
// operand after the register has since moved by a constant k computes
// (reg+k mod 2^32)*scale+d, which is the same address only if reg+k did
// not wrap. The check bounds reg*scale from below by floor-c, at least a
// page, so reg+k >= 0 follows when the span starts no more than a page
// above scale times the register's present value — which holds for every
// small or negative displacement ([esp+8] after a push) and fails for a
// table address under a moved index, which then gets a check of its own.
// (reg+k < 2^32 needs no condition: the windows end below 2^30.)
func noWrap(ac, leader *access, lo int64) bool {
	if ac.shape != shapeOne || ac.regOff == leader.startOff {
		return true
	}
	return lo-int64(ac.scale)*ac.regOff <= pageSize
}

// inBody reports whether a group from led on has its check in the body.
func (e *nemit) inBody(led int) bool {
	for gi := led; gi < len(e.groups); gi++ {
		if !e.groups[gi].pre {
			return true
		}
	}
	return false
}

// emitChecks emits, at the start of micro-op i, the check of every group
// from led on that is checked in the body: the ones i's first emission
// found it leads. A failure leaves the trace through i's ExitResume, with
// nothing of i executed.
func (e *nemit) emitChecks(i, led int) {
	s := e.exit(Exit{Kind: ExitResume, Uop: i})
	e.ledger.Resumes++
	for gi := led; gi < len(e.groups); gi++ {
		g := &e.groups[gi]
		if g.pre {
			continue
		}
		g.at = e.a.here()
		n := e.a.n
		f := e.check(g)
		e.checkHot += e.a.n - n
		e.stub(pstub{kind: stubResume, s: s, arg: gi}, fixes{f, -1})
		e.checks++
	}
}

// check emits the mainline of g's check for the span and the floor g has
// now, with every constant in a 32-bit field, which fixChecks rewrites
// for the ones g ends the trace with. It returns the jump taken when the
// mainline test fails — to the fallback, or, for a constant span, to the
// failure itself — and sets g.back to the code behind it.
func (e *nemit) check(g *group) fix {
	a := &e.a
	a.long = true
	var f fix
	if g.lead.shape == shapeAbs {
		// A constant span above every floor and below the stack: only the
		// heap's end is left to ask about.
		a.aluI(aluCmpExt, fld(offBrk), uint32(g.hi))
		f = a.jcc(byte(x86.CCB))
		g.back = a.here()
	} else {
		t := e.test(g)
		f = e.fastTest(&t)
		g.back = t.back
	}
	a.long = false
	return f
}

// fallback emits, out of line, the rest of g's check for the span and the
// floor g ended the trace with; a constant span has none.
func (e *nemit) fallback(g *group) {
	if g.lead.shape != shapeAbs {
		t := e.test(g)
		t.back = g.back
		e.slowTest(&t)
	}
}

// test is g's check as a rangeTest.
func (e *nemit) test(g *group) rangeTest {
	l := &g.lead
	c := int32(g.lo - l.startPos)
	t := rangeTest{addr: sib(l.hb, l.hi, l.scale, c), write: g.write, span: uint32(g.hi - g.lo), stackFirst: l.stack}
	if l.shape == shapeOne {
		t.addr, t.wide = at(l.hb, c), true
		if l.hb < 0 {
			t.addr = sib(-1, l.hi, l.scale, c)
		}
	}
	return t
}

// fixChecks writes the constants of every group's check in the body for
// the span and the floor the group ended the trace with, over the 32-bit
// fields check left for them: the last four bytes of the instruction
// ahead of the check's jump — the heap's end for a constant span, else the
// compare's HeapFast field or stack limit — and, ahead of that compare,
// which is seven bytes either way, of the lea's displacement.
func (e *nemit) fixChecks() {
	c := e.a.c
	for gi := range e.groups {
		g := &e.groups[gi]
		if g.pre {
			continue
		}
		f := g.back - 6 // the jump
		if g.lead.shape == shapeAbs {
			binary.LittleEndian.PutUint32(c[f-4:], uint32(g.hi))
			continue
		}
		t := e.test(g)
		cmp, d := uint32(heapField(offHeapFast, t.write)), e.floor(t.write)
		if t.stackFirst {
			cmp, d = e.mlen-t.span-e.sbase, e.sbase
		}
		binary.LittleEndian.PutUint32(c[f-4:], cmp)
		binary.LittleEndian.PutUint32(c[f-11:], uint32(t.addr.disp-int32(d)))
	}
}

// hoist makes the checks of the pre groups ahead of the loop label, once
// the trace is emitted: it inserts them behind the entry's store of Cur
// and moves everything from the loop label on behind them, which changes
// none of the relative jumps among what moves. The checks no loop edge
// moves a register of come first — those written promises; then, from
// recheck on, the others, micro-op 0's on registers the loop moves. A loop
// edge lands on the loop label unless it has moved a register a check was
// made on, and on recheck if it has: on every pass the registers hold at
// the loop label what the checks were made on. Their fallbacks follow
// everything else, and a failed check leaves through an ExitResume at
// micro-op 0, behind the last of them, that refunds nothing, as the pass
// it stands before is not charged yet. hoist returns how far the code
// from the loop label on moved and the instructions it put ahead of it.
func (e *nemit) hoist() (shift int32, hot int) {
	e.recheck = e.loop
	pre := 0
	for gi := range e.groups {
		if e.groups[gi].pre {
			pre++
		}
	}
	if pre == 0 {
		return 0, 0
	}
	body := e.a
	a := &e.a
	*a = nasm{c: append(e.spare[:0], body.c[:e.loop]...)}
	e.spare = body.c
	fx := e.fails[:0] // the checks' jumps, then the jumps to the exit
	for _, moved := range [2]bool{false, true} {
		if moved {
			e.recheck = a.here()
		}
		for gi := range e.groups {
			if g := &e.groups[gi]; g.pre && e.variant(g) == moved {
				fx = append(fx, e.check(g))
				e.checks++
			}
		}
	}
	e.checkHot += a.n
	shift, hot = a.here()-e.loop, a.n
	a.c = append(a.c, body.c[e.loop:]...)
	a.n += body.n
	s := e.exit(Exit{Kind: ExitResume})
	x := &e.exits[s-1]
	x.Refund, x.RefundUops = 0, 0
	e.ledger.Resumes++
	e.ledger.Hoisted = int64(pre)
	// The fallbacks, in the order of the checks; each but a constant
	// span's, which has none, jumps on to the exit when it fails too.
	n := len(fx)
	k := 0
	for _, moved := range [2]bool{false, true} {
		for gi := range e.groups {
			if g := &e.groups[gi]; g.pre && e.variant(g) == moved {
				if g.lead.shape == shapeAbs {
					fx = append(fx, fx[k])
				} else {
					a.patch(fx[k])
					e.fallback(g)
					fx = append(fx, a.jmp())
				}
				k++
			}
		}
	}
	if last := len(fx) - 1; fx[last] == fix(a.here()-4) {
		// The last fallback falls into the exit.
		a.c, a.n, fx = a.c[:len(a.c)-5], a.n-1, fx[:last]
	}
	for _, f := range fx[n:] {
		a.patch(f)
	}
	e.fails = fx
	a.retStatus(s)
	for k := range e.edges {
		j := &e.edges[k]
		to := e.loop + shift
		for gi := range e.groups {
			if g := &e.groups[gi]; g.pre && e.moved(&g.lead, &j.sym, &j.off) {
				to = e.recheck
				e.exits[j.s-1].Recheck = true
				break
			}
		}
		a.patchTo(j.at+fix(shift), to)
	}
	e.loop += shift
	for k := range e.relocs {
		e.relocs[k].at += fix(shift)
	}
	for gi := range e.groups {
		if g := &e.groups[gi]; g.pre {
			e.hoisted = append(e.hoisted, g.uop)
		}
	}
	return shift, hot
}

// variant reports whether some loop edge moves a register g's check was
// made on.
func (e *nemit) variant(g *group) bool {
	for k := range e.edges {
		if e.moved(&g.lead, &e.edges[k].sym, &e.edges[k].off) {
			return true
		}
	}
	return false
}

// floor is where the heap window starts for a read, or for a write.
func (e *nemit) floor(write bool) uint32 {
	if write {
		return e.ro
	}
	return pageSize
}

// rangeTest is the sandbox test on an address: [x, x+span) must lie inside
// [floor, Brk) or [StackBase, MemLen) — Geometry.ReadOK/WriteOK to the
// letter when span is the access size — with the write floor for a write.
// x is the sum addr describes as a lea operand: taken exactly when wide,
// mod 2^32 otherwise. stackFirst tries the stack window first. back is
// the code offset behind the test's mainline, where its fallback returns.
type rangeTest struct {
	addr       rm
	wide       bool
	write      bool
	span       uint32
	stackFirst bool
	back       int32
}

// leaX forms the test's address, less d, in RDX.
func (e *nemit) leaX(t *rangeTest, d uint32) {
	o := t.addr
	o.disp -= int32(d)
	if t.wide {
		e.a.lea64(hDX, o)
	} else {
		e.a.lea(hDX, o)
	}
}

// fastTest emits the mainline of t: one lea, one compare and a jump to the
// fallback that is not taken when the test passes. Heap first, that is
// x-floor below the floor's HeapFast, which puts [x, x+pageSize) in the
// heap window, so no Brk is loaded and no span subtracted; stack first,
// the stack window's test. It returns the jump and sets t.back. Clobbers
// RDX and the flags.
func (e *nemit) fastTest(t *rangeTest) fix {
	a := &e.a
	var f fix
	if t.stackFirst {
		e.leaX(t, e.sbase)
		a.aluI64(aluCmpExt, rg(hDX), e.mlen-t.span-e.sbase)
		f = a.jcc(byte(x86.CCA))
	} else {
		e.leaX(t, e.floor(t.write))
		a.alu64(aluCmpRM, hDX, fld(heapField(offHeapFast, t.write)))
		f = a.jcc(byte(x86.CCAE))
	}
	t.back = a.here()
	return f
}

// slowTest emits the fallback of t, reached from its mainline with RDX as
// that left it: the exact heap test, x-floor+span at most the floor's
// HeapTop with x-floor not negative — which the 64-bit sum of a wide test
// may be, so that test first rules it out — and, heap first, then the
// stack window's test. It jumps back to t.back when one passes and falls
// through when none does. Clobbers RDX and the flags.
func (e *nemit) slowTest(t *rangeTest) {
	a := &e.a
	floor := e.floor(t.write)
	top := fld(heapField(offHeapTop, t.write))
	neg := fix(-1)
	switch {
	case t.stackFirst:
		e.leaX(t, floor)
		if t.wide {
			a.alu64(aluCmpRM, hDX, top)
			neg = a.jcc(byte(x86.CCAE))
		}
	case t.wide:
		// The flags are the mainline's compare of x-floor with HeapFast,
		// which is less, signed, only for a negative x-floor.
		neg = a.jcc(byte(x86.CCL))
	}
	a.lea64(hDX, at(hDX, int32(t.span)))
	a.alu64(aluCmpRM, hDX, top)
	a.patchTo(a.jcc(byte(x86.CCBE)), t.back)
	if !t.stackFirst {
		a.lea64(hDX, at(hDX, int32(int64(floor)-int64(e.sbase)-int64(t.span))))
		a.aluI64(aluCmpExt, rg(hDX), e.mlen-t.span-e.sbase)
		a.patchTo(a.jcc(byte(x86.CCBE)), t.back)
	}
	if neg >= 0 {
		a.patch(neg)
	}
}

// heapField is the Machine field off, HeapTop or HeapFast, for the floor
// of a write or a read.
func heapField(off int32, write bool) int32 {
	if write {
		return off + 8
	}
	return off
}

// ---- memory operands -----------------------------------------------------

// hostEA is the guest address x as a host lea operand over the pinned
// registers.
func hostEA(x ea) rm {
	o := sib(-1, -1, x.scale, int32(x.disp))
	if x.base != uop.RegZero {
		o.base = hostReg[x.base]
	}
	if x.idx != uop.RegZero {
		o.idx = hostReg[x.idx]
	}
	return o
}

// leaTo computes the guest address x into host register dst.
func (e *nemit) leaTo(dst int, x ea) {
	if o := hostEA(x); o.base < 0 && o.idx < 0 {
		e.a.movI(rg(dst), x.disp)
	} else {
		e.a.lea(dst, o)
	}
}

// opnd returns the host operand for the size-byte guest memory access at
// x by micro-op i, a write or a read; eip and started describe the fault
// it may raise (the trap EIP — a fused pair's second instruction keeps
// its own in a spare field — and how many of the micro-op's instructions
// have begun). An access that found a group is covered by the group's
// check and is used as it stands; for one that did not, the address goes
// to ECX, is checked exactly, and the operand is [rsi+rcx]. Clobbers
// RCX, RDX and the flags, and RCX may be part of the operand.
func (e *nemit) opnd(i int, x ea, size uint32, write bool, eip uint32, started int) rm {
	e.accesses++
	o := hostEA(x)
	var ac access
	e.survey(&ac, x, o, size, write)
	g := e.join(i, &ac)
	e.last = g
	if g < 0 {
		return e.exact(i, x, size, write, eip, started)
	}
	switch e.groups[g].lead.shape {
	case shapeAbs:
		return at(hSI, int32(x.disp))
	case shapeOne:
		if o.idx < 0 {
			return sib(hSI, o.base, 1, o.disp)
		}
		return sib(hSI, o.idx, o.scale, o.disp)
	default:
		e.a.lea(hCX, o)
		return sib(hSI, hCX, 1, 0)
	}
}

// survey describes the access at x, o as a host operand, for join.
func (e *nemit) survey(ac *access, x ea, o rm, size uint32, write bool) {
	a := &e.a
	ac.size, ac.write, ac.hb, ac.hi, ac.hoist, ac.stack = size, write, o.base, o.idx, true, stackBased(x)
	scale := int64(x.scale)
	switch {
	case o.base < 0 && o.idx < 0:
		ac.shape, ac.pos = shapeAbs, int64(x.disp)
	case o.base < 0 || o.idx < 0:
		r := o.idx
		if r < 0 {
			r, scale = o.base, 1
		}
		sym, off := a.atBegin(r)
		ac.shape, ac.symB, ac.scale = shapeOne, a.sym[r], uint8(scale)
		ac.regOff, ac.startOff = a.off[r], off
		ac.pos = scale*a.off[r] + int64(int32(x.disp))
		ac.startPos = scale * off
		ac.hoist = a.sym[r] == sym
	default:
		bsym, boff := a.atBegin(o.base)
		isym, ioff := a.atBegin(o.idx)
		ac.shape, ac.symB, ac.symI, ac.scale = shapeTwo, a.sym[o.base], a.sym[o.idx], x.scale
		ac.pos = a.off[o.base] + scale*a.off[o.idx] + int64(int32(x.disp))
		ac.startPos = boff + scale*ioff
		ac.hoist = a.sym[o.base] == bsym && a.sym[o.idx] == isym
	}
}

// exact checks the access in place: the address in ECX against
// Geometry.ReadOK/WriteOK, a fault exit of its own behind it.
func (e *nemit) exact(i int, x ea, size uint32, write bool, eip uint32, started int) rm {
	e.leaTo(hCX, x)
	e.stackFirst = stackBased(x)
	e.checkCX(i, size, write, eip, started)
	return sib(hSI, hCX, 1, 0)
}

func (e *nemit) checkCX(i int, size uint32, write bool, eip uint32, started int) {
	kind := ExitReadFault
	if write {
		kind = ExitWriteFault
	}
	e.checks++
	s := e.exit(Exit{Kind: kind, Uop: i, EIP: eip, Size: size, Started: started})
	t := rangeTest{addr: at(hCX, 0), write: write, span: size, stackFirst: e.stackFirst}
	n := e.a.n
	f := e.fastTest(&t)
	e.checkHot += e.a.n - n
	e.stub(pstub{kind: stubFault, s: s, test: t}, fixes{f, -1})
}

// alsoWrite turns the operand opnd just returned for a read into one the
// micro-op may now store to: where it was checked in place, the write
// check follows on the address still in ECX (a read-only word faults as
// a write, after the read and whatever the micro-op did in between,
// exactly as on tier 1); a grouped operand's check takes the write floor.
func (e *nemit) alsoWrite(i int, size uint32, eip uint32, started int) {
	if e.last < 0 {
		e.checkCX(i, size, true, eip, started)
	} else {
		e.groups[e.last].write = true
	}
}

// ---- exit-table helpers ---------------------------------------------------

func (e *nemit) exit(x Exit) int32 {
	e.exits = append(e.exits, newExit(e.us, e.tail, x))
	return int32(len(e.exits))
}

func (e *nemit) end(i int, target uint32) int32 {
	return e.exit(Exit{Kind: ExitEnd, Uop: i, Target: target})
}

// stub registers the out-of-line path p reached from fixes. It is emitted
// after the mainline, with the flag state — and for a path that may end
// in a loop edge, the write log — the mainline had here.
func (e *nemit) stub(p pstub, fs fixes) {
	p.fixes, p.flOp, p.log = fs, e.flOp, -1
	if p.kind == stubLink || p.kind == stubGuardNF {
		p.log = int32(len(e.logs))
		e.logs = append(e.logs, wlog{e.a.sym, e.a.off})
	}
	e.pend = append(e.pend, p)
}

// refund gives back what the entry charged for the part of the trace
// exit s leaves unexecuted. It clobbers RDX, which no exit path holds
// anything in at this point.
func (e *nemit) refund(s int32) {
	if x := &e.exits[s-1]; x.Refund != 0 || x.RefundUops != 0 {
		r := uint64(x.Refund)<<meterShift - x.RefundUops
		e.a.movI64(hDX, r)
		e.a.alu64(aluAddRM, hR14, rg(hDX))
	}
}

// leave ends the run with exit s, which owns no link slot, through the
// shared exit code at to — sharedExits.leave, or sharedExits.fault for a
// failed exact check, which stores the address in ECX first: "lea rdx,
// [rip+desc]; jmp to", the exit's descriptor giving the refund and the
// status. An exit with no refund and no address to store returns its
// status itself, as short.
func (e *nemit) leave(s int32, to int32) {
	a := &e.a
	if x := &e.exits[s-1]; to == sharedExits.leave && x.Refund == 0 && x.RefundUops == 0 {
		a.retStatus(s)
		return
	}
	k := slices.Index(e.descs, s)
	if k < 0 {
		k = len(e.descs)
		e.descs = append(e.descs, s)
	}
	e.relocs = append(e.relocs, reloc{at: a.leaRip(hDX), to: int32(k), desc: true}, reloc{at: a.jmp(), to: to})
}

// descSize is the size of an exit descriptor: the refund as the meter
// adds it, then the status, as the shared exit code reads them.
const descSize = 16

// slot gives exit s the trace's next link slot, which leads to the shared
// exit code at to until the VM links it, and returns its byte offset from
// the trace's first.
func (e *nemit) slot(s int32, to int32) int32 {
	x := &e.exits[s-1]
	x.Slot = len(e.slots)
	e.slots = append(e.slots, to)
	return int32(x.Slot) * int32(LinkSize)
}

// link leaves through exit s's link slot (a static-target exit): refund,
// then jump wherever the slot says with the target's slot offset in DX —
// into the linked trace, or, until the VM links the edge, to the arena's
// shared return with the exit's status, which the unlinked slot holds
// where a linked one holds the offset.
//
// An exit back to this trace's own entry is the loop back edge. If the
// trace consumed its entry flag state, the edge restores the FlagNone
// entry invariant the dispatcher guaranteed the first pass (and says so,
// Exit.Eager); with the state unknown it cannot, and the loop goes
// through the dispatcher. Otherwise — exactly where VM.link would link the
// slot: the trace needs no entry flags, or the edge leaves them so — the
// edge owns no slot and jumps straight to the loop label (Exit.Loop).
// Whether the trace reads its entry flags is known by then: link runs for
// the terminator, after every flag read of the mainline, or for a guard in
// its stub, after the whole mainline, and no stub reads the entry state.
func (e *nemit) link(s int32) {
	a := &e.a
	x := &e.exits[s-1]
	if x.Target == e.entry && e.usedEntry {
		switch e.flOp {
		case flUnknown:
		case flEntry, int(uop.FlagNone):
			x.Eager = true
		default:
			e.matAll()
			x.Eager = true
		}
	}
	e.refund(s)
	if x.Target == e.entry && (!e.usedEntry || x.Eager) {
		e.loopJump(s, a.jmp())
		return
	}
	off := e.slot(s, sharedExits.ret)
	a.mov64(hAX, fld(offCur))
	a.alu64(aluAddRM, hAX, fld(offLinks))
	a.mov(hDX, at(hAX, off+linkCur))
	a.jmpM(at(hAX, off+linkEntry))
}

// linkStub is link as an out-of-line path reached from f. A loop edge
// that has nothing to refund (a terminator's) and nothing to materialize
// needs no path: f jumps straight to the loop label.
func (e *nemit) linkStub(s int32, f fix) {
	x := &e.exits[s-1]
	if x.Target == e.entry && x.Refund == 0 && x.RefundUops == 0 &&
		(!e.usedEntry || e.flOp == flEntry || e.flOp == int(uop.FlagNone)) {
		x.Eager = e.usedEntry
		e.loopJump(s, f)
		return
	}
	e.stub(pstub{kind: stubLink, s: s}, fixes{f, -1})
}

// loopJump makes exit s a loop edge by the jump whose rel32 is at f: to
// the loop label, where hoist may move it.
func (e *nemit) loopJump(s int32, f fix) {
	e.exits[s-1].Loop = true
	e.a.patchTo(f, e.loop)
	e.edges = append(e.edges, edge{s: s, at: f, sym: e.a.sym, off: e.a.off})
}

// linkInd leaves through exit s's slot used as a one-entry inline cache
// (a dynamic-target exit, the guest target in reg, which must be neither
// CX nor DX): refund, then enter the slot's trace if the slot was linked
// for this target, else hand the target to the dispatcher — "mov edx, s"
// and on to the arena's shared miss path for reg. The slot's unlinked
// content is that miss path with s as its Cur, so an unlinked slot misses
// even when the target happens to equal its zero Addr.
func (e *nemit) linkInd(s int32, reg int) {
	a := &e.a
	e.refund(s)
	off := e.slot(s, sharedExits.miss[reg])
	a.mov64(hCX, fld(offCur))
	a.alu64(aluAddRM, hCX, fld(offLinks))
	a.alu(aluCmpRM, reg, at(hCX, off+linkAddr))
	miss := a.jcc(byte(x86.CCNE))
	a.mov(hDX, at(hCX, off+linkCur))
	a.jmpM(at(hCX, off+linkEntry))
	a.patch(miss)
	a.movI(rg(hDX), uint32(s))
	e.relocs = append(e.relocs, reloc{at: a.jmp(), to: sharedExits.miss[reg]})
}

// ---- byte slots ----------------------------------------------------------

// byteOf loads byte sh/8 of host register src, zero-extended, into dst.
func (e *nemit) byteOf(dst, src int, sh uint8) {
	if sh == 0 {
		e.a.movx(movzx8, dst, rg(src))
		return
	}
	e.a.movx(movzx16, dst, rg(src))
	e.a.shiftI(shrExt, dst, sh)
}

// insByte writes the byte value in EAX (0..255) into byte dsh/8 of host
// register dst. Clobbers EAX and the flags.
func (e *nemit) insByte(dst int, dsh uint8) {
	a := &e.a
	if dsh == 0 {
		a.mov8(dst, rg(hAX))
		return
	}
	a.shiftI(shlExt, hAX, dsh)
	a.aluI(aluAndExt, rg(dst), ^(uint32(0xFF) << dsh))
	a.aluTo(aluOrMR, rg(dst), hAX)
}

// ---- flag records --------------------------------------------------------
//
// A writer stores the fields its FlagOp reads and no others (uop.Flags).
// Each helper also advances the static flag-state tracker; helpers
// invoked from exit stubs run after the whole mainline is emitted, so
// the stray update cannot mislead a later consumer.

// opd is a second ALU operand: an immediate, or a register or memory.
type opd struct {
	o   rm
	imm uint32
	isI bool
}

func immOp(imm uint32) opd { return opd{imm: imm, isI: true} }
func rmOp(o rm) opd        { return opd{o: o} }

// apply emits "op dst, b" with the selectors of one ALU operation.
func (e *nemit) apply(opRM byte, ext int, dst int, b opd) {
	if b.isI {
		e.a.aluI(ext, rg(dst), b.imm)
	} else {
		e.a.alu(opRM, dst, b.o)
	}
}

// recB stores Fl.B.
func (e *nemit) recB(b opd) {
	if b.isI {
		e.a.movI(fld(offFlB), b.imm)
	} else {
		e.a.movTo(fld(offFlB), b.o.base)
	}
}

// recRes stores Fl.Res and the FlagOp, which completes a record.
func (e *nemit) recRes(op uop.FlagOp, res int) {
	e.a.movTo(fld(offFlRes), res)
	e.a.movI(fld(offFlOp), uint32(op))
	e.flOp = int(op)
}

// recSZP is the partial record of VM.uimul/umul1: Fl.Op, Fl.Res = FlagSZP,
// res — a byte store (KeptCF preserved) plus the result.
func (e *nemit) recSZP(res int) {
	e.a.movI8(fld(offFlOp), byte(uop.FlagSZP))
	e.a.movTo(fld(offFlRes), res)
	e.flOp = int(uop.FlagSZP)
}

// aluSel is one ALU operation's encodings and flag record: arith
// records its operands, wb writes its result back. mr is the store form
// ("op r/m, reg") of the operations a quiet read-modify-write emits.
type aluSel struct {
	rm, mr    byte
	ext       int
	fo, fo8   uop.FlagOp
	arith, wb bool
}

var aluSels = [...]aluSel{
	uop.AluAdd:  {aluAddRM, aluAddMR, aluAddExt, uop.FlagAdd, uop.FlagAdd8, true, true},
	uop.AluAdc:  {aluAddRM, 0, aluAddExt, uop.FlagAdc, uop.FlagAdc8, true, true},
	uop.AluSub:  {aluSubRM, aluSubMR, aluSubExt, uop.FlagSub, uop.FlagSub8, true, true},
	uop.AluSbb:  {aluSubRM, 0, aluSubExt, uop.FlagSbb, uop.FlagSbb8, true, true},
	uop.AluAnd:  {aluAndRM, aluAndMR, aluAndExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluOr:   {aluOrRM, aluOrMR, aluOrExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluXor:  {aluXorRM, aluXorMR, aluXorExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluCmp:  {aluSubRM, 0, aluSubExt, uop.FlagSub, uop.FlagSub8, true, false},
	uop.AluTest: {aluAndRM, 0, aluAndExt, uop.FlagLogic, uop.FlagLogic8, false, false},
}

// alu32 emits "dst = dst op b" at 32 bits, mirroring VM.ualu: dst
// is a pinned register or the memory operand opnd returned, b a pinned
// register, an immediate or (register dst only) memory; rec writes the
// flag record. A memory destination is stored through alsoWrite, after
// the record; with no record to write it is one host instruction on the
// guest word, behind the write check as well as the read check. Returns
// false for ADC/SBB after a conditional flag writer. Clobbers EAX, EDX
// and R8.
func (e *nemit) alu32(i int, op uop.AluOp, dst rm, b opd, rec bool) bool {
	a := &e.a
	u := &e.us[i]
	sel := aluSels[op]
	if !rec && !sel.wb {
		// A quiet compare computes nothing; its memory operand, checked
		// by opnd, is still read.
		switch {
		case !dst.direct():
			a.mov(hAX, dst)
		case !b.isI && !b.o.direct():
			a.mov(hAX, b.o)
		}
		return true
	}
	res := dst.base
	switch {
	case op == uop.AluAdc || op == uop.AluSbb:
		if e.flOp == flUnknown {
			return false // stays on tier-1
		}
		res = e.carry(sel, func(r int) { a.mov(r, dst) }, func(r int) opd {
			if !b.isI && !b.o.direct() {
				a.mov(r, b.o)
				return rmOp(rg(r))
			}
			return b
		}, false, rec)
	case !rec && !dst.direct():
		// A quiet read-modify-write: "op [m], b". Nothing of it is visible
		// before the store, so both checks may come first.
		e.alsoWrite(i, 4, u.EIP, 1)
		if b.isI {
			a.aluI(sel.ext, dst, b.imm)
		} else {
			a.aluTo(sel.mr, dst, b.o.base)
		}
		return true
	case !dst.direct() || !sel.wb:
		// The result goes to memory or nowhere: work in EAX.
		if rec && sel.arith && !b.isI && !b.o.direct() {
			a.mov(hDX, b.o)
			b = rmOp(rg(hDX))
		}
		res = hAX
		a.mov(hAX, dst)
		if rec && sel.arith {
			a.movTo(fld(offFlA), hAX)
			e.recB(b)
		}
		e.apply(sel.rm, sel.ext, hAX, b)
		if rec {
			e.recRes(sel.fo, hAX)
		}
	default:
		if rec && sel.arith {
			if !b.isI && !b.o.direct() {
				a.mov(hDX, b.o)
				b = rmOp(rg(hDX))
			}
			a.movTo(fld(offFlA), res)
			e.recB(b)
		}
		e.apply(sel.rm, sel.ext, res, b)
		if rec {
			e.recRes(sel.fo, res)
		}
		return true
	}
	switch {
	case !sel.wb:
	case dst.direct():
		a.mov(dst.base, rg(res))
	default:
		e.alsoWrite(i, 4, u.EIP, 1)
		a.movTo(dst, res)
	}
	return true
}

// carry emits ADC/SBB for alu32/alu8: materialize the carry-in from the
// current record (which must be known), fetch a and b — loadA puts a in
// the register it is handed, loadB returns b as an immediate, a pinned
// register or the scratch register it is handed — combine, and, when
// rec, write the full record including Cin, mirroring VM.ualu. The result
// is left in R8 (which a later write check does not clobber) and R8
// returned. The operand a memory form got from opnd may live in RCX,
// which the materializer clobbers, so RCX is kept on the stack across it.
func (e *nemit) carry(sel aluSel, loadA func(int), loadB func(int) opd, byteWidth, rec bool) int {
	a := &e.a
	a.push(hCX)
	e.cfValue(hAX) // cin
	a.pop(hCX)
	loadA(hR8)
	b := loadB(hDX)
	if rec {
		a.movTo(fld(offFlA), hR8)
		e.recB(b)
		a.movTo(fld(offFlCin), hAX)
	}
	e.apply(sel.rm, sel.ext, hR8, b)
	a.alu(sel.rm, hR8, rg(hAX)) // ± cin
	fo := sel.fo
	if byteWidth {
		a.aluI(aluAndExt, rg(hR8), 0xFF)
		fo = sel.fo8
	}
	if rec {
		e.recRes(fo, hR8)
	}
	return hR8
}

// alu8 is the byte-width ALU, mirroring VM.ualu8. loadA and loadB
// fetch the pre-masked operands as for carry, rec writes the flag
// record; the masked result is returned in R8 for the caller to write
// back, ok false for ADC/SBB after a conditional flag writer.
// Clobbers EAX, EDX and R8.
func (e *nemit) alu8(op uop.AluOp, loadA func(int), loadB func(int) opd, rec bool) (res int, ok bool) {
	a := &e.a
	sel := aluSels[op]
	if op == uop.AluAdc || op == uop.AluSbb {
		if e.flOp == flUnknown {
			return 0, false
		}
		return e.carry(sel, loadA, loadB, true, rec), true
	}
	b := loadB(hDX)
	loadA(hAX)
	a.mov(hR8, rg(hAX))
	e.apply(sel.rm, sel.ext, hR8, b)
	if sel.arith {
		a.aluI(aluAndExt, rg(hR8), 0xFF)
	}
	if rec {
		if sel.arith {
			a.movTo(fld(offFlA), hAX)
			e.recB(b)
		}
		e.recRes(sel.fo8, hR8)
	}
	return hR8, true
}

// shiftSel maps a ShOp to its /ext and FlagOp.
func shiftSel(op uop.ShOp) (int, uop.FlagOp) {
	switch op {
	case uop.ShShl:
		return shlExt, uop.FlagShl
	case uop.ShShr:
		return shrExt, uop.FlagShr
	}
	return sarExt, uop.FlagSar
}

// pop emits "dst = pop" for micro-op i: a popped ESP wins over the
// increment.
func (e *nemit) pop(i int, dst int, eip uint32, started int) {
	esp := hostReg[x86.ESP]
	e.a.mov(dst, e.opnd(i, stackEA(0), 4, false, eip, started))
	if dst != esp {
		e.a.aluI(aluAddExt, rg(esp), 4)
	}
}

// push emits "push src" (a pinned register, or an immediate when src < 0).
func (e *nemit) push(i int, src int, imm uint32, eip uint32, started int) {
	m := e.opnd(i, stackEA(-4), 4, true, eip, started)
	if src < 0 {
		e.a.movI(m, imm)
	} else {
		e.a.movTo(m, src)
	}
	e.a.aluI(aluSubExt, rg(hostReg[x86.ESP]), 4)
}

// one emits micro-op i, in program order on the pinned registers, so a
// fused pair's second half sees what its first half wrote exactly as on
// tier 1. Returns false on a micro-op the native backend cannot express
// without materializing lazy flags.
func (e *nemit) one(i int) bool {
	u := &e.us[i]
	a := &e.a
	gd, gs := hostReg[u.Dst&7], hostReg[u.Src&7]
	ga := hostReg[u.Aux&7] // a register only for the kinds that say so
	esp, gax, gcx, gdx := hostReg[x86.ESP], hostReg[x86.EAX], hostReg[x86.ECX], hostReg[x86.EDX]
	imm, dsh, ssh := u.Imm, u.Dsh, u.Ssh
	cc := byte(u.Sub)
	aluOp := uop.AluOp(u.Sub)
	rd := func(size uint32) rm { return e.opnd(i, uea(u), size, false, u.EIP, 1) }
	wr := func(size uint32) rm { return e.opnd(i, uea(u), size, true, u.EIP, 1) }

	// A kind and its NF twin share an arm: the twin writes no flag record.
	r := &uop.Kinds[u.Kind]
	rec := r.Def != 0
	if r.Spec {
		// "Dst = Dst op Src" or "Dst = Dst op Imm".
		b := rmOp(rg(gs))
		if r.Imm {
			b = immOp(imm)
		}
		return e.alu32(i, r.Alu, rg(gd), b, rec)
	}
	switch u.Kind {
	case uop.KindNop:

	// --- moves ---
	case uop.KindMovRR:
		if gd != gs {
			a.mov(gd, rg(gs))
		}
	case uop.KindMovRI:
		a.movI(rg(gd), imm)
	case uop.KindMovRR8:
		if dsh == 0 && ssh == 0 {
			a.mov8(gd, rg(gs))
		} else {
			e.byteOf(hAX, gs, ssh)
			e.insByte(gd, dsh)
		}
	case uop.KindMovRI8:
		if dsh == 0 {
			a.movI8(rg(gd), byte(imm))
		} else {
			a.aluI(aluAndExt, rg(gd), ^(uint32(0xFF) << dsh))
			if v := (imm & 0xFF) << dsh; v != 0 {
				a.aluI(aluOrExt, rg(gd), v)
			}
		}
	case uop.KindLoad:
		a.mov(gd, rd(4))
	case uop.KindLoad8:
		if m := rd(1); dsh == 0 {
			a.mov8(gd, m)
		} else {
			a.movx(movzx8, hAX, m)
			e.insByte(gd, dsh)
		}
	case uop.KindStore:
		a.movTo(wr(4), gs)
	case uop.KindStore8:
		if m := wr(1); ssh == 0 {
			a.movTo8(m, gs)
		} else {
			e.byteOf(hAX, gs, ssh)
			a.movTo8(m, hAX)
		}
	case uop.KindStoreI:
		a.movI(wr(4), imm)
	case uop.KindStoreI8:
		a.movI8(wr(1), byte(imm))
	case uop.KindLea:
		e.leaTo(gd, uea(u))

	// --- widening moves ---
	case uop.KindMovzxRR8:
		e.byteOf(gd, gs, ssh)
	case uop.KindMovzxRR16:
		a.movx(movzx16, gd, rg(gs))
	case uop.KindMovzxRM8:
		a.movx(movzx8, gd, rd(1))
	case uop.KindMovzxRM16:
		a.movx(movzx16, gd, rd(2))
	case uop.KindMovsxRR8:
		if ssh == 0 {
			a.movx(movsx8, gd, rg(gs))
		} else {
			e.byteOf(hAX, gs, ssh)
			a.movx(movsx8, gd, rg(hAX))
		}
	case uop.KindMovsxRR16:
		a.movx(movsx16, gd, rg(gs))
	case uop.KindMovsxRM8:
		a.movx(movsx8, gd, rd(1))
	case uop.KindMovsxRM16:
		a.movx(movsx16, gd, rd(2))

	case uop.KindXchgRR:
		a.xchg(gd, gs)

	// --- 32-bit ALU forms, recording and flag-suppressed ---
	case uop.KindIncRNF:
		a.aluI(aluAddExt, rg(gd), 1)
	case uop.KindDecRNF:
		a.aluI(aluSubExt, rg(gd), 1)

	case uop.KindAluRR, uop.KindAluRRNF:
		return e.alu32(i, aluOp, rg(gd), rmOp(rg(gs)), rec)
	case uop.KindAluRI, uop.KindAluRINF:
		return e.alu32(i, aluOp, rg(gd), immOp(imm), rec)
	case uop.KindAluRM, uop.KindAluRMNF:
		return e.alu32(i, aluOp, rg(gd), rmOp(rd(4)), rec)
	case uop.KindAluMR, uop.KindAluMRNF:
		return e.alu32(i, aluOp, rd(4), rmOp(rg(gs)), rec)
	case uop.KindAluMI, uop.KindAluMINF:
		return e.alu32(i, aluOp, rd(4), immOp(imm), rec)

	// --- byte ALU forms ---
	case uop.KindAlu8RR, uop.KindAlu8RRNF, uop.KindAlu8RI, uop.KindAlu8RINF, uop.KindAlu8RM, uop.KindAlu8RMNF:
		var m rm
		if r.Ops&uop.OpMem != 0 {
			m = rd(1)
		}
		res, ok := e.alu8(aluOp, func(reg int) { e.byteOf(reg, gd, dsh) }, func(reg int) opd {
			switch {
			case r.Ops&uop.OpSrc != 0:
				e.byteOf(reg, gs, ssh)
			case r.Ops&uop.OpMem == 0:
				return immOp(imm)
			default:
				a.movx(movzx8, reg, m)
			}
			return rmOp(rg(reg))
		}, rec)
		if !ok {
			return false
		}
		if aluSels[aluOp].wb {
			a.mov(hAX, rg(res))
			e.insByte(gd, dsh)
		}
	case uop.KindAlu8MR, uop.KindAlu8MRNF, uop.KindAlu8MI, uop.KindAlu8MINF:
		m := rd(1)
		res, ok := e.alu8(aluOp, func(reg int) { a.movx(movzx8, reg, m) }, func(reg int) opd {
			if r.Ops&uop.OpSrc == 0 {
				return immOp(imm)
			}
			e.byteOf(reg, gs, ssh)
			return rmOp(rg(reg))
		}, rec)
		if !ok {
			return false
		}
		if aluSels[aluOp].wb {
			e.alsoWrite(i, 1, u.EIP, 1)
			a.movTo8(m, res)
		}

	case uop.KindIncR, uop.KindDecR:
		// INC/DEC preserve CF: materialize it from the current record
		// and write a Keep record carrying it (Op and KeptCF share the
		// low word).
		if e.flOp == flUnknown {
			return false
		}
		fo, ext := uop.FlagAddKeep, aluAddExt
		if u.Kind == uop.KindDecR {
			fo, ext = uop.FlagSubKeep, aluSubExt
		}
		e.cfValue(hAX)
		a.movTo(fld(offFlA), gd)
		a.aluI(ext, rg(gd), 1)
		a.shiftI(shlExt, hAX, 8)
		a.aluI(aluOrExt, rg(hAX), uint32(fo))
		a.movI(fld(offFlB), 1)
		a.movTo(fld(offFlRes), gd)
		a.movTo(fld(offFlOp), hAX) // Op | KeptCF<<8
		e.flOp = int(fo)

	case uop.KindNegR, uop.KindNegRNF:
		if rec {
			a.movTo(fld(offFlB), gd)
		}
		a.unary(negExt, rg(gd))
		if rec {
			a.movI(fld(offFlA), 0)
			e.recRes(uop.FlagSub, gd)
		}
	case uop.KindNotR:
		a.unary(notExt, rg(gd))

	// --- shifts ---
	case uop.KindShiftRI, uop.KindShiftRINF:
		ext, fo := shiftSel(uop.ShOp(u.Sub))
		if rec {
			a.movTo(fld(offFlA), gd)
		}
		if n := byte(imm & 31); n != 0 {
			a.shiftI(ext, gd, n)
		}
		if rec {
			a.movI(fld(offFlB), imm)
			e.recRes(fo, gd)
		}
	case uop.KindShiftRCL:
		ext, fo := shiftSel(uop.ShOp(u.Sub))
		a.mov(hCX, rg(gcx))
		a.aluI(aluAndExt, rg(hCX), 31)
		f := a.jcc(byte(x86.CCE)) // count 0: no write, no record
		a.movTo(fld(offFlA), gd)
		a.shiftCL(ext, gd)
		a.movTo(fld(offFlB), hCX)
		e.recRes(fo, gd)
		a.patch(f)
		e.flOp = flUnknown // record written only when the count was nonzero
	case uop.KindShiftRCLNF:
		ext, _ := shiftSel(uop.ShOp(u.Sub))
		a.mov(hCX, rg(gcx))
		a.shiftCL(ext, gd) // hardware masks the count mod 32 itself

	// --- multiply / divide ---
	case uop.KindImulRR, uop.KindImulRRNF, uop.KindImulRM, uop.KindImulRMNF,
		uop.KindImulRRI, uop.KindImulRRINF, uop.KindImulRMI, uop.KindImulRMINF:
		src := rg(gs)
		if r.Ops&uop.OpMem != 0 {
			src = rd(4)
		}
		switch u.Kind {
		case uop.KindImulRR, uop.KindImulRRNF, uop.KindImulRM, uop.KindImulRMNF:
			a.imul(gd, src)
		default:
			a.imulI(gd, src, imm)
		}
		if rec {
			a.setcc(byte(x86.CCO), fld(offCF))
			a.setcc(byte(x86.CCO), fld(offOF))
			e.recSZP(gd)
		}
	case uop.KindMulR, uop.KindMulRNF, uop.KindMulM, uop.KindMulMNF:
		src := rg(gs)
		if r.Ops&uop.OpMem != 0 {
			src = rd(4)
		}
		a.mov(hAX, rg(gax))
		if u.Sub != 0 {
			a.unary(imulExt, src) // CF=OF=result doesn't fit 32
		} else {
			a.unary(mulExt, src) // CF=OF=(edx != 0)
		}
		if rec {
			a.setcc(byte(x86.CCB), fld(offCF))
			a.setcc(byte(x86.CCB), fld(offOF))
		}
		a.mov(gax, rg(hAX))
		a.mov(gdx, rg(hDX))
		if rec {
			e.recSZP(hAX)
		}
	case uop.KindDivR, uop.KindDivM:
		sd := e.exit(Exit{Kind: ExitDivide, Uop: i, EIP: u.EIP, Started: 1})
		trap := func(aux int, f1, f2 fix) {
			e.stub(pstub{kind: stubTrap, s: sd, arg: aux}, fixes{f1, f2})
		}
		if u.Kind == uop.KindDivR {
			a.mov(hCX, rg(gs))
		} else {
			a.mov(hCX, rd(4))
		}
		a.aluTo(aluTestMR, rg(hCX), hCX)
		trap(0, a.jcc(byte(x86.CCE)), -1)
		a.mov(hAX, rg(gax))
		a.mov(hDX, rg(gdx))
		if u.Sub == 0 {
			// Quotient fits 32 bits iff high(dividend) < divisor; the
			// hardware #DE cases are exactly the guest's overflow trap.
			a.alu(aluCmpRM, hDX, rg(hCX))
			trap(1, a.jcc(byte(x86.CCAE)), -1)
			a.unary(divExt, rg(hCX))
		} else {
			// 64/64 idiv of the sign-extended dividend: the only
			// hardware fault left is INT64_MIN / -1, pre-checked; every
			// other quotient overflow is caught after the divide.
			a.shiftI64(shlExt, hDX, 32)
			a.alu64(aluOrRM, hAX, rg(hDX))
			a.movsxd(hCX, rg(hCX))
			a.aluI64(aluCmpExt, rg(hCX), 0xFFFFFFFF) // rcx == -1?
			fskip := a.jcc(byte(x86.CCNE))
			a.movI64(hDX, 0x8000000000000000)
			a.alu64(aluCmpRM, hAX, rg(hDX))
			fo1 := a.jcc(byte(x86.CCE))
			a.patch(fskip)
			a.cqo()
			a.unary64(idivExt, rg(hCX))
			a.movsxd(hR8, rg(hAX))
			a.alu64(aluCmpRM, hR8, rg(hAX))
			trap(1, fo1, a.jcc(byte(x86.CCNE)))
		}
		a.mov(gax, rg(hAX))
		a.mov(gdx, rg(hDX))
	case uop.KindCdq:
		a.mov(gdx, rg(gax))
		a.shiftI(sarExt, gdx, 31)

	// --- stack ---
	case uop.KindPushR:
		e.push(i, gs, 0, u.EIP, 1)
	case uop.KindPushI:
		e.push(i, -1, imm, u.EIP, 1)
	case uop.KindPushM:
		a.mov(hAX, rd(4))
		e.push(i, hAX, 0, u.EIP, 1)
	case uop.KindPopR:
		e.pop(i, gd, u.EIP, 1)
	case uop.KindPopM:
		e.pop(i, hAX, u.EIP, 1)
		a.movTo(wr(4), hAX) // the store address sees the popped ESP

	case uop.KindSetccR8:
		if !e.flagsCond(cc, hAX, hR8) {
			return false
		}
		e.insByte(gd, dsh)
	case uop.KindSetccM8:
		// Condition first, then the address, as on tier 1.
		if !e.flagsCond(cc, hAX, hR8) {
			return false
		}
		a.movTo8(wr(1), hAX)

	// --- fused compare/setcc and boolean materialization ---
	case uop.KindCmpSetccRR, uop.KindCmpSetccRI, uop.KindCmpBoolRR, uop.KindCmpBoolRI,
		uop.KindTestSetccRR, uop.KindTestSetccRI, uop.KindTestBoolRR, uop.KindTestBoolRI:
		// a = Src, b = Aux or Imm; the bool goes to Dst or Dst's byte.
		r, b := &uop.Kinds[u.Kind], rmOp(rg(ga))
		if r.Imm {
			b = immOp(imm)
		}
		sel := aluSels[r.Alu]
		a.mov(hAX, rg(gs))
		e.apply(sel.rm, sel.ext, hAX, b)
		a.movI(rg(hDX), 0)
		a.setcc(cc, rg(hDX))
		if sel.arith {
			a.movTo(fld(offFlA), gs)
			e.recB(b)
		}
		e.recRes(sel.fo, hAX)
		if r.Ops&uop.OpDsh != 0 {
			a.mov(hAX, rg(hDX))
			e.insByte(gd, dsh)
		} else {
			a.mov(gd, rg(hDX))
		}
	case uop.KindCmpBoolRRNF, uop.KindCmpBoolRINF, uop.KindTestBoolRRNF, uop.KindTestBoolRINF:
		e.compare(u, gs, ga, false)
		a.movI(rg(hDX), 0)
		a.setcc(cc, rg(hDX))
		a.mov(gd, rg(hDX))

	// --- fused load-op ---
	case uop.KindLoadAluRR, uop.KindLoadAluRRNF:
		a.mov(ga, rd(4))
		e.alu32(i, aluOp, rg(gd), rmOp(rg(gs)), rec)

	// --- superblock guard exits ---
	case uop.KindGuard:
		// The plain guard evaluates its condition against the lazy
		// record (known statically or not at all) and leaves the
		// record untouched either way.
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		if !e.flagsCond(cc, hAX, hR8) {
			return false
		}
		a.aluTo(aluTestMR, rg(hAX), hAX)
		e.linkStub(s, a.jcc(byte(x86.CCNE)))
	case uop.KindGuardCmpRR, uop.KindGuardCmpRI, uop.KindGuardTestRR, uop.KindGuardTestRI:
		// The compare's flags are recorded on both paths.
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		e.compare(u, gd, gs, true)
		e.linkStub(s, a.jcc(cc))
	case uop.KindGuardCmpRRNF, uop.KindGuardCmpRINF, uop.KindGuardTestRRNF, uop.KindGuardTestRINF:
		// Only the exit path records: there the compare's flags become
		// the visible state.
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		e.compare(u, gd, gs, false)
		e.stub(pstub{kind: stubGuardNF, s: s, arg: i}, fixes{a.jcc(cc), -1})
	case uop.KindRetGuard:
		s := e.exit(Exit{Kind: ExitRetGuard, Uop: i})
		a.mov(hAX, e.opnd(i, stackEA(0), 4, false, u.EIP, 1))
		a.aluI(aluAddExt, rg(esp), 4+imm)
		a.aluI(aluCmpExt, rg(hAX), u.Target)
		e.stub(pstub{kind: stubInd, s: s, arg: hAX}, fixes{a.jcc(byte(x86.CCNE)), -1})

	// --- control transfers (always the trace's last micro-op) ---
	case uop.KindJmp:
		e.link(e.end(i, u.Target))
	case uop.KindJcc:
		// The condition reads lazily-recorded flags. With the record
		// statically known it is evaluated here, like a plain guard's,
		// and both edges link; otherwise the trace exits with the record
		// in place and the glue evaluates it and picks the edge.
		if e.flOp == flUnknown {
			e.leave(e.exit(Exit{Kind: ExitJccLazy, Uop: i, Target: u.Target}), sharedExits.leave)
			break
		}
		st := e.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := e.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		e.flagsCond(cc, hAX, hR8)
		a.aluTo(aluTestMR, rg(hAX), hAX)
		e.linkStub(st, a.jcc(byte(x86.CCNE)))
		e.link(sf)
	case uop.KindCmpJccRR, uop.KindCmpJccRI, uop.KindTestJccRR, uop.KindTestJccRI:
		st := e.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := e.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		e.compare(u, gd, gs, true)
		e.linkStub(st, a.jcc(cc))
		e.link(sf)
	case uop.KindCall:
		s := e.end(i, u.Target)
		e.push(i, -1, u.Next, u.EIP, 1)
		e.link(s)
	case uop.KindCallR:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.mov(hR8, rg(gs)) // the target is read before the push moves ESP
		e.push(i, -1, u.Next, u.EIP, 1)
		e.linkInd(s, hR8)
	case uop.KindCallM:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.mov(hR8, rd(4))
		e.push(i, -1, u.Next, u.EIP, 1)
		e.linkInd(s, hR8)
	case uop.KindRet:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.mov(hAX, e.opnd(i, stackEA(0), 4, false, u.EIP, 1))
		a.aluI(aluAddExt, rg(esp), 4+imm)
		e.linkInd(s, hAX)
	case uop.KindPopRet:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		e.pop(i, gd, u.EIP, 1)
		a.mov(hAX, e.opnd(i, stackEA(0), 4, false, u.Disp, 2)) // ret EIP rides in Disp
		a.aluI(aluAddExt, rg(esp), 4+imm)
		e.linkInd(s, hAX)
	case uop.KindPushCall:
		s := e.end(i, u.Target)
		e.push(i, gs, 0, u.EIP, 1)
		e.push(i, -1, u.Next, u.Imm, 2) // call EIP rides in Imm
		e.link(s)
	case uop.KindJmpR:
		e.linkInd(e.exit(Exit{Kind: ExitInd, Uop: i}), gs)
	case uop.KindJmpM:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.mov(hAX, rd(4))
		e.linkInd(s, hAX)
	case uop.KindInt:
		e.leave(e.exit(Exit{Kind: ExitInt, Uop: i, EIP: u.EIP, Started: 1}), sharedExits.leave)
	case uop.KindHlt, uop.KindUd2:
		s := e.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		aux := uint32(0)
		if u.Kind == uop.KindUd2 {
			aux = 1
		}
		a.movI(fld(offTrapAux), aux)
		e.leave(s, sharedExits.leave)

	default:
		return false
	}
	return true
}

// compare emits the fused compare of a guard, a compare-and-branch
// terminator or a boolean — "cmp a, b" or "test a, b" with a = gd and
// b = gs or Imm — leaving the host flags for the jcc or setcc that
// follows; rec also writes the compare's flag record, which clobbers EAX.
func (e *nemit) compare(u *uop.Uop, gd, gs int, rec bool) {
	a := &e.a
	r := &uop.Kinds[u.Kind]
	b, test := rmOp(rg(gs)), r.Alu == uop.AluTest
	if r.Imm {
		b = immOp(u.Imm)
	}
	switch {
	case rec && test:
		a.mov(hAX, rg(gd))
		e.apply(aluAndRM, aluAndExt, hAX, b)
		e.recRes(uop.FlagLogic, hAX)
	case rec:
		a.mov(hAX, rg(gd))
		e.apply(aluSubRM, aluSubExt, hAX, b)
		a.movTo(fld(offFlA), gd)
		e.recB(b)
		e.recRes(uop.FlagSub, hAX)
	case test && b.isI:
		a.testI(rg(gd), b.imm)
	case test:
		a.aluTo(aluTestMR, rg(gd), gs)
	default:
		e.apply(aluCmpRM, aluCmpExt, gd, b)
	}
}
