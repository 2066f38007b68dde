//go:build amd64 && linux

package tier2

import (
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
//	                                R14    never touched (Go's g)
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
// record, the accounting and the exit payload stay in the Machine.
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
// One pass. A group's span is final only when the trace ends, and that a
// micro-op leads a group is known only once it has been emitted, so: a
// check is emitted with every constant in a 32-bit field (nasm.long) and
// emitted over itself when the trace is done (fixChecks); and a micro-op
// that turns out to lead a group is taken back and emitted again behind
// its checks, its operands placed as the first time. Every other
// micro-op is emitted once, and every micro-op is in the finished code
// once. An operand with no register in it is judged on the spot: between
// the write floor and the stack it needs only the heap's end checked, and
// shares that; anywhere else it is checked in place.
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
// every exit linked to the trace alike: "sub Budget, Cost; jl decline;
// mov Cur, rdx; add Acct, iteration+micro-ops". Budget is what the
// dispatcher allows the run — the smaller of Fuel and the poll Credit —
// and a declined entry (status 0, the entry's guest address in
// ExitTarget) gives its charge back. Every exit first gives back what
// the entry charged for the micro-ops it skips. A link exit then jumps
// through its slot of the VM's link table — to its own return stub until
// the VM links the edge, into the next trace afterwards; an inline-cache
// exit does so only when the guest target equals the slot's recorded
// address. Every other exit returns its status. The only indirect
// branches in the code are those slot jumps and ret, and no emitted
// instruction ever writes code: a loop is a trace linked to itself.
//
// Where the code lives. The emitter assembles into a buffer of its own and
// hands the finished bytes to the trace's Arena (execbuf.go), which
// copies them once, through its writable view, to the next free 16-byte
// boundary; the trace runs from the same offset of the executable view.
// Nothing emitted depends on where that is — jumps inside a trace are
// relative, everything else goes through RDI, RSI and the link table —
// so the bytes of a trace are the same in any arena, and the only
// absolute addresses, the return stubs in Trace.unlinked, are data beside
// the code, computed after it is placed.
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
	offBudget   = int32(unsafe.Offsetof(zm.Budget))
	offAcct     = int32(unsafe.Offsetof(zm.Acct))
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

// ---- the emitter --------------------------------------------------------

// pstub is an out-of-line exit path: the fixup sites that jump to it and
// the code to emit once the fall-through body is done.
type pstub struct {
	fixes fixes
	emit  func()
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
// offset of the check, whose constants follow from them.
type group struct {
	lead   access
	lo, hi int64
	write  bool
	at     int32
}

type nemit struct {
	a     nasm
	t     *Trace
	us    []uop.Uop
	entry uint32

	mlen, ro, sbase uint32
	tail            []int64 // suffixCosts(us)

	// groups holds every check group of the trace in the order the checks
	// are emitted; open indexes the ones still taking members, the newest
	// of each address shape.
	groups []group
	open   []int

	// The micro-op being emitted: the write log as of its start, and the
	// group each of its operands went to (-1: checked in place), which is
	// what its second emission, behind the checks it turned out to lead,
	// reads back (again, next) instead of deciding anew.
	startSym [16]uint32
	startOff [16]int64
	placed   []int
	again    bool
	next     int

	// Scratch that outlives a compile (see emitters): the code buffer and
	// the exit table under construction.
	code  []byte
	exits []Exit

	pend  []pstub
	stubs []int32 // code offset of each link slot's return stub

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

	accesses, checks int // guest memory operands; bounds checks emitted for them
}

// nativeCompile emits us as machine code into t and places it in t's
// arena. Returns false on any unsupported micro-op or when the arena
// takes no more code; t is then discarded and the superblock stays on
// tier-1.
func nativeCompile(us []uop.Uop, entry uint32, g Geometry, t *Trace, o *Outcome) bool {
	if g.MemLen > 1<<30 || g.MemLen < g.StackBase+pageSize || g.StackBase < pageSize {
		// The checks compare 64-bit sums against sign-extended 32-bit
		// immediates and subtract a span of up to a page from either
		// window's end; any real guest address space satisfies this.
		return false
	}
	if t.Cost <= 0 || t.Cost > 1<<30 || int64(len(us)) >= acctIter {
		return false // the charges must fit an imm32 and the Acct fields
	}
	e := emitters.Get().(*nemit)
	defer e.release()
	e.init(t, us, entry, g)

	a := &e.a
	a.aluI64(aluSubExt, fld(offBudget), uint32(t.Cost))
	decline := a.jcc(byte(x86.CCL))
	e.stub(func() {
		a.aluI64(aluAddExt, fld(offBudget), uint32(t.Cost))
		a.movI(fld(offExitTgt), entry)
		a.retStatus(0)
	}, fixes{decline, -1})
	a.movTo64(fld(offCur), hDX)
	a.aluI64(aluAddExt, fld(offAcct), uint32(acctIter+len(us)))
	for i := range us {
		e.startSym, e.startOff, e.placed = a.sym, a.off, e.placed[:0]
		start := *e
		if !e.one(i) {
			return false
		}
		if led := len(start.groups); len(e.groups) > led {
			// The micro-op leads groups. Take it back, all of it but where
			// its operands went, and emit it again behind the groups' checks.
			start.groups, start.open, start.placed = e.groups, e.open, e.placed
			*e = start
			e.emitChecks(i, led)
			e.again, e.next = true, 0
			if !e.one(i) {
				return false
			}
			e.again = false
		}
	}
	e.fixChecks()
	l := &t.Ledger
	l.Guest, l.Hot, l.Accesses, l.Checks = t.Cost, int64(a.n), int64(e.accesses), int64(e.checks)
	t.hotEnd = int(a.here())
	e.flush()
	l.Stub = int64(a.n) - l.Hot
	t.Slots = len(e.stubs)

	start := time.Now()
	t.code = t.arena.place(a.c)
	o.Seal = time.Since(start)
	if t.code == nil {
		o.Refused = true
		return false
	}
	t.Exits = append([]Exit(nil), e.exits...)
	t.NeedFlags = e.usedEntry
	t.unlinked = make([]Link, max(t.Slots, 1))
	for k, off := range e.stubs {
		t.unlinked[k].Entry = t.EntryAddr() + uintptr(off)
	}
	return true
}

// emitters recycles emitters with the slices they have grown: what a
// compile keeps is the Trace and the copy of its code in the arena.
var emitters = sync.Pool{New: func() any { return new(nemit) }}

// init readies a recycled emitter for a trace of its own: no code, every
// register its own symbol, the flag state the entry guarantees.
func (e *nemit) init(t *Trace, us []uop.Uop, entry uint32, g Geometry) {
	n := len(us)
	*e = nemit{t: t, us: us, entry: entry, mlen: g.MemLen, ro: g.ROLimit, sbase: g.StackBase,
		a: nasm{c: e.code[:0]}, flOp: flEntry,
		exits: e.exits[:0], groups: e.groups[:0], open: e.open[:0], placed: e.placed[:0],
		pend: e.pend[:0], stubs: e.stubs[:0],
		tail: suffixCosts(slices.Grow(e.tail[:0], n)[:n], us)}
	for r := range e.a.sym {
		e.a.def(r)
	}
}

// release drops what the emitter holds of the trace and hands it back
// with its code buffer as far as that has grown.
func (e *nemit) release() {
	e.code = e.a.c
	e.t, e.us, e.a = nil, nil, nasm{}
	clear(e.pend[:cap(e.pend)]) // the stubs' closures
	emitters.Put(e)
}

// flush emits the out-of-line paths behind the mainline.
func (e *nemit) flush() {
	for _, p := range e.pend {
		for _, f := range p.fixes {
			if f >= 0 {
				e.a.patch(f)
			}
		}
		p.emit()
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
func (e *nemit) join(ac *access) int {
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
	e.groups = append(e.groups, group{lead: *ac, lo: ac.pos, hi: ac.pos + int64(ac.size), write: ac.write})
	return gi
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

// emitChecks emits, at the start of micro-op i, the check of every group
// from led on: the ones i's first emission found it leads. A failure
// leaves the trace through i's ExitResume, with nothing of i executed.
func (e *nemit) emitChecks(i, led int) {
	s := e.exit(Exit{Kind: ExitResume, Uop: i})
	e.t.Ledger.Resumes++
	for gi := led; gi < len(e.groups); gi++ {
		g := &e.groups[gi]
		g.at = e.a.here()
		e.stub(func() { e.leave(s) }, e.check(g))
		e.checks++
	}
}

// check emits g's check for the span and the floor g has now, with every
// constant in a 32-bit field: whatever they are, the code is as long.
func (e *nemit) check(g *group) (fails fixes) {
	a := &e.a
	a.long = true
	l := &g.lead
	c := int32(g.lo - l.startPos)
	switch l.shape {
	case shapeAbs:
		// A constant span above every floor and below the stack: only the
		// heap's end is left to ask about.
		a.aluI(aluCmpExt, fld(offBrk), uint32(g.hi))
		fails = fixes{a.jcc(byte(x86.CCB)), -1}
	case shapeOne:
		o := at(l.hb, c)
		if l.hb < 0 {
			o = sib(-1, l.hi, l.scale, c)
		}
		fails = e.rangeCheck(o, true, e.floor(g.write), uint32(g.hi-g.lo), l.stack)
	default:
		fails = e.rangeCheck(sib(l.hb, l.hi, l.scale, c), false, e.floor(g.write), uint32(g.hi-g.lo), l.stack)
	}
	a.long = false
	return fails
}

// fixChecks emits every group's check once more, over the one already in
// the code, for the span and the floor the group ended the trace with.
func (e *nemit) fixChecks() {
	end := e.a
	for gi := range e.groups {
		e.a.c = end.c[:e.groups[gi].at]
		e.check(&e.groups[gi])
	}
	e.a = end
}

// floor is where the heap window starts for a read, or for a write.
func (e *nemit) floor(write bool) uint32 {
	if write {
		return e.ro
	}
	return pageSize
}

// rangeCheck emits the sandbox test on an address: [x, x+span) must lie
// inside [floor, Brk) or [StackBase, MemLen) — Geometry.ReadOK/WriteOK
// to the letter when span is the access size. The address is the
// register addr when that is one (zero-extended: the exact checks keep
// theirs in RCX), else the sum addr describes, taken exactly when wide
// and mod 2^32 otherwise; a sum is formed in RAX, except that with the
// stack window first it is only formed if that window fails. Returns the
// (one or two) jumps taken on failure. Clobbers RAX (for a sum), RDX and
// the flags.
func (e *nemit) rangeCheck(addr rm, wide bool, floor, span uint32, stackFirst bool) fixes {
	a := &e.a
	lea := func(dst int, o rm) {
		if wide {
			a.lea64(dst, o)
		} else {
			a.lea(dst, o)
		}
	}
	x := hAX
	if addr.direct {
		x = addr.base
	}
	inStack := func(o rm) {
		o.disp -= int32(e.sbase)
		lea(hDX, o)
		a.aluI64(aluCmpExt, rg(hDX), e.mlen-span-e.sbase)
	}
	inHeap := func() {
		a.mov(hDX, fld(offBrk))
		a.aluI64(aluSubExt, rg(hDX), span)
		a.alu64(aluCmpRM, x, rg(hDX))
	}
	if stackFirst {
		if addr.direct {
			wide = true
			inStack(at(x, 0))
		} else {
			inStack(addr)
		}
		ok := a.jcc(byte(x86.CCBE))
		if !addr.direct {
			lea(hAX, addr)
		}
		a.aluI64(aluCmpExt, rg(x), floor)
		f1 := a.jcc(byte(x86.CCB))
		inHeap()
		f2 := a.jcc(byte(x86.CCA))
		a.patch(ok)
		return fixes{f1, f2}
	}
	if !addr.direct {
		lea(hAX, addr)
	}
	a.aluI64(aluCmpExt, rg(x), floor)
	below := a.jcc(byte(x86.CCB))
	inHeap()
	ok := a.jcc(byte(x86.CCBE))
	a.patch(below)
	wide = true
	inStack(at(x, 0))
	f := a.jcc(byte(x86.CCA))
	a.patch(ok)
	return fixes{f, -1}
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
	var g int
	if e.again {
		g = e.placed[e.next]
		e.next++
	} else {
		ac := e.survey(x, size, write)
		g = e.join(&ac)
		e.placed = append(e.placed, g)
	}
	e.last = g
	if g < 0 {
		return e.exact(i, x, size, write, eip, started)
	}
	switch o := hostEA(x); e.groups[g].lead.shape {
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

// survey describes the access for join.
func (e *nemit) survey(x ea, size uint32, write bool) access {
	a := &e.a
	o := hostEA(x)
	ac := access{size: size, write: write, hb: o.base, hi: o.idx, hoist: true, stack: stackBased(x)}
	scale := int64(x.scale)
	switch {
	case o.base < 0 && o.idx < 0:
		ac.shape, ac.pos = shapeAbs, int64(x.disp)
	case o.base < 0 || o.idx < 0:
		r := o.idx
		if r < 0 {
			r, scale = o.base, 1
		}
		ac.shape, ac.symB, ac.scale = shapeOne, a.sym[r], uint8(scale)
		ac.regOff, ac.startOff = a.off[r], e.startOff[r]
		ac.pos = scale*a.off[r] + int64(int32(x.disp))
		ac.startPos = scale * e.startOff[r]
		ac.hoist = a.sym[r] == e.startSym[r]
	default:
		ac.shape, ac.symB, ac.symI, ac.scale = shapeTwo, a.sym[o.base], a.sym[o.idx], x.scale
		ac.pos = a.off[o.base] + scale*a.off[o.idx] + int64(int32(x.disp))
		ac.startPos = e.startOff[o.base] + scale*e.startOff[o.idx]
		ac.hoist = a.sym[o.base] == e.startSym[o.base] && a.sym[o.idx] == e.startSym[o.idx]
	}
	return ac
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
	e.stub(func() {
		e.a.movTo(fld(offTrapAddr), hCX)
		e.leave(s)
	}, e.rangeCheck(rg(hCX), true, e.floor(write), size, e.stackFirst))
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

// stub registers an out-of-line path reached from fixes. It is emitted
// after the mainline, with the flag state the mainline had here.
func (e *nemit) stub(emit func(), fs fixes) {
	fl := e.flOp
	e.pend = append(e.pend, pstub{fixes: fs, emit: func() {
		e.flOp = fl
		emit()
	}})
}

// refund gives back what the entry charged for the part of the trace
// exit s leaves unexecuted.
func (e *nemit) refund(s int32) {
	x := &e.exits[s-1]
	if x.Refund != 0 {
		e.a.aluI64(aluAddExt, fld(offBudget), uint32(x.Refund))
	}
	if x.RefundUops != 0 {
		e.a.aluI64(aluSubExt, fld(offAcct), uint32(x.RefundUops))
	}
}

// leave ends the run with exit s: refund, then return the status to the
// dispatcher.
func (e *nemit) leave(s int32) {
	e.refund(s)
	e.a.retStatus(s)
}

// slot gives exit s the trace's next link slot and returns its byte
// offset from the trace's first.
func (e *nemit) slot(s int32) int32 {
	x := &e.exits[s-1]
	x.Slot = len(e.stubs)
	e.stubs = append(e.stubs, 0)
	return int32(x.Slot) * int32(LinkSize)
}

// stubHere marks the current position as the return stub of exit s's
// slot: what the slot holds until the VM links it.
func (e *nemit) stubHere(s int32) {
	e.stubs[e.exits[s-1].Slot] = e.a.here()
}

// link leaves through exit s's link slot (a static-target exit): refund,
// then jump wherever the slot says with the target's slot offset in DX —
// into the linked trace, or to the return stub emitted right here, which
// is what the slot holds until the VM links the edge.
//
// An exit back to this trace's own entry is the loop back edge. If the
// trace consumed its entry flag state, the edge restores the FlagNone
// entry invariant the dispatcher guaranteed the first pass (and says so,
// Exit.Eager, or the VM will not link it); with the state unknown it
// cannot, and the loop goes through the dispatcher.
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
	off := e.slot(s)
	a.mov64(hAX, fld(offCur))
	a.alu64(aluAddRM, hAX, fld(offLinks))
	a.mov(hDX, at(hAX, off+linkCur))
	a.jmpM(at(hAX, off+linkEntry))
	e.stubHere(s)
	a.retStatus(s)
}

// linkStub is link as an out-of-line path reached from f.
func (e *nemit) linkStub(s int32, f fix) {
	e.stub(func() { e.link(s) }, fixes{f, -1})
}

// linkInd leaves through exit s's slot used as a one-entry inline cache
// (a dynamic-target exit, the guest target in reg, which must not be
// CX): refund, then enter the slot's trace if the slot was linked for
// this target, else hand the target to the dispatcher. The slot's
// unlinked content is that miss path, so an unlinked slot misses even
// when the target happens to equal its zero Addr.
func (e *nemit) linkInd(s int32, reg int) {
	a := &e.a
	e.refund(s)
	off := e.slot(s)
	a.mov64(hCX, fld(offCur))
	a.alu64(aluAddRM, hCX, fld(offLinks))
	a.alu(aluCmpRM, reg, at(hCX, off+linkAddr))
	miss := a.jcc(byte(x86.CCNE))
	a.mov(hDX, at(hCX, off+linkCur))
	a.jmpM(at(hCX, off+linkEntry))
	a.patch(miss)
	e.stubHere(s)
	a.movTo(fld(offExitTgt), reg)
	a.retStatus(s)
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
// records its operands, wb writes its result back.
type aluSel struct {
	rm        byte
	ext       int
	fo, fo8   uop.FlagOp
	arith, wb bool
}

var aluSels = [...]aluSel{
	uop.AluAdd:  {aluAddRM, aluAddExt, uop.FlagAdd, uop.FlagAdd8, true, true},
	uop.AluAdc:  {aluAddRM, aluAddExt, uop.FlagAdc, uop.FlagAdc8, true, true},
	uop.AluSub:  {aluSubRM, aluSubExt, uop.FlagSub, uop.FlagSub8, true, true},
	uop.AluSbb:  {aluSubRM, aluSubExt, uop.FlagSbb, uop.FlagSbb8, true, true},
	uop.AluAnd:  {aluAndRM, aluAndExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluOr:   {aluOrRM, aluOrExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluXor:  {aluXorRM, aluXorExt, uop.FlagLogic, uop.FlagLogic8, false, true},
	uop.AluCmp:  {aluSubRM, aluSubExt, uop.FlagSub, uop.FlagSub8, true, false},
	uop.AluTest: {aluAndRM, aluAndExt, uop.FlagLogic, uop.FlagLogic8, false, false},
}

// alu32 emits "dst = dst op b" at 32 bits, mirroring VM.ualu: dst
// is a pinned register or the memory operand opnd returned, b a pinned
// register, an immediate or (register dst only) memory; rec writes the
// flag record. A memory destination is stored through alsoWrite, after
// the record. Returns false for ADC/SBB after a conditional flag writer.
// Clobbers EAX, EDX and R8.
func (e *nemit) alu32(i int, op uop.AluOp, dst rm, b opd, rec bool) bool {
	a := &e.a
	u := &e.us[i]
	sel := aluSels[op]
	if !rec && !sel.wb {
		return true // a quiet compare
	}
	res := dst.base
	switch {
	case op == uop.AluAdc || op == uop.AluSbb:
		if e.flOp == flUnknown {
			return false // stays on tier-1
		}
		res = e.carry(sel, func(r int) { a.mov(r, dst) }, func(r int) opd {
			if !b.isI && !b.o.direct {
				a.mov(r, b.o)
				return rmOp(rg(r))
			}
			return b
		}, false)
	case !dst.direct || !sel.wb:
		// The result goes to memory or nowhere: work in EAX.
		if rec && sel.arith && !b.isI && !b.o.direct {
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
			if !b.isI && !b.o.direct {
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
	case dst.direct:
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
// register or the scratch register it is handed — combine, and write the
// full record including Cin, mirroring VM.ualu. The result is left
// in R8 (which a later write check does not clobber) and R8 returned. The
// operand a memory form got from opnd may live in RCX, which the
// materializer clobbers, so RCX is kept on the stack across it.
func (e *nemit) carry(sel aluSel, loadA func(int), loadB func(int) opd, byteWidth bool) int {
	a := &e.a
	a.push(hCX)
	e.cfValue(hAX) // cin
	a.pop(hCX)
	loadA(hR8)
	b := loadB(hDX)
	a.movTo(fld(offFlA), hR8)
	e.recB(b)
	a.movTo(fld(offFlCin), hAX)
	e.apply(sel.rm, sel.ext, hR8, b)
	a.alu(sel.rm, hR8, rg(hAX)) // ± cin
	fo := sel.fo
	if byteWidth {
		a.aluI(aluAndExt, rg(hR8), 0xFF)
		fo = sel.fo8
	}
	e.recRes(fo, hR8)
	return hR8
}

// alu8 is the byte-width ALU, mirroring VM.ualu8. loadA and loadB
// fetch the pre-masked operands as for carry; the masked result is
// returned in R8 for the caller to write
// back, ok false for ADC/SBB after a conditional flag writer. Clobbers
// EAX, EDX and R8.
func (e *nemit) alu8(op uop.AluOp, loadA func(int), loadB func(int) opd) (res int, ok bool) {
	a := &e.a
	sel := aluSels[op]
	if op == uop.AluAdc || op == uop.AluSbb {
		if e.flOp == flUnknown {
			return 0, false
		}
		return e.carry(sel, loadA, loadB, true), true
	}
	b := loadB(hDX)
	loadA(hAX)
	a.mov(hR8, rg(hAX))
	e.apply(sel.rm, sel.ext, hR8, b)
	if sel.arith {
		a.aluI(aluAndExt, rg(hR8), 0xFF)
		a.movTo(fld(offFlA), hAX)
		e.recB(b)
	}
	e.recRes(sel.fo8, hR8)
	return hR8, true
}

// aluKinds are the specialized register ALU kinds: "Dst = Dst op Src" or
// "Dst = Dst op Imm", recording flags or (NF) not.
var aluKinds = [uop.KindGeneric + 1]struct {
	op           uop.AluOp
	imm, rec, ok bool
}{
	uop.KindAddRR: {uop.AluAdd, false, true, true}, uop.KindAddRI: {uop.AluAdd, true, true, true},
	uop.KindSubRR: {uop.AluSub, false, true, true}, uop.KindSubRI: {uop.AluSub, true, true, true},
	uop.KindAndRR: {uop.AluAnd, false, true, true}, uop.KindAndRI: {uop.AluAnd, true, true, true},
	uop.KindOrRR: {uop.AluOr, false, true, true}, uop.KindOrRI: {uop.AluOr, true, true, true},
	uop.KindXorRR: {uop.AluXor, false, true, true}, uop.KindXorRI: {uop.AluXor, true, true, true},
	uop.KindCmpRR: {uop.AluCmp, false, true, true}, uop.KindCmpRI: {uop.AluCmp, true, true, true},
	uop.KindTestRR: {uop.AluTest, false, true, true}, uop.KindTestRI: {uop.AluTest, true, true, true},
	uop.KindAddRRNF: {uop.AluAdd, false, false, true}, uop.KindAddRINF: {uop.AluAdd, true, false, true},
	uop.KindSubRRNF: {uop.AluSub, false, false, true}, uop.KindSubRINF: {uop.AluSub, true, false, true},
	uop.KindAndRRNF: {uop.AluAnd, false, false, true}, uop.KindAndRINF: {uop.AluAnd, true, false, true},
	uop.KindOrRRNF: {uop.AluOr, false, false, true}, uop.KindOrRINF: {uop.AluOr, true, false, true},
	uop.KindXorRRNF: {uop.AluXor, false, false, true}, uop.KindXorRINF: {uop.AluXor, true, false, true},
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

	if k := aluKinds[u.Kind]; k.ok {
		b := rmOp(rg(gs))
		if k.imm {
			b = immOp(imm)
		}
		return e.alu32(i, k.op, rg(gd), b, k.rec)
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

	case uop.KindAluRR:
		return e.alu32(i, aluOp, rg(gd), rmOp(rg(gs)), true)
	case uop.KindAluRI:
		return e.alu32(i, aluOp, rg(gd), immOp(imm), true)
	case uop.KindAluRM:
		return e.alu32(i, aluOp, rg(gd), rmOp(rd(4)), true)
	case uop.KindAluMR:
		return e.alu32(i, aluOp, rd(4), rmOp(rg(gs)), true)
	case uop.KindAluMI:
		return e.alu32(i, aluOp, rd(4), immOp(imm), true)

	// --- byte ALU forms ---
	case uop.KindAlu8RR, uop.KindAlu8RI, uop.KindAlu8RM:
		var m rm
		if u.Kind == uop.KindAlu8RM {
			m = rd(1)
		}
		res, ok := e.alu8(aluOp, func(r int) { e.byteOf(r, gd, dsh) }, func(r int) opd {
			switch u.Kind {
			case uop.KindAlu8RR:
				e.byteOf(r, gs, ssh)
			case uop.KindAlu8RI:
				return immOp(imm)
			default:
				a.movx(movzx8, r, m)
			}
			return rmOp(rg(r))
		})
		if !ok {
			return false
		}
		if aluSels[aluOp].wb {
			a.mov(hAX, rg(res))
			e.insByte(gd, dsh)
		}
	case uop.KindAlu8MR, uop.KindAlu8MI:
		m := rd(1)
		res, ok := e.alu8(aluOp, func(r int) { a.movx(movzx8, r, m) }, func(r int) opd {
			if u.Kind == uop.KindAlu8MI {
				return immOp(imm)
			}
			e.byteOf(r, gs, ssh)
			return rmOp(rg(r))
		})
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

	case uop.KindNegR:
		a.movTo(fld(offFlB), gd)
		a.unary(negExt, rg(gd))
		a.movI(fld(offFlA), 0)
		e.recRes(uop.FlagSub, gd)
	case uop.KindNotR:
		a.unary(notExt, rg(gd))

	// --- shifts ---
	case uop.KindShiftRI, uop.KindShiftRINF:
		ext, fo := shiftSel(uop.ShOp(u.Sub))
		rec := u.Kind == uop.KindShiftRI
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
	case uop.KindImulRR, uop.KindImulRM, uop.KindImulRRI, uop.KindImulRMI:
		switch u.Kind {
		case uop.KindImulRR:
			a.imul(gd, rg(gs))
		case uop.KindImulRM:
			a.imul(gd, rd(4))
		case uop.KindImulRRI:
			a.imulI(gd, rg(gs), imm)
		default:
			a.imulI(gd, rd(4), imm)
		}
		a.setcc(byte(x86.CCO), fld(offCF))
		a.setcc(byte(x86.CCO), fld(offOF))
		e.recSZP(gd)
	case uop.KindMulR, uop.KindMulM:
		src := rg(gs)
		if u.Kind == uop.KindMulM {
			src = rd(4)
		}
		a.mov(hAX, rg(gax))
		if u.Sub != 0 {
			a.unary(imulExt, src) // CF=OF=result doesn't fit 32
		} else {
			a.unary(mulExt, src) // CF=OF=(edx != 0)
		}
		a.setcc(byte(x86.CCB), fld(offCF))
		a.setcc(byte(x86.CCB), fld(offOF))
		a.mov(gax, rg(hAX))
		a.mov(gdx, rg(hDX))
		e.recSZP(hAX)
	case uop.KindDivR, uop.KindDivM:
		sd := e.exit(Exit{Kind: ExitDivide, Uop: i, EIP: u.EIP, Started: 1})
		trap := func(aux uint32, f1, f2 fix) {
			e.stub(func() {
				a.movI(fld(offTrapAux), aux)
				e.leave(sd)
			}, fixes{f1, f2})
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
		b, op := rmOp(rg(ga)), uop.AluCmp
		switch u.Kind {
		case uop.KindCmpSetccRI, uop.KindCmpBoolRI, uop.KindTestSetccRI, uop.KindTestBoolRI:
			b = immOp(imm)
		}
		switch u.Kind {
		case uop.KindTestSetccRR, uop.KindTestSetccRI, uop.KindTestBoolRR, uop.KindTestBoolRI:
			op = uop.AluTest
		}
		sel := aluSels[op]
		a.mov(hAX, rg(gs))
		e.apply(sel.rm, sel.ext, hAX, b)
		a.movI(rg(hDX), 0)
		a.setcc(cc, rg(hDX))
		if sel.arith {
			a.movTo(fld(offFlA), gs)
			e.recB(b)
		}
		e.recRes(sel.fo, hAX)
		switch u.Kind {
		case uop.KindCmpBoolRR, uop.KindCmpBoolRI, uop.KindTestBoolRR, uop.KindTestBoolRI:
			a.mov(gd, rg(hDX))
		default:
			a.mov(hAX, rg(hDX))
			e.insByte(gd, dsh)
		}
	case uop.KindCmpBoolRRNF, uop.KindCmpBoolRINF, uop.KindTestBoolRRNF, uop.KindTestBoolRINF:
		switch u.Kind {
		case uop.KindCmpBoolRRNF:
			a.alu(aluCmpRM, gs, rg(ga))
		case uop.KindCmpBoolRINF:
			a.aluI(aluCmpExt, rg(gs), imm)
		case uop.KindTestBoolRRNF:
			a.aluTo(aluTestMR, rg(gs), ga)
		default:
			a.testI(rg(gs), imm)
		}
		a.movI(rg(hDX), 0)
		a.setcc(cc, rg(hDX))
		a.mov(gd, rg(hDX))

	// --- fused load-op ---
	case uop.KindLoadAluRR, uop.KindLoadAluRRNF:
		a.mov(ga, rd(4))
		e.alu32(i, aluOp, rg(gd), rmOp(rg(gs)), u.Kind == uop.KindLoadAluRR)

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
		e.stub(func() {
			e.compare(u, gd, gs, true)
			e.link(s)
		}, fixes{a.jcc(cc), -1})
	case uop.KindRetGuard:
		s := e.exit(Exit{Kind: ExitRetGuard, Uop: i})
		a.mov(hAX, e.opnd(i, stackEA(0), 4, false, u.EIP, 1))
		a.aluI(aluAddExt, rg(esp), 4+imm)
		a.aluI(aluCmpExt, rg(hAX), u.Target)
		e.stub(func() { e.linkInd(s, hAX) }, fixes{a.jcc(byte(x86.CCNE)), -1})

	// --- control transfers (always the trace's last micro-op) ---
	case uop.KindJmp:
		e.link(e.end(i, u.Target))
	case uop.KindJcc:
		// The condition reads lazily-recorded flags. With the record
		// statically known it is evaluated here, like a plain guard's,
		// and both edges link; otherwise the trace exits with the record
		// in place and the glue evaluates it and picks the edge.
		if e.flOp == flUnknown {
			e.leave(e.exit(Exit{Kind: ExitJccLazy, Uop: i, Target: u.Target}))
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
		e.leave(e.exit(Exit{Kind: ExitInt, Uop: i, EIP: u.EIP, Started: 1}))
	case uop.KindHlt, uop.KindUd2:
		s := e.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		aux := uint32(0)
		if u.Kind == uop.KindUd2 {
			aux = 1
		}
		a.movI(fld(offTrapAux), aux)
		e.leave(s)

	default:
		return false
	}
	return true
}

// compare emits the fused compare of a guard or a compare-and-branch
// terminator — "cmp a, b" or "test a, b" with a = Dst and b = Src or
// Imm — leaving the host flags for the jcc that follows; rec also writes
// the compare's flag record, which clobbers EAX.
func (e *nemit) compare(u *uop.Uop, gd, gs int, rec bool) {
	a := &e.a
	b, test := rmOp(rg(gs)), false
	switch u.Kind {
	case uop.KindGuardCmpRI, uop.KindGuardCmpRINF, uop.KindCmpJccRI:
		b = immOp(u.Imm)
	case uop.KindGuardTestRR, uop.KindGuardTestRRNF, uop.KindTestJccRR:
		test = true
	case uop.KindGuardTestRI, uop.KindGuardTestRINF, uop.KindTestJccRI:
		b, test = immOp(u.Imm), true
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
