//go:build amd64 && linux

package tier2

import (
	"runtime"
	"unsafe"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// The native backend emits one superblock trace as flat amd64 machine
// code: every micro-op becomes the handful of host instructions its
// closure body compiles to in spirit, minus the call/return and
// capture-environment traffic that makes the closure backend slower
// than tier-1 dispatch. Guest 32-bit values ride in host 32-bit
// registers (writes zero-extend, so address arithmetic is mod 2^32 for
// free), the lazy-flag record lives in the Machine exactly as for the
// closure backend, and every return to Go carries the same 1-based
// status into the same Exit table — the glue cannot tell the backends
// apart.
//
// Within the jitcall convention (DI = *Machine, DX = the entered trace's
// slot offset on entry, SI = guest memory base, status out in AX) the
// emitter uses AX/CX/DX/R8/R9 as scratch with a fixed discipline:
// effective addresses are built in CX, the bounds checks clobber AX
// only, and multi-step micro-ops keep values that must survive a bounds
// check in R8/R9.
//
// The code's first byte is the trace entry, for the dispatcher and for
// every exit linked to the trace alike. It declines to start when Fuel
// is short of Cost or Credit is spent (status 0, the entry's guest
// address in ExitTarget); otherwise it records the trace as the running
// one (Cur), charges Cost to Fuel and Credit, counts the pass and its
// micro-ops, and falls into the body. Every exit first gives back what
// the entry charged for the micro-ops it skips. A link exit then jumps
// through its slot of the VM's link table — to its own return stub until
// the VM links the edge, into the next trace afterwards; an inline-cache
// exit does so only when the guest target equals the slot's recorded
// address. Every other exit returns its status. The only indirect
// branches in the code are those slot jumps and ret, and no emitted
// instruction ever writes code: a loop is a trace linked to itself.
//
// Micro-ops whose semantics need lazy-flag materialization of a record
// that is not statically known (a plain guard or Jcc-less setcc form,
// INC/DEC's carry preservation, ADC/SBB after a conditional writer)
// bail: materializing an unknown deferred flag record is a branchy
// per-FlagOp computation that belongs in Go. A plain Jcc terminator
// exits with ExitJccLazy and lets the glue evaluate the condition;
// everything else unsupported fails compilation and leaves the
// superblock on tier-1.

const nativeAvailable = true

// minus4 is the stack-push displacement as a wrapped uint32 (32-bit lea
// arithmetic is mod 2^32, exactly the guest's ESP-4).
const minus4 = ^uint32(3)

//go:noescape
func jitcall(code uintptr, m *Machine, cur uint32) int32

// call enters the mapped code against m as the trace whose slots start
// at offset cur; the mapping must not be finalized under it.
func (b *execBuf) call(m *Machine, cur uint32) int32 {
	s := jitcall(uintptr(unsafe.Pointer(&b.buf[0])), m, cur)
	runtime.KeepAlive(b)
	return s
}

// Machine field offsets, resolved once against a zero value. The
// emitter addresses every field as [rdi+off].
var zm Machine

var (
	offRegs     = int32(unsafe.Offsetof(zm.Regs))
	offFl       = int32(unsafe.Offsetof(zm.Fl))
	offCF       = int32(unsafe.Offsetof(zm.CF))
	offZF       = int32(unsafe.Offsetof(zm.ZF))
	offSF       = int32(unsafe.Offsetof(zm.SF))
	offOF       = int32(unsafe.Offsetof(zm.OF))
	offPF       = int32(unsafe.Offsetof(zm.PF))
	offMem      = int32(unsafe.Offsetof(zm.Mem))
	offBrk      = int32(unsafe.Offsetof(zm.Brk))
	offFuel     = int32(unsafe.Offsetof(zm.Fuel))
	offCredit   = int32(unsafe.Offsetof(zm.Credit))
	offIters    = int32(unsafe.Offsetof(zm.Iters))
	offUops     = int32(unsafe.Offsetof(zm.Uops))
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
	// KeptCF and the two pad bytes — the whole-struct-assignment
	// equivalent of the closure bodies' m.Fl = uop.Flags{...}.
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

// ---- assembler extensions the emitter needs beyond nasm's core ----------

// imulRM: imul dst32, [rdi+off].
func (a *nasm) imulRM(dst int, off int32) {
	a.rex(false, dst, 0, 0)
	a.db(0x0F, 0xAF)
	a.modrmDI(dst, off)
}

// aluRR64: the REX.W "r/m, reg" ALU forms: op dst64, src64.
func (a *nasm) aluRR64(opMR byte, dst, src int) {
	a.rex(true, src, 0, dst)
	a.db(opMR, byte(0xC0|(src&7)<<3|dst&7))
}

// aluRI64: op reg64, imm32 (sign-extended; 0x81 group).
func (a *nasm) aluRI64(ext, reg int, imm uint32) {
	a.rex(true, 0, 0, reg)
	a.db(0x81, byte(0xC0|ext<<3|reg&7))
	a.d32(imm)
}

// shiftRI64: sh reg64, imm.
func (a *nasm) shiftRI64(ext, reg int, imm byte) {
	a.rex(true, 0, 0, reg)
	a.db(0xC1, byte(0xC0|ext<<3|reg&7), imm)
}

// movsxd: movsxd dst64, src32.
func (a *nasm) movsxd(dst, src int) {
	a.rex(true, dst, 0, src)
	a.db(0x63, byte(0xC0|(dst&7)<<3|src&7))
}

// cqo sign-extends rax into rdx.
func (a *nasm) cqo() { a.db(0x48, 0x99) }

// movRI64: movabs reg64, imm64.
func (a *nasm) movRI64(reg int, imm uint64) {
	a.rex(true, 0, 0, reg)
	a.db(byte(0xB8 | reg&7))
	a.d32(uint32(imm))
	a.d32(uint32(imm >> 32))
}

// ---- the emitter --------------------------------------------------------

// pstub is an out-of-line exit path: the fixup sites that jump to it
// and the code to emit once the hot fall-through body is done.
type pstub struct {
	fixes []int32
	emit  func()
}

type nemit struct {
	a     nasm
	t     *Trace
	us    []uop.Uop
	entry uint32

	mlen, ro, sbase uint32
	cost            uint32

	pend  []pstub
	stubs []int32 // code offset of each link slot's return stub

	// flOp is the FlagOp the lazy record is statically known to hold
	// at the current emission point: flEntry before the first writer,
	// flUnknown after a conditional one (see native_flags_amd64.go).
	// usedEntry records that some consumer read the entry state and
	// the trace therefore needs the glue's entry materialization.
	flOp      int
	usedEntry bool
}

// nativeCompile emits us as machine code into t. Returns false on any
// unsupported micro-op or when executable memory is unavailable; t is
// then discarded and the superblock stays on tier-1.
func nativeCompile(us []uop.Uop, entry uint32, g Geometry, t *Trace) bool {
	if g.MemLen < g.StackBase+8 || g.StackBase < pageSize {
		// The single-compare stack-range check needs mlen-size >= sbase;
		// any real guest address space satisfies this.
		return false
	}
	if t.Cost <= 0 || t.Cost > 1<<30 {
		return false // fuel charge must fit an imm32
	}
	e := &nemit{t: t, us: us, entry: entry,
		mlen: g.MemLen, ro: g.ROLimit, sbase: g.StackBase, cost: uint32(t.Cost),
		flOp: flEntry}
	a := &e.a

	// The trace entry: decline when fuel or the poll credit will not
	// cover the pass, else become the running trace and charge it.
	a.cmpMI64(offFuel, e.cost)
	f1 := a.jcc32(byte(x86.CCL))
	a.cmpMI64(offCredit, 0)
	f2 := a.jcc32(byte(x86.CCLE))
	e.stub(func() {
		a.storeMI(offExitTgt, entry)
		a.retStatus(0)
	}, f1, f2)
	a.storeM64(offCur, hDX)
	a.aluMI64(aluSubExt, offFuel, e.cost)
	a.aluMI64(aluSubExt, offCredit, e.cost)
	a.aluMI64(aluAddExt, offUops, uint32(len(us)))
	a.incM64(offIters)
	a.loadM64(hSI, offMem)

	for i := range us {
		if !e.one(i) {
			return false
		}
	}
	for _, p := range e.pend {
		for _, f := range p.fixes {
			a.patch(f)
		}
		p.emit()
	}

	eb := sealExec(a.c)
	if eb == nil {
		return false
	}
	t.code = eb
	t.NeedFlags = e.usedEntry
	t.unlinked = make([]Link, max(t.Slots, 1))
	for k, off := range e.stubs {
		t.unlinked[k].Entry = t.EntryAddr() + uintptr(off)
	}
	return true
}

// ---- exit-table helpers (mirror comp's) ---------------------------------

func (e *nemit) exit(x Exit) int32 {
	e.t.Exits = append(e.t.Exits, newExit(e.us, x))
	return int32(len(e.t.Exits))
}

func (e *nemit) rf(i int, eip, size uint32, started int) int32 {
	return e.exit(Exit{Kind: ExitReadFault, Uop: i, EIP: eip, Size: size, Started: started})
}

func (e *nemit) wf(i int, eip, size uint32, started int) int32 {
	return e.exit(Exit{Kind: ExitWriteFault, Uop: i, EIP: eip, Size: size, Started: started})
}

func (e *nemit) end(i int, target uint32) int32 {
	return e.exit(Exit{Kind: ExitEnd, Uop: i, Target: target})
}

// ---- emission helpers ---------------------------------------------------

func regOff(r uint8) int32 { return offRegs + 4*int32(r) }

// paOff mirrors comp's pa clamp: Aux is a register only when it indexes
// the file; guards reuse the field as a chain-slot index.
func paOff(u *uop.Uop) int32 {
	if int(u.Aux) < len(zm.Regs) {
		return regOff(u.Aux)
	}
	return regOff(uop.RegZero)
}

// addr materializes the micro-op's effective address in ECX
// (disp + base + idx*scale, mod 2^32). Clobbers DX; flags trashed.
func (e *nemit) addr(u *uop.Uop) {
	a := &e.a
	b, ix, sc, disp := u.Base, u.Idx, uint32(u.Scale), u.Disp
	if sc == 0 {
		ix = uop.RegZero // absent index is encoded with Scale 0
	}
	switch {
	case b == uop.RegZero && ix == uop.RegZero:
		a.movRI(hCX, disp)
	case ix == uop.RegZero:
		a.loadM(hCX, regOff(b))
		if disp != 0 {
			a.leaD(hCX, hCX, disp)
		}
	case b == uop.RegZero && (sc == 1 || sc == 2 || sc == 4 || sc == 8):
		a.loadM(hCX, regOff(ix))
		if sc > 1 {
			var n byte
			for s := sc; s > 1; s >>= 1 {
				n++
			}
			a.shiftRI(shlExt, hCX, n)
		}
		if disp != 0 {
			a.leaD(hCX, hCX, disp)
		}
	default:
		a.loadM(hCX, regOff(b))
		a.loadM(hDX, regOff(ix))
		a.lea32(hCX, hCX, hDX, uint8(sc), disp)
	}
}

// checkRd emits the interpreter's exact rdOK test on the address in
// ECX, returning status s on failure (TrapAddr <- ECX). Clobbers EAX
// and flags only. stackFirst orders the stack-range test first (stack
// pointer accesses), otherwise the heap range leads.
func (e *nemit) checkRd(size uint32, s int32, stackFirst bool) {
	e.check(pageSize, size, s, stackFirst)
}

// checkWr is wrOK: the heap range starts at roLimit instead of the
// guard page.
func (e *nemit) checkWr(size uint32, s int32, stackFirst bool) {
	e.check(e.ro, size, s, stackFirst)
}

func (e *nemit) check(low, size uint32, s int32, stackFirst bool) {
	a := &e.a
	kStack := e.mlen - size - e.sbase
	if stackFirst {
		a.leaD(hAX, hCX, -e.sbase)
		a.aluRI(aluCmpExt, hAX, kStack)
		f1 := a.jcc32(byte(x86.CCBE)) // in stack range
		a.aluRI(aluCmpExt, hCX, low)
		f2 := a.jcc32(byte(x86.CCB)) // below heap base: fault
		a.loadM(hAX, offBrk)
		a.aluRI(aluSubExt, hAX, size)
		a.aluRR(aluCmpMR, hCX, hAX)
		f3 := a.jcc32(byte(x86.CCBE)) // in heap range
		a.patch(f2)
		a.storeM(offTrapAddr, hCX)
		e.leave(s)
		a.patch(f1)
		a.patch(f3)
		return
	}
	a.aluRI(aluCmpExt, hCX, low)
	f1 := a.jcc32(byte(x86.CCB)) // below heap base: try the stack
	a.loadM(hAX, offBrk)
	a.aluRI(aluSubExt, hAX, size)
	a.aluRR(aluCmpMR, hCX, hAX)
	f2 := a.jcc32(byte(x86.CCBE)) // in heap range
	a.patch(f1)
	a.leaD(hAX, hCX, -e.sbase)
	a.aluRI(aluCmpExt, hAX, kStack)
	f3 := a.jcc32(byte(x86.CCBE)) // in stack range
	a.storeM(offTrapAddr, hCX)
	e.leave(s)
	a.patch(f2)
	a.patch(f3)
}

// stub registers an out-of-line exit path reached from fixes. It is
// emitted after the mainline, with the flag state the mainline had here.
func (e *nemit) stub(emit func(), fixes ...int32) {
	fl := e.flOp
	e.pend = append(e.pend, pstub{fixes: fixes, emit: func() {
		e.flOp = fl
		emit()
	}})
}

// refund gives back what the entry charged for the part of the trace
// exit s leaves unexecuted.
func (e *nemit) refund(s int32) {
	x := &e.t.Exits[s-1]
	if x.Refund != 0 {
		e.a.aluMI64(aluAddExt, offFuel, uint32(x.Refund))
	}
	if x.RefundUops != 0 {
		e.a.aluMI64(aluSubExt, offUops, uint32(x.RefundUops))
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
	x := &e.t.Exits[s-1]
	x.Slot = e.t.Slots
	e.t.Slots++
	e.stubs = append(e.stubs, 0)
	return int32(x.Slot) * int32(LinkSize)
}

// stubHere marks the current position as the return stub of exit s's
// slot: what the slot holds until the VM links it.
func (e *nemit) stubHere(s int32) {
	e.stubs[e.t.Exits[s-1].Slot] = e.a.here()
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
	x := &e.t.Exits[s-1]
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
	a.loadM64(hAX, offCur)
	a.addRM64(hAX, offLinks)
	a.loadRD(hDX, hAX, off+linkCur)
	a.jmpMD(hAX, off+linkEntry)
	e.stubHere(s)
	a.retStatus(s)
}

// linkStub is link as an out-of-line path reached from fixes.
func (e *nemit) linkStub(s int32, fixes ...int32) {
	e.stub(func() { e.link(s) }, fixes...)
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
	a.loadM64(hCX, offCur)
	a.addRM64(hCX, offLinks)
	a.cmpRMD(reg, hCX, off+linkAddr)
	miss := a.jcc32(byte(x86.CCNE))
	a.loadRD(hDX, hCX, off+linkCur)
	a.jmpMD(hCX, off+linkEntry)
	a.patch(miss)
	e.stubHere(s)
	a.storeM(offExitTgt, reg)
	a.retStatus(s)
}

// insByte writes the byte value in EAX (0..255) into Dst.byte[dsh]:
// *pd = *pd &^ (0xFF<<dsh) | val<<dsh. Clobbers DX and flags.
func (e *nemit) insByte(dsh uint8, pd int32) {
	a := &e.a
	if dsh != 0 {
		a.shiftRI(shlExt, hAX, dsh)
	}
	a.loadM(hDX, pd)
	a.aluRI(aluAndExt, hDX, ^(uint32(0xFF) << dsh))
	a.aluRR(aluOrMR, hDX, hAX)
	a.storeM(pd, hDX)
}

// ---- flag-record helpers (whole-struct semantics: unset fields zero) ----
//
// Each helper also advances the static flag-state tracker; helpers
// invoked from exit stubs run after the whole mainline is emitted, so
// the stray update cannot mislead a later consumer.

func (e *nemit) recABRes(op uop.FlagOp, aReg, bReg, resReg int) {
	a := &e.a
	a.storeMI(offFlOp, uint32(op))
	a.storeM(offFlA, aReg)
	a.storeM(offFlB, bReg)
	a.storeMI(offFlCin, 0)
	a.storeM(offFlRes, resReg)
	e.flOp = int(op)
}

func (e *nemit) recABIRes(op uop.FlagOp, aReg int, bImm uint32, resReg int) {
	a := &e.a
	a.storeMI(offFlOp, uint32(op))
	a.storeM(offFlA, aReg)
	a.storeMI(offFlB, bImm)
	a.storeMI(offFlCin, 0)
	a.storeM(offFlRes, resReg)
	e.flOp = int(op)
}

func (e *nemit) recLogic(op uop.FlagOp, resReg int) {
	a := &e.a
	a.storeMI(offFlOp, uint32(op))
	a.storeMI(offFlA, 0)
	a.storeMI(offFlB, 0)
	a.storeMI(offFlCin, 0)
	a.storeM(offFlRes, resReg)
	e.flOp = int(op)
}

// recSZP is the uimul/umul1 partial record: Fl.Op, Fl.Res = FlagSZP,
// res — a byte store (KeptCF preserved) plus the result.
func (e *nemit) recSZP(resReg int) {
	e.a.storeMI8(offFlOp, byte(uop.FlagSZP))
	e.a.storeM(offFlRes, resReg)
	e.flOp = int(uop.FlagSZP)
}

// ---- generic ALU bodies -------------------------------------------------

// alu32 emits res(R8) = EAX op b (b in bReg, or bImm when bReg < 0),
// recording flags when rec, mirroring Machine.ualu. Returns (wb, ok);
// ok is false for ADC/SBB, which need lazy-CF materialization.
func (e *nemit) alu32(op uop.AluOp, bReg int, bImm uint32, rec bool) (bool, bool) {
	a := &e.a
	do := func(mr byte, ext int) {
		a.movRR(hR8, hAX)
		if bReg < 0 {
			a.aluRI(ext, hR8, bImm)
		} else {
			a.aluRR(mr, hR8, bReg)
		}
	}
	recAB := func(fo uop.FlagOp) {
		if !rec {
			return
		}
		if bReg < 0 {
			e.recABIRes(fo, hAX, bImm, hR8)
		} else {
			e.recABRes(fo, hAX, bReg, hR8)
		}
	}
	switch op {
	case uop.AluAdd:
		do(aluAddMR, aluAddExt)
		recAB(uop.FlagAdd)
		return true, true
	case uop.AluSub:
		do(aluSubMR, aluSubExt)
		recAB(uop.FlagSub)
		return true, true
	case uop.AluCmp:
		do(aluSubMR, aluSubExt)
		recAB(uop.FlagSub)
		return false, true
	case uop.AluAnd:
		do(aluAndMR, aluAndExt)
		if rec {
			e.recLogic(uop.FlagLogic, hR8)
		}
		return true, true
	case uop.AluOr:
		do(aluOrMR, aluOrExt)
		if rec {
			e.recLogic(uop.FlagLogic, hR8)
		}
		return true, true
	case uop.AluXor:
		do(aluXorMR, aluXorExt)
		if rec {
			e.recLogic(uop.FlagLogic, hR8)
		}
		return true, true
	case uop.AluTest:
		do(aluAndMR, aluAndExt)
		if rec {
			e.recLogic(uop.FlagLogic, hR8)
		}
		return false, true
	case uop.AluAdc, uop.AluSbb:
		return e.aluCarry(op, bReg, bImm, rec, false)
	}
	return false, false
}

// aluCarry emits ADC/SBB for alu32/alu8: materialize the carry-in from
// the current record, combine with plain adds/subs, and write the full
// FlagAdc/FlagSbb record including Cin — mirroring Machine.ualu. The
// memory forms keep their writeback address live in CX across the ALU
// body, so CX is spilled around the materializer (which clobbers it).
func (e *nemit) aluCarry(op uop.AluOp, bReg int, bImm uint32, rec, byteWidth bool) (bool, bool) {
	if !rec || e.flOp == flUnknown {
		return false, false // stays on tier-1
	}
	a := &e.a
	a.pushR(hCX)
	a.movRR(hR8, hAX) // a
	if bReg >= 0 {
		a.movRR(hR9, bReg) // b
	}
	e.cfValue(hAX) // cin
	a.popR(hCX)

	sel, ext, fo := byte(aluAddMR), aluAddExt, uop.FlagAdc
	if op == uop.AluSbb {
		sel, ext, fo = byte(aluSubMR), aluSubExt, uop.FlagSbb
	}
	if byteWidth {
		fo = uop.FlagAdc8
		if op == uop.AluSbb {
			fo = uop.FlagSbb8
		}
	}
	a.movRR(hDX, hR8)
	if bReg >= 0 {
		a.aluRR(sel, hDX, hR9)
	} else {
		a.aluRI(ext, hDX, bImm)
	}
	a.aluRR(sel, hDX, hAX) // ± cin
	if byteWidth {
		a.aluRI(aluAndExt, hDX, 0xFF)
	}
	a.storeMI(offFlOp, uint32(fo))
	a.storeM(offFlA, hR8)
	if bReg >= 0 {
		a.storeM(offFlB, hR9)
	} else {
		a.storeMI(offFlB, bImm)
	}
	a.storeM(offFlCin, hAX)
	a.storeM(offFlRes, hDX)
	a.movRR(hR8, hDX)
	e.flOp = int(fo)
	return true, true
}

// alu8 is the byte-width form: a pre-masked in EAX, b pre-masked in
// bReg (or raw bImm), result masked in R8, *8 flag records.
func (e *nemit) alu8(op uop.AluOp, bReg int, bImm uint32, rec bool) (bool, bool) {
	a := &e.a
	do := func(mr byte, ext int, mask bool) {
		a.movRR(hR8, hAX)
		if bReg < 0 {
			a.aluRI(ext, hR8, bImm)
		} else {
			a.aluRR(mr, hR8, bReg)
		}
		if mask {
			a.aluRI(aluAndExt, hR8, 0xFF)
		}
	}
	recAB := func(fo uop.FlagOp) {
		if !rec {
			return
		}
		if bReg < 0 {
			e.recABIRes(fo, hAX, bImm, hR8)
		} else {
			e.recABRes(fo, hAX, bReg, hR8)
		}
	}
	switch op {
	case uop.AluAdd:
		do(aluAddMR, aluAddExt, true)
		recAB(uop.FlagAdd8)
		return true, true
	case uop.AluSub:
		do(aluSubMR, aluSubExt, true)
		recAB(uop.FlagSub8)
		return true, true
	case uop.AluCmp:
		do(aluSubMR, aluSubExt, true)
		recAB(uop.FlagSub8)
		return false, true
	case uop.AluAnd:
		do(aluAndMR, aluAndExt, false)
		if rec {
			e.recLogic(uop.FlagLogic8, hR8)
		}
		return true, true
	case uop.AluOr:
		do(aluOrMR, aluOrExt, false)
		if rec {
			e.recLogic(uop.FlagLogic8, hR8)
		}
		return true, true
	case uop.AluXor:
		do(aluXorMR, aluXorExt, false)
		if rec {
			e.recLogic(uop.FlagLogic8, hR8)
		}
		return true, true
	case uop.AluTest:
		do(aluAndMR, aluAndExt, false)
		if rec {
			e.recLogic(uop.FlagLogic8, hR8)
		}
		return false, true
	case uop.AluAdc, uop.AluSbb:
		return e.aluCarry(op, bReg, bImm, rec, true)
	}
	return false, false
}

// loadByteOf loads Reg.byte[sh] masked into reg.
func (e *nemit) loadByteOf(reg int, rOff int32, sh uint8) {
	a := &e.a
	a.loadM(reg, rOff)
	if sh != 0 {
		a.shiftRI(shrExt, reg, sh)
	}
	a.aluRI(aluAndExt, reg, 0xFF)
}

// one emits micro-op i. Returns false on a micro-op the native backend
// cannot express without materializing lazy flags.
func (e *nemit) one(i int) bool {
	u := &e.us[i]
	a := &e.a
	pd, ps := regOff(u.Dst), regOff(u.Src)
	pa := paOff(u)
	rESP, rECX := regOff(uint8(x86.ESP)), regOff(uint8(x86.ECX))
	rEAX, rEDX := regOff(uint8(x86.EAX)), regOff(uint8(x86.EDX))
	imm, dsh, ssh := u.Imm, u.Dsh, u.Ssh
	cc := byte(u.Sub)
	aluOp := uop.AluOp(u.Sub)

	switch u.Kind {
	case uop.KindNop:

	// --- moves ---
	case uop.KindMovRR:
		a.loadM(hAX, ps)
		a.storeM(pd, hAX)
	case uop.KindMovRI:
		a.storeMI(pd, imm)
	case uop.KindMovRR8:
		e.loadByteOf(hAX, ps, ssh)
		e.insByte(dsh, pd)
	case uop.KindMovRI8:
		a.loadM(hDX, pd)
		a.aluRI(aluAndExt, hDX, ^(uint32(0xFF) << dsh))
		if v := (imm & 0xFF) << dsh; v != 0 {
			a.aluRI(aluOrExt, hDX, v)
		}
		a.storeM(pd, hDX)
	case uop.KindLoad:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pd, hAX)
	case uop.KindLoad8:
		e.addr(u)
		e.checkRd(1, e.rf(i, u.EIP, 1, 1), false)
		a.loadG(hAX, hCX, 1, false)
		e.insByte(dsh, pd)
	case uop.KindStore:
		e.addr(u)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), false)
		a.loadM(hAX, ps)
		a.storeG(hCX, hAX, 4)
	case uop.KindStore8:
		e.addr(u)
		e.checkWr(1, e.wf(i, u.EIP, 1, 1), false)
		a.loadM(hAX, ps)
		if ssh != 0 {
			a.shiftRI(shrExt, hAX, ssh)
		}
		a.storeG(hCX, hAX, 1)
	case uop.KindStoreI:
		e.addr(u)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), false)
		a.storeGI(hCX, imm, 4)
	case uop.KindStoreI8:
		e.addr(u)
		e.checkWr(1, e.wf(i, u.EIP, 1, 1), false)
		a.storeGI(hCX, imm, 1)
	case uop.KindLea:
		e.addr(u)
		a.storeM(pd, hCX)

	// --- widening moves ---
	case uop.KindMovzxRR8:
		e.loadByteOf(hAX, ps, ssh)
		a.storeM(pd, hAX)
	case uop.KindMovzxRR16:
		a.loadM(hAX, ps)
		a.widenRR(0xB7, hAX, hAX)
		a.storeM(pd, hAX)
	case uop.KindMovzxRM8:
		e.addr(u)
		e.checkRd(1, e.rf(i, u.EIP, 1, 1), false)
		a.loadG(hAX, hCX, 1, false)
		a.storeM(pd, hAX)
	case uop.KindMovzxRM16:
		e.addr(u)
		e.checkRd(2, e.rf(i, u.EIP, 2, 1), false)
		a.loadG(hAX, hCX, 2, false)
		a.storeM(pd, hAX)
	case uop.KindMovsxRR8:
		a.loadM(hAX, ps)
		if ssh != 0 {
			a.shiftRI(shrExt, hAX, ssh)
		}
		a.widenRR(0xBE, hAX, hAX)
		a.storeM(pd, hAX)
	case uop.KindMovsxRR16:
		a.loadM(hAX, ps)
		a.widenRR(0xBF, hAX, hAX)
		a.storeM(pd, hAX)
	case uop.KindMovsxRM8:
		e.addr(u)
		e.checkRd(1, e.rf(i, u.EIP, 1, 1), false)
		a.loadG(hAX, hCX, 1, true)
		a.storeM(pd, hAX)
	case uop.KindMovsxRM16:
		e.addr(u)
		e.checkRd(2, e.rf(i, u.EIP, 2, 1), false)
		a.loadG(hAX, hCX, 2, true)
		a.storeM(pd, hAX)

	case uop.KindXchgRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		a.storeM(pd, hDX)
		a.storeM(ps, hAX)

	// --- fully specialized 32-bit ALU forms ---
	case uop.KindAddRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		a.lea32(hR8, hAX, hDX, 1, 0)
		a.storeM(pd, hR8)
		e.recABRes(uop.FlagAdd, hAX, hDX, hR8)
	case uop.KindAddRI:
		a.loadM(hAX, pd)
		a.leaD(hR8, hAX, imm)
		a.storeM(pd, hR8)
		e.recABIRes(uop.FlagAdd, hAX, imm, hR8)
	case uop.KindSubRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		a.movRR(hR8, hAX)
		a.aluRR(aluSubMR, hR8, hDX)
		a.storeM(pd, hR8)
		e.recABRes(uop.FlagSub, hAX, hDX, hR8)
	case uop.KindSubRI:
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		a.aluRI(aluSubExt, hR8, imm)
		a.storeM(pd, hR8)
		e.recABIRes(uop.FlagSub, hAX, imm, hR8)
	case uop.KindCmpRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		a.movRR(hR8, hAX)
		a.aluRR(aluSubMR, hR8, hDX)
		e.recABRes(uop.FlagSub, hAX, hDX, hR8)
	case uop.KindCmpRI:
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		a.aluRI(aluSubExt, hR8, imm)
		e.recABIRes(uop.FlagSub, hAX, imm, hR8)
	case uop.KindAndRR, uop.KindOrRR, uop.KindXorRR, uop.KindTestRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		a.movRR(hR8, hAX)
		switch u.Kind {
		case uop.KindAndRR, uop.KindTestRR:
			a.aluRR(aluAndMR, hR8, hDX)
		case uop.KindOrRR:
			a.aluRR(aluOrMR, hR8, hDX)
		default:
			a.aluRR(aluXorMR, hR8, hDX)
		}
		if u.Kind != uop.KindTestRR {
			a.storeM(pd, hR8)
		}
		e.recLogic(uop.FlagLogic, hR8)
	case uop.KindAndRI, uop.KindOrRI, uop.KindXorRI, uop.KindTestRI:
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		switch u.Kind {
		case uop.KindAndRI, uop.KindTestRI:
			a.aluRI(aluAndExt, hR8, imm)
		case uop.KindOrRI:
			a.aluRI(aluOrExt, hR8, imm)
		default:
			a.aluRI(aluXorExt, hR8, imm)
		}
		if u.Kind != uop.KindTestRI {
			a.storeM(pd, hR8)
		}
		e.recLogic(uop.FlagLogic, hR8)

	// --- remaining ALU forms ---
	case uop.KindAluRR:
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		wb, ok := e.alu32(aluOp, hDX, 0, true)
		if !ok {
			return false
		}
		if wb {
			a.storeM(pd, hR8)
		}
	case uop.KindAluRI:
		a.loadM(hAX, pd)
		wb, ok := e.alu32(aluOp, -1, imm, true)
		if !ok {
			return false
		}
		if wb {
			a.storeM(pd, hR8)
		}
	case uop.KindAluRM:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hDX, hCX, 4, false)
		a.loadM(hAX, pd)
		wb, ok := e.alu32(aluOp, hDX, 0, true)
		if !ok {
			return false
		}
		if wb {
			a.storeM(pd, hR8)
		}
	case uop.KindAluMR, uop.KindAluMI:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		var wb, ok bool
		if u.Kind == uop.KindAluMR {
			a.loadM(hDX, ps)
			wb, ok = e.alu32(aluOp, hDX, 0, true)
		} else {
			wb, ok = e.alu32(aluOp, -1, imm, true)
		}
		if !ok {
			return false
		}
		if wb {
			e.checkWr(4, e.wf(i, u.EIP, 4, 1), false)
			a.storeG(hCX, hR8, 4)
		}
	case uop.KindAlu8RR:
		e.loadByteOf(hDX, ps, ssh)
		e.loadByteOf(hAX, pd, dsh)
		wb, ok := e.alu8(aluOp, hDX, 0, true)
		if !ok {
			return false
		}
		if wb {
			a.movRR(hAX, hR8)
			e.insByte(dsh, pd)
		}
	case uop.KindAlu8RI:
		e.loadByteOf(hAX, pd, dsh)
		wb, ok := e.alu8(aluOp, -1, imm, true)
		if !ok {
			return false
		}
		if wb {
			a.movRR(hAX, hR8)
			e.insByte(dsh, pd)
		}
	case uop.KindAlu8RM:
		e.addr(u)
		e.checkRd(1, e.rf(i, u.EIP, 1, 1), false)
		a.loadG(hDX, hCX, 1, false)
		e.loadByteOf(hAX, pd, dsh)
		wb, ok := e.alu8(aluOp, hDX, 0, true)
		if !ok {
			return false
		}
		if wb {
			a.movRR(hAX, hR8)
			e.insByte(dsh, pd)
		}
	case uop.KindAlu8MR, uop.KindAlu8MI:
		e.addr(u)
		e.checkRd(1, e.rf(i, u.EIP, 1, 1), false)
		a.loadG(hAX, hCX, 1, false)
		var wb, ok bool
		if u.Kind == uop.KindAlu8MR {
			e.loadByteOf(hDX, ps, ssh)
			wb, ok = e.alu8(aluOp, hDX, 0, true)
		} else {
			wb, ok = e.alu8(aluOp, -1, imm, true)
		}
		if !ok {
			return false
		}
		if wb {
			e.checkWr(1, e.wf(i, u.EIP, 1, 1), false)
			a.storeG(hCX, hR8, 1)
		}

	case uop.KindIncR, uop.KindDecR:
		// INC/DEC preserve CF: materialize it from the current record
		// and write a Keep record carrying it (Op and KeptCF share the
		// low word; one dword store zeroes the padding like recABRes).
		if e.flOp == flUnknown {
			return false
		}
		fo, delta := uop.FlagAddKeep, uint32(1)
		if u.Kind == uop.KindDecR {
			fo, delta = uop.FlagSubKeep, ^uint32(0)
		}
		e.cfValue(hAX)
		a.loadM(hDX, pd)
		a.leaD(hR8, hDX, delta)
		a.storeM(pd, hR8)
		a.shiftRI(shlExt, hAX, 8)
		a.aluRI(aluOrExt, hAX, uint32(fo))
		a.storeM(offFlOp, hAX) // Op | KeptCF<<8
		a.storeM(offFlA, hDX)
		a.storeMI(offFlB, 1)
		a.storeMI(offFlCin, 0)
		a.storeM(offFlRes, hR8)
		e.flOp = int(fo)

	case uop.KindNegR:
		a.loadM(hDX, pd)
		a.movRR(hAX, hDX)
		a.negNot(3, hAX)
		a.storeM(pd, hAX)
		a.storeMI(offFlOp, uint32(uop.FlagSub))
		a.storeMI(offFlA, 0)
		a.storeM(offFlB, hDX)
		a.storeMI(offFlCin, 0)
		a.storeM(offFlRes, hAX)
		e.flOp = int(uop.FlagSub)
	case uop.KindNotR:
		a.loadM(hAX, pd)
		a.negNot(2, hAX)
		a.storeM(pd, hAX)

	// --- shifts ---
	case uop.KindShiftRI:
		var fo uop.FlagOp
		var ext int
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			fo, ext = uop.FlagShl, shlExt
		case uop.ShShr:
			fo, ext = uop.FlagShr, shrExt
		default:
			fo, ext = uop.FlagSar, sarExt
		}
		a.loadM(hDX, pd)
		a.movRR(hAX, hDX)
		if n := byte(imm & 31); n != 0 {
			a.shiftRI(ext, hAX, n)
		}
		a.storeM(pd, hAX)
		e.recABIRes(fo, hDX, imm, hAX)
	case uop.KindShiftRCL:
		var fo uop.FlagOp
		var ext int
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			fo, ext = uop.FlagShl, shlExt
		case uop.ShShr:
			fo, ext = uop.FlagShr, shrExt
		default:
			fo, ext = uop.FlagSar, sarExt
		}
		a.loadM(hCX, rECX)
		a.aluRI(aluAndExt, hCX, 31)
		f := a.jcc32(byte(x86.CCE)) // count 0: no write, no record
		a.loadM(hDX, pd)
		a.movRR(hAX, hDX)
		a.shiftCL(ext, hAX)
		a.storeM(pd, hAX)
		a.storeMI(offFlOp, uint32(fo))
		a.storeM(offFlA, hDX)
		a.storeM(offFlB, hCX)
		a.storeMI(offFlCin, 0)
		a.storeM(offFlRes, hAX)
		a.patch(f)
		e.flOp = flUnknown // record written only when the count was nonzero

	// --- multiply / divide ---
	case uop.KindImulRR, uop.KindImulRRI:
		if u.Kind == uop.KindImulRR {
			a.loadM(hAX, pd)
		} else {
			a.movRI(hAX, imm)
		}
		a.loadM(hDX, ps)
		a.imulRR(hAX, hDX)
		a.setccM(byte(x86.CCO), offCF)
		a.setccM(byte(x86.CCO), offOF)
		a.storeM(regOff(u.Dst), hAX)
		e.recSZP(hAX)
	case uop.KindImulRM, uop.KindImulRMI:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hDX, hCX, 4, false)
		if u.Kind == uop.KindImulRM {
			a.loadM(hAX, pd)
		} else {
			a.movRI(hAX, imm)
		}
		a.imulRR(hAX, hDX)
		a.setccM(byte(x86.CCO), offCF)
		a.setccM(byte(x86.CCO), offOF)
		a.storeM(regOff(u.Dst), hAX)
		e.recSZP(hAX)
	case uop.KindMulR, uop.KindMulM:
		if u.Kind == uop.KindMulR {
			a.loadM(hCX, ps)
		} else {
			e.addr(u)
			e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
			a.loadG(hCX, hCX, 4, false)
		}
		a.loadM(hAX, rEAX)
		if u.Sub != 0 {
			a.mulDiv(5, hCX) // one-operand imul: CF=OF=result doesn't fit 32
		} else {
			a.mulDiv(4, hCX) // mul: CF=OF=(edx != 0)
		}
		a.setccM(byte(x86.CCB), offCF)
		a.setccM(byte(x86.CCB), offOF)
		a.storeM(rEAX, hAX)
		a.storeM(rEDX, hDX)
		e.recSZP(hAX)
	case uop.KindDivR, uop.KindDivM:
		signed := u.Sub != 0
		sd := e.exit(Exit{Kind: ExitDivide, Uop: i, EIP: u.EIP, Started: 1})
		if u.Kind == uop.KindDivR {
			a.loadM(hCX, ps)
		} else {
			e.addr(u)
			e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
			a.loadG(hCX, hCX, 4, false)
		}
		a.testRR(hCX, hCX)
		fz := a.jcc32(byte(x86.CCE))
		e.stub(func() {
			a.storeMI(offTrapAux, 0)
			e.leave(sd)
		}, fz)
		if !signed {
			a.loadM(hAX, rEAX)
			a.loadM(hDX, rEDX)
			// Quotient fits 32 bits iff high(dividend) < divisor; the
			// hardware #DE cases are exactly the guest's overflow trap.
			a.aluRR(aluCmpMR, hDX, hCX)
			fo := a.jcc32(byte(x86.CCAE))
			e.stub(func() {
				a.storeMI(offTrapAux, 1)
				e.leave(sd)
			}, fo)
			a.mulDiv(6, hCX)
			a.storeM(rEAX, hAX)
			a.storeM(rEDX, hDX)
		} else {
			// 64/64 idiv of the sign-extended dividend: the only
			// hardware fault left is INT64_MIN / -1, pre-checked; every
			// other quotient overflow is caught after the divide.
			a.loadM(hAX, rEAX)
			a.loadM(hDX, rEDX)
			a.shiftRI64(shlExt, hDX, 32)
			a.aluRR64(aluOrMR, hAX, hDX)
			a.movsxd(hCX, hCX)
			a.aluRI64(aluCmpExt, hCX, 0xFFFFFFFF) // rcx == -1?
			fskip := a.jcc32(byte(x86.CCNE))
			a.movRI64(hDX, 0x8000000000000000)
			a.aluRR64(aluCmpMR, hAX, hDX)
			fo1 := a.jcc32(byte(x86.CCE))
			a.patch(fskip)
			a.cqo()
			a.mulDiv64(7, hCX)
			a.movsxd(hR8, hAX)
			a.aluRR64(aluCmpMR, hR8, hAX)
			fo2 := a.jcc32(byte(x86.CCNE))
			e.stub(func() {
				a.storeMI(offTrapAux, 1)
				e.leave(sd)
			}, fo1, fo2)
			a.storeM(rEAX, hAX)
			a.storeM(rEDX, hDX)
		}
	case uop.KindCdq:
		a.loadM(hAX, rEAX)
		a.shiftRI(sarExt, hAX, 31)
		a.storeM(rEDX, hAX)

	// --- stack ---
	case uop.KindPushR, uop.KindPushI:
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		if u.Kind == uop.KindPushR {
			a.loadM(hAX, ps)
			a.storeG(hCX, hAX, 4)
		} else {
			a.storeGI(hCX, imm, 4)
		}
		a.storeM(rESP, hCX)
	case uop.KindPushM:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hR8, hCX, 4, false)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.storeG(hCX, hR8, 4)
		a.storeM(rESP, hCX)
	case uop.KindPopR:
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4)
		a.storeM(rESP, hDX)
		a.storeM(pd, hAX) // a popped ESP wins over the increment
	case uop.KindPopM:
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), true)
		a.loadG(hR8, hCX, 4, false)
		a.leaD(hAX, hCX, 4)
		a.storeM(rESP, hAX)
		e.addr(u) // the store address sees the popped ESP
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), false)
		a.storeG(hCX, hR8, 4)

	case uop.KindSetccR8:
		if !e.flagsCond(cc, hAX, hR8) {
			return false
		}
		e.insByte(dsh, pd)
	case uop.KindSetccM8:
		// Condition first (mirrors the closure), then the address:
		// addr clobbers CX/DX, so the value parks in R9.
		if !e.flagsCond(cc, hR9, hR8) {
			return false
		}
		e.addr(u)
		e.checkWr(1, e.wf(i, u.EIP, 1, 1), false)
		a.storeG(hCX, hR9, 1)

	// --- flag-suppressed ALU forms ---
	case uop.KindAddRRNF, uop.KindSubRRNF, uop.KindAndRRNF, uop.KindOrRRNF, uop.KindXorRRNF:
		a.loadM(hAX, ps)
		switch u.Kind {
		case uop.KindAddRRNF:
			a.aluMR(aluAddMR, pd, hAX)
		case uop.KindSubRRNF:
			a.aluMR(aluSubMR, pd, hAX)
		case uop.KindAndRRNF:
			a.aluMR(aluAndMR, pd, hAX)
		case uop.KindOrRRNF:
			a.aluMR(aluOrMR, pd, hAX)
		default:
			a.aluMR(aluXorMR, pd, hAX)
		}
	case uop.KindAddRINF:
		a.aluMI(aluAddExt, pd, imm)
	case uop.KindSubRINF:
		a.aluMI(aluSubExt, pd, imm)
	case uop.KindAndRINF:
		a.aluMI(aluAndExt, pd, imm)
	case uop.KindOrRINF:
		a.aluMI(aluOrExt, pd, imm)
	case uop.KindXorRINF:
		a.aluMI(aluXorExt, pd, imm)
	case uop.KindIncRNF:
		a.aluMI(aluAddExt, pd, 1)
	case uop.KindDecRNF:
		a.aluMI(aluSubExt, pd, 1)
	case uop.KindShiftRINF:
		var ext int
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			ext = shlExt
		case uop.ShShr:
			ext = shrExt
		default:
			ext = sarExt
		}
		a.loadM(hAX, pd)
		if n := byte(imm & 31); n != 0 {
			a.shiftRI(ext, hAX, n)
		}
		a.storeM(pd, hAX)
	case uop.KindShiftRCLNF:
		var ext int
		switch uop.ShOp(u.Sub) {
		case uop.ShShl:
			ext = shlExt
		case uop.ShShr:
			ext = shrExt
		default:
			ext = sarExt
		}
		a.loadM(hCX, rECX)
		a.loadM(hAX, pd)
		a.shiftCL(ext, hAX) // hardware masks the count mod 32 itself
		a.storeM(pd, hAX)

	// --- fused compare/setcc and boolean materialization ---
	case uop.KindCmpSetccRR, uop.KindCmpSetccRI, uop.KindCmpBoolRR, uop.KindCmpBoolRI:
		rr := u.Kind == uop.KindCmpSetccRR || u.Kind == uop.KindCmpBoolRR
		a.loadM(hAX, ps)
		a.movRR(hR8, hAX)
		if rr {
			a.loadM(hDX, pa)
			a.aluRR(aluSubMR, hR8, hDX)
		} else {
			a.aluRI(aluSubExt, hR8, imm)
		}
		a.movRI(hR9, 0)
		a.setcc(cc, hR9)
		if rr {
			e.recABRes(uop.FlagSub, hAX, hDX, hR8)
		} else {
			e.recABIRes(uop.FlagSub, hAX, imm, hR8)
		}
		if u.Kind == uop.KindCmpBoolRR || u.Kind == uop.KindCmpBoolRI {
			a.storeM(pd, hR9)
		} else {
			a.movRR(hAX, hR9)
			e.insByte(dsh, pd)
		}
	case uop.KindTestSetccRR, uop.KindTestSetccRI, uop.KindTestBoolRR, uop.KindTestBoolRI:
		rr := u.Kind == uop.KindTestSetccRR || u.Kind == uop.KindTestBoolRR
		a.loadM(hAX, ps)
		a.movRR(hR8, hAX)
		if rr {
			a.loadM(hDX, pa)
			a.aluRR(aluAndMR, hR8, hDX)
		} else {
			a.aluRI(aluAndExt, hR8, imm)
		}
		a.movRI(hR9, 0)
		a.setcc(cc, hR9)
		e.recLogic(uop.FlagLogic, hR8)
		if u.Kind == uop.KindTestBoolRR || u.Kind == uop.KindTestBoolRI {
			a.storeM(pd, hR9)
		} else {
			a.movRR(hAX, hR9)
			e.insByte(dsh, pd)
		}
	case uop.KindCmpBoolRRNF, uop.KindCmpBoolRINF:
		a.loadM(hAX, ps)
		if u.Kind == uop.KindCmpBoolRRNF {
			a.loadM(hDX, pa)
			a.aluRR(aluCmpMR, hAX, hDX)
		} else {
			a.aluRI(aluCmpExt, hAX, imm)
		}
		a.movRI(hR9, 0)
		a.setcc(cc, hR9)
		a.storeM(pd, hR9)
	case uop.KindTestBoolRRNF, uop.KindTestBoolRINF:
		a.loadM(hAX, ps)
		if u.Kind == uop.KindTestBoolRRNF {
			a.loadM(hDX, pa)
			a.testRR(hAX, hDX)
		} else {
			a.testRI(hAX, imm)
		}
		a.movRI(hR9, 0)
		a.setcc(cc, hR9)
		a.storeM(pd, hR9)

	// --- fused load-op ---
	case uop.KindLoadAluRR:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pa, hAX)
		a.loadM(hAX, pd)
		a.loadM(hDX, ps)
		wb, ok := e.alu32(aluOp, hDX, 0, true)
		if !ok {
			return false
		}
		if wb {
			a.storeM(pd, hR8)
		}
	case uop.KindLoadAluRRNF:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pa, hAX)
		// ualuQ: quiet Add/Sub/And/Or/Xor; anything else writes nothing.
		var mr byte
		switch aluOp {
		case uop.AluAdd:
			mr = aluAddMR
		case uop.AluSub:
			mr = aluSubMR
		case uop.AluAnd:
			mr = aluAndMR
		case uop.AluOr:
			mr = aluOrMR
		case uop.AluXor:
			mr = aluXorMR
		default:
			break
		}
		if mr != 0 {
			a.loadM(hAX, ps)
			a.aluMR(mr, pd, hAX)
		}

	// --- data-movement pair fusions ---
	case uop.KindMovPop:
		a.loadM(hAX, ps)
		a.storeM(pa, hAX)
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.Imm, 4, 2), true) // pop EIP rides in Imm
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4)
		a.storeM(rESP, hDX)
		a.storeM(pd, hAX)
	case uop.KindMovPopAluRR, uop.KindMovPopAluRRNF:
		rec := u.Kind == uop.KindMovPopAluRR
		a.loadM(hAX, ps)
		a.storeM(pa, hAX)
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.Imm, 4, 2), true)
		a.loadG(hR8, hCX, 4, false) // a = popped value
		a.leaD(hDX, hCX, 4)
		a.storeM(rESP, hDX)
		a.loadM(hDX, pa) // b = *pa, re-read as the closure does
		a.movRR(hR9, hR8)
		var fo uop.FlagOp
		switch aluOp {
		case uop.AluAdd:
			a.aluRR(aluAddMR, hR9, hDX)
			fo = uop.FlagAdd
		case uop.AluSub:
			a.aluRR(aluSubMR, hR9, hDX)
			fo = uop.FlagSub
		case uop.AluAnd:
			a.aluRR(aluAndMR, hR9, hDX)
			fo = uop.FlagLogic
		case uop.AluOr:
			a.aluRR(aluOrMR, hR9, hDX)
			fo = uop.FlagLogic
		default: // AluXor
			a.aluRR(aluXorMR, hR9, hDX)
			fo = uop.FlagLogic
		}
		if rec {
			if fo == uop.FlagLogic {
				e.recLogic(fo, hR9)
			} else {
				e.recABRes(fo, hR8, hDX, hR9)
			}
		}
		a.storeM(pd, hR9)
	case uop.KindPushLoad:
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.loadM(hAX, ps)
		a.storeG(hCX, hAX, 4)
		a.storeM(rESP, hCX)
		e.addr(u)
		e.checkRd(4, e.rf(i, u.Imm, 4, 2), false) // load EIP rides in Imm
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pd, hAX)
	case uop.KindLoadPush:
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pa, hAX)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.Imm, 4, 2), true) // push EIP rides in Imm
		a.loadM(hAX, ps)                         // re-read: Src may be the loaded register
		a.storeG(hCX, hAX, 4)
		a.storeM(rESP, hCX)
	case uop.KindPushMovI:
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.loadM(hAX, ps)
		a.storeG(hCX, hAX, 4)
		a.storeM(rESP, hCX)
		a.storeMI(pd, imm)
	case uop.KindMovIPush:
		a.storeMI(pd, imm)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.Disp, 4, 2), true) // push EIP rides in Disp
		a.loadM(hAX, ps)
		a.storeG(hCX, hAX, 4)
		a.storeM(rESP, hCX)
	case uop.KindMovIMov:
		a.storeMI(pd, imm)
		a.loadM(hAX, ps)
		a.storeM(pa, hAX)
	case uop.KindMovLoad:
		a.loadM(hAX, ps)
		a.storeM(pa, hAX)
		e.addr(u)
		e.checkRd(4, e.rf(i, u.Imm, 4, 2), false) // load EIP rides in Imm
		a.loadG(hAX, hCX, 4, false)
		a.storeM(pd, hAX)
	case uop.KindPopStore:
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4)
		a.storeM(rESP, hDX)
		a.storeM(pd, hAX)
		e.addr(u)
		e.checkWr(4, e.wf(i, u.Imm, 4, 2), false) // store EIP rides in Imm
		a.loadM(hAX, ps)                          // re-read: Src may be the popped register
		a.storeG(hCX, hAX, 4)

	// --- superblock guard exits ---
	case uop.KindGuard:
		// The plain guard evaluates its condition against the lazy
		// record (known statically or not at all) and leaves the
		// record untouched either way.
		e.t.Guards++
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		if !e.flagsCond(cc, hAX, hR8) {
			return false
		}
		a.testRR(hAX, hAX)
		e.linkStub(s, a.jcc32(byte(x86.CCNE)))
	case uop.KindGuardCmpRR, uop.KindGuardCmpRI:
		e.t.Guards++
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if u.Kind == uop.KindGuardCmpRR {
			a.loadM(hDX, ps)
			a.aluRR(aluSubMR, hR8, hDX)
			e.recABRes(uop.FlagSub, hAX, hDX, hR8) // both paths record
		} else {
			a.aluRI(aluSubExt, hR8, imm)
			e.recABIRes(uop.FlagSub, hAX, imm, hR8)
		}
		e.linkStub(s, a.jcc32(cc))
	case uop.KindGuardTestRR, uop.KindGuardTestRI:
		e.t.Guards++
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if u.Kind == uop.KindGuardTestRR {
			a.loadM(hDX, ps)
			a.aluRR(aluAndMR, hR8, hDX)
		} else {
			a.aluRI(aluAndExt, hR8, imm)
		}
		e.recLogic(uop.FlagLogic, hR8)
		e.linkStub(s, a.jcc32(cc))
	case uop.KindGuardCmpRRNF, uop.KindGuardCmpRINF:
		e.t.Guards++
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		rr := u.Kind == uop.KindGuardCmpRRNF
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if rr {
			a.loadM(hDX, ps)
			a.aluRR(aluSubMR, hR8, hDX)
		} else {
			a.aluRI(aluSubExt, hR8, imm)
		}
		f := a.jcc32(cc)
		e.stub(func() {
			// Exiting: the compare's flags become the visible state.
			if rr {
				e.recABRes(uop.FlagSub, hAX, hDX, hR8)
			} else {
				e.recABIRes(uop.FlagSub, hAX, imm, hR8)
			}
			e.link(s)
		}, f)
	case uop.KindGuardTestRRNF, uop.KindGuardTestRINF:
		e.t.Guards++
		s := e.exit(Exit{Kind: ExitGuard, Uop: i, Target: u.Target})
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if u.Kind == uop.KindGuardTestRRNF {
			a.loadM(hDX, ps)
			a.aluRR(aluAndMR, hR8, hDX)
		} else {
			a.aluRI(aluAndExt, hR8, imm)
		}
		f := a.jcc32(cc)
		e.stub(func() {
			e.recLogic(uop.FlagLogic, hR8)
			e.link(s)
		}, f)
	case uop.KindRetGuard:
		e.t.Rets++
		st := e.rf(i, u.EIP, 4, 1)
		s := e.exit(Exit{Kind: ExitRetGuard, Uop: i})
		a.loadM(hCX, rESP)
		e.checkRd(4, st, true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4+imm)
		a.storeM(rESP, hDX)
		a.aluRI(aluCmpExt, hAX, u.Target)
		f := a.jcc32(byte(x86.CCNE))
		e.stub(func() { e.linkInd(s, hAX) }, f)

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
		a.testRR(hAX, hAX)
		e.linkStub(st, a.jcc32(byte(x86.CCNE)))
		e.link(sf)
	case uop.KindCmpJccRR, uop.KindCmpJccRI:
		st := e.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := e.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if u.Kind == uop.KindCmpJccRR {
			a.loadM(hDX, ps)
			a.aluRR(aluSubMR, hR8, hDX)
			e.recABRes(uop.FlagSub, hAX, hDX, hR8)
		} else {
			a.aluRI(aluSubExt, hR8, imm)
			e.recABIRes(uop.FlagSub, hAX, imm, hR8)
		}
		e.linkStub(st, a.jcc32(cc))
		e.link(sf)
	case uop.KindTestJccRR, uop.KindTestJccRI:
		st := e.exit(Exit{Kind: ExitJccTaken, Uop: i, Target: u.Target})
		sf := e.exit(Exit{Kind: ExitJccFall, Uop: i, Target: u.Next})
		a.loadM(hAX, pd)
		a.movRR(hR8, hAX)
		if u.Kind == uop.KindTestJccRR {
			a.loadM(hDX, ps)
			a.aluRR(aluAndMR, hR8, hDX)
		} else {
			a.aluRI(aluAndExt, hR8, imm)
		}
		e.recLogic(uop.FlagLogic, hR8)
		e.linkStub(st, a.jcc32(cc))
		e.link(sf)
	case uop.KindCall:
		s := e.end(i, u.Target)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.storeGI(hCX, u.Next, 4)
		a.storeM(rESP, hCX)
		e.link(s)
	case uop.KindCallR:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.loadM(hR8, ps) // target read before the push can fault
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.storeGI(hCX, u.Next, 4)
		a.storeM(rESP, hCX)
		e.linkInd(s, hR8)
	case uop.KindCallM:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hR8, hCX, 4, false)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, e.wf(i, u.EIP, 4, 1), true)
		a.storeGI(hCX, u.Next, 4)
		a.storeM(rESP, hCX)
		e.linkInd(s, hR8)
	case uop.KindRet:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.loadM(hCX, rESP)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4+imm)
		a.storeM(rESP, hDX)
		e.linkInd(s, hAX)
	case uop.KindPopRet:
		s1 := e.rf(i, u.EIP, 4, 1)
		s2 := e.rf(i, u.Disp, 4, 2) // ret EIP rides in Disp
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.loadM(hCX, rESP)
		e.checkRd(4, s1, true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4)
		a.storeM(rESP, hDX)
		a.storeM(pd, hAX)
		a.leaD(hCX, hCX, 4)
		e.checkRd(4, s2, true)
		a.loadG(hAX, hCX, 4, false)
		a.leaD(hDX, hCX, 4+imm)
		a.storeM(rESP, hDX)
		e.linkInd(s, hAX)
	case uop.KindPushCall:
		s1 := e.wf(i, u.EIP, 4, 1)
		s2 := e.wf(i, u.Imm, 4, 2) // call EIP rides in Imm
		s := e.end(i, u.Target)
		a.loadM(hCX, rESP)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, s1, true)
		a.loadM(hAX, ps)
		a.storeG(hCX, hAX, 4)
		a.storeM(rESP, hCX)
		a.leaD(hCX, hCX, minus4)
		e.checkWr(4, s2, true)
		a.storeGI(hCX, u.Next, 4)
		a.storeM(rESP, hCX)
		e.link(s)
	case uop.KindJmpR:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		a.loadM(hAX, ps)
		e.linkInd(s, hAX)
	case uop.KindJmpM:
		s := e.exit(Exit{Kind: ExitInd, Uop: i})
		e.addr(u)
		e.checkRd(4, e.rf(i, u.EIP, 4, 1), false)
		a.loadG(hAX, hCX, 4, false)
		e.linkInd(s, hAX)
	case uop.KindInt:
		e.leave(e.exit(Exit{Kind: ExitInt, Uop: i, EIP: u.EIP, Started: 1}))
	case uop.KindHlt:
		s := e.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		a.storeMI(offTrapAux, 0)
		e.leave(s)
	case uop.KindUd2:
		s := e.exit(Exit{Kind: ExitIllegal, Uop: i, EIP: u.EIP, Started: 1})
		a.storeMI(offTrapAux, 1)
		e.leave(s)

	default:
		return false
	}
	return true
}
