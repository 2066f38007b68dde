package vm

// Tier-2 integration: promotion of hot superblocks into compiled traces
// (package tier2), the per-VM link table those traces leave through, and
// the exit dispatch that takes over when compiled code returns. The tier
// is invisible to guest semantics: every exit path below re-joins exactly
// the code path the tier-1 dispatch loop would have taken for the same
// micro-op — chain-slot resolution, trap construction — and the traces
// themselves have already charged and refunded the run's budget exactly
// as tier-1 charges fuel, so Steps is what a run took off it.
//
// The link-slot invariant: a slot of v.links is either unlinked (it
// leads back to the dispatcher with the status of the exit that owns it,
// as Trace.Unlinked says) or holds the entry
// address of a native trace that is the t2 of a superblock bref in
// v.blocks — a trace this VM holds, in a mapping the bref keeps alive.
// Slots are only ever written here (attachTrace, link), and a Reset
// keeps or drops the table whole, with v.blocks (Snapshot.blockMap);
// nothing detaches a single superblock, so no slot can outlive its
// target.

import (
	"fmt"
	"slices"
	"time"
	"unsafe"

	"vxa/internal/vm/tier2"
	"vxa/internal/x86"
)

// The promotion rule: a superblock's trace is compiled on the
// superblock's first entry from the dispatcher (execUops). Superblocks
// themselves form at sbHotThreshold block entries and run that entry on
// tier 1, so the path has proved itself before it is compiled; waiting
// for a further entry ran no workload faster (EXPERIMENTS.md, "One
// promotion rule"). A trace the snapshot already carries is installed at
// NewVM, or at a Reset that rebuilds the view, and is never compiled.

// A budget of one poll quantum must admit any trace, or an entry could
// decline for ever: a micro-op stands for at most three instructions.
const _ = uint(cancelQuantum - 4*sbMaxUops)

// A run's budget is at most one poll quantum, which compiled code's meter
// must hold whole: Trace.Run never has to clamp a run the dispatcher
// hands it.
const _ = uint(tier2.MaxRun - cancelQuantum)

// bindTier2 points the machine state at the VM's guest memory and
// sandbox geometry. Called wherever those are set: New, MapSegment and
// the snapshot restore.
func (v *VM) bindTier2() {
	m := &v.m
	m.Mem = v.mem
	m.Geometry = tier2.Geometry{MemLen: uint32(len(v.mem)), ROLimit: v.roLimit, StackBase: v.stackBase}
}

// compileTier2 compiles sb's trace for this VM's geometry and installs
// it in the VM's view of the superblock. One attempt per superblock: a
// bail (a tier-1-only kind in the trace) leaves it on tier-1. The
// trace charges fuel by the summed micro-op costs, which equal the
// superblock's block cost, exactly as tier-1 does. The code goes into
// the VM's arena — its snapshot's, or one of its own if it has none —
// and an arena with no room for it is one more way to stay on tier-1.
func (v *VM) compileTier2(sb *bref) {
	sb.t2Tried = true
	if v.arena == nil {
		v.arena = tier2.NewArena(tier2.ArenaSize)
	}
	start := time.Now()
	v.stats.UopsCompiled += uint64(len(sb.b.uops))
	t, o := tier2.Compile(sb.b.uops, sb.b.uops[0].EIP, v.m.Geometry, v.arena)
	d := time.Since(start)
	v.stats.TranslateNS += uint64(d)
	v.stats.Tier2EmitNS += uint64(d - o.Seal)
	v.stats.Tier2SealNS += uint64(o.Seal)
	if o.Refused {
		v.stats.Tier2Refused++
	}
	if t == nil {
		return
	}
	v.attachTrace(sb, t)
	v.stats.Tier2Compiled++
	v.stats.Tier2Code.Add(t.Ledger, 1)
}

// attachTrace makes t the compiled trace of sb in this VM's view and
// gives it its run of link slots, all unlinked.
func (v *VM) attachTrace(sb *bref, t *tier2.Trace) {
	sb.t2 = t
	sb.linkBase = len(v.links)
	v.links = append(v.links, t.Unlinked()...)
	// The owners grow with the slots, to the same capacity, in one step.
	v.linkOwner = slices.Grow(v.linkOwner, cap(v.links)-len(v.linkOwner))[:len(v.links)]
	for i := sb.linkBase; i < len(v.linkOwner); i++ {
		v.linkOwner[i] = sb
	}
	v.m.Links = unsafe.SliceData(v.links)
}

// dropLinks empties the link table; the caller is replacing v.blocks,
// which holds every trace a slot could point at.
func (v *VM) dropLinks() {
	clear(v.linkOwner)
	v.links, v.linkOwner = v.links[:0], v.linkOwner[:0]
	v.m.Links = nil
}

// linkOffset is the value m.Cur takes while sb's trace runs.
func linkOffset(sb *bref) uint32 {
	return uint32(sb.linkBase) * uint32(tier2.LinkSize)
}

// link resolves the edge exit e of sb's trace has just taken to nb: if nb
// has a superblock that carries a trace, e's slot is pointed at
// it, and the next time the exit is taken control goes from trace to
// trace without coming back here. A trace that needs its entry flags
// materialized is linked only from an exit that leaves them so. An
// inline-cache slot is simply overwritten: like the dispatcher's own
// caches it remembers the last target.
func (v *VM) link(sb *bref, e *tier2.Exit, nb *bref) {
	if e.Slot < 0 || nb == nil || nb.sb == nil || v.passes != nil {
		return
	}
	to := nb.sb
	if t := to.t2; t != nil && (!t.NeedFlags || e.Eager) {
		v.links[sb.linkBase+e.Slot].Link(t, linkOffset(to))
		v.stats.Tier2Links++
	}
}

// CountTracePasses makes v count, from now on — call it before v runs —
// the passes each of its traces runs, and returns the counts by trace entry address; v fills
// them as it runs. So that every run of compiled code is one trace's, v
// links no exit any more: what each trace executes is the same, only
// more of it comes back through the dispatcher. It is the test wall's
// hook, for ledgers weighted by what runs; nothing in the engine calls
// it.
func (v *VM) CountTracePasses() map[uint32]uint64 {
	v.passes = make(map[uint32]uint64)
	return v.passes
}

// CheckLinks verifies the link-slot invariant over the whole table and
// returns how many slots are linked: every slot is owned by a trace
// this VM holds, and holds either its unlinked content or
// the entry address and slot offset of another such trace. It is the
// test wall's hook; nothing in the engine calls it.
func (v *VM) CheckLinks() (linked int, err error) {
	held := make(map[uintptr]*bref)
	for _, br := range v.blocks {
		if sb := br.sb; sb != nil && sb.t2 != nil {
			held[sb.t2.EntryAddr()] = sb
		}
	}
	if len(v.links) != len(v.linkOwner) || (len(v.links) > 0 && v.m.Links != &v.links[0]) {
		return 0, fmt.Errorf("link table out of step: %d slots, %d owners", len(v.links), len(v.linkOwner))
	}
	for i, sb := range v.linkOwner {
		t := sb.t2
		if t == nil || held[t.EntryAddr()] != sb {
			return 0, fmt.Errorf("slot %d is owned by a trace the VM does not hold", i)
		}
		l := v.links[i]
		if l == t.Unlinked()[i-sb.linkBase] {
			continue
		}
		to := held[l.Entry]
		if to == nil || l.Cur != linkOffset(to) || to.t2.NeedFlags && to != sb {
			return 0, fmt.Errorf("slot %d of trace %#x holds %+v: not an entry this VM may link it to", i-sb.linkBase, t.Entry, l)
		}
		linked++
	}
	return linked, nil
}

// runTier2 enters sb's compiled trace and, when compiled code comes
// back — out of that trace or of any trace linked behind it — re-joins
// the tier-1 engine: the run's counters are folded into the statistics
// and the exit it stopped at is dispatched onto the same chain-slot and
// trap paths the tier-1 handler for the exiting micro-op uses, linking
// the edge for next time where it can. It returns the fragment to run
// next and the micro-op of it to start at: zero, except when the run
// stopped at a failed group check (tier2.ExitResume), where the fragment
// is the superblock of the trace that stopped and the micro-op the one
// the check guards — the trace has refunded it and everything after it.
// The caller must have checked v.m.Fuel >= sb.b.cost and polled if the
// credit had run out.
func (v *VM) runTier2(sb *bref, t *tier2.Trace) (*bref, int, error) {
	if t.NeedFlags {
		// The emitter pinned this trace's entry flag state to
		// FlagNone; representation-only, so architecturally invisible.
		v.materializeFlags()
	}
	m := &v.m
	// The run may spend whichever of fuel and poll credit runs out
	// first; trace entries charge that one budget.
	budget := min(m.Fuel, m.Credit)
	m.Budget, m.Acct, m.FlagsMaterialized = budget, 0, 0

	s := t.Run(m, linkOffset(sb))

	// Every charge and refund of the run is in m.Budget; Steps, fuel and
	// credit move in lockstep, so what the run took off the budget is the
	// instructions retired, all of them inside traces.
	used := budget - m.Budget
	m.Fuel -= used
	m.Credit -= used
	v.stats.Steps += uint64(used)
	v.stats.Tier2Steps += uint64(used)
	v.stats.UopsExecuted += m.Uops()
	v.stats.FlagsMaterialized += m.FlagsMaterialized
	v.stats.Tier2Executed += m.Passes()
	v.stats.Tier2Exits++
	if v.passes != nil {
		v.passes[t.Entry] += m.Passes()
	}

	if s == 0 {
		// A trace entry declined because the budget would not cover its
		// cost. If that was the fuel, the end-of-budget path finds the exact
		// trap EIP from here. If it was the credit — which is then short
		// of one trace's cost, so the poll comes at most that much early
		// — the dispatch loop must poll now rather than re-enter with
		// the same credit: spend the remainder.
		if m.Credit < m.Fuel {
			m.Credit = 0
		}
		v.eip = m.ExitTarget
		nb, err := v.lookupBlock(v.eip)
		return nb, 0, err
	}
	sb = v.linkOwner[m.Cur/uint64(tier2.LinkSize)]
	e := &sb.t2.Exits[s-1]
	us := sb.b.uops
	i := e.Uop
	u := &us[i]
	var nb *bref
	var err error
	switch e.Kind {
	case tier2.ExitEnd, tier2.ExitJccTaken:
		v.eip = e.Target
		nb, err = v.chainTo(&sb.taken, e.Target)
	case tier2.ExitJccFall:
		v.eip = e.Target
		nb, err = v.chainTo(&sb.fall, e.Target)
	case tier2.ExitJccLazy:
		// A plain Jcc terminator: the condition reads the
		// lazily-recorded flags, so the tier-1 evaluator picks the edge
		// (and counts any flag materialization in the VM's own stat).
		if v.ucond(x86.CC(u.Sub)) {
			v.eip = u.Target
			nb, err = v.chainTo(&sb.taken, u.Target)
		} else {
			v.eip = u.Next
			nb, err = v.chainTo(&sb.fall, u.Next)
		}
	case tier2.ExitInd:
		v.eip = m.ExitTarget
		nb, err = v.indirect(sb, v.eip)
	case tier2.ExitGuard:
		v.eip = u.Target
		nb, err = v.guardExit(sb, u)
	case tier2.ExitRetGuard:
		v.eip = m.ExitTarget
		nb, err = v.retGuardExit(sb, u, v.eip)
	case tier2.ExitInt:
		v.eip = u.Next // the guest resumes after the gate
		if u.Imm != 0x80 {
			err = &Trap{Kind: TrapSyscall, EIP: u.EIP,
				Msg: "interrupt vector not the VXA syscall gate"}
		} else if err = v.syscall(); err == nil {
			nb, err = v.chainTo(&sb.taken, u.Next)
		}
	case tier2.ExitResume:
		v.eip = u.EIP // exact when i is 0, where the dispatch loop may poll
		v.stats.Tier2Resumes++
		if i == 0 && m.Fuel < sb.b.cost {
			// A check made ahead of a loop label failed before the pass was
			// charged, on a budget that would not have covered it: the pass
			// is the end-of-budget walk's, from the block, as behind a
			// declined entry.
			nb, err := v.lookupBlock(v.eip)
			return nb, 0, err
		}
		return sb, i, nil
	case tier2.ExitReadFault:
		err = memTrap(e.EIP, m.TrapAddr)
	case tier2.ExitWriteFault:
		err = v.storeTrap(e.EIP, m.TrapAddr, e.Size)
	case tier2.ExitDivide:
		tr := &Trap{Kind: TrapDivide, EIP: e.EIP}
		if m.TrapAux == 1 {
			tr.Msg = "quotient overflow"
		}
		err = tr
	default: // tier2.ExitIllegal
		tr := &Trap{Kind: TrapIllegal, EIP: e.EIP, Msg: "privileged instruction"}
		if m.TrapAux == 1 {
			tr.Msg = "ud2"
		}
		err = tr
	}
	if err == nil {
		v.link(sb, e, nb)
	}
	return nb, 0, err
}
