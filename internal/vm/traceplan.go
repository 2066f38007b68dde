package vm

import (
	"sort"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// TracePlanUop is one micro-op of a superblock trace as the tier-2
// compiler sees it: the (possibly fused) operation, the guest
// instructions it accounts for, and — for guards — the exit-chain slot
// a failure dispatches through.
type TracePlanUop struct {
	Index  int    // position within the trace
	EIP    uint32 // source instruction address
	Kind   string // micro-op mnemonic (fused forms keep their fused name)
	Cost   uint8  // guest instructions this micro-op represents (fuel units)
	Guard  int    // guard exit-chain slot, -1 for non-guards
	Ret    int    // return-guard inline-cache slot, -1 otherwise
	Target uint32 // guard/branch exit target (0 when not a transfer)
}

// TracePlanExit is one link exit of a compiled trace: the micro-op it
// leaves from, where it goes, and what its slot of the VM's link table
// holds right now.
type TracePlanExit struct {
	Uop    int    // index of the exiting micro-op
	Kind   string // end, jcc-taken, jcc-fall, guard, ind or ret-guard
	Target uint32 // static target; for ind/ret-guard the target the slot is linked for (0 when unlinked)
	Linked bool   // the slot holds a trace entry, not the exit's own return stub
	To     uint32 // entry of the trace the slot is linked to
}

// TracePlan describes one formed superblock and what tier-2 made of
// it: the fused micro-op sequence, the per-trace fuel cost, the guard
// and return-slot geometry, whether the trace compiled, and the link
// state of every exit of a compiled trace. This is the inspection
// surface behind `vxdump -t2`.
type TracePlan struct {
	Entry  uint32 // guest entry address
	Cost   int64  // fuel charged per full trace iteration
	NUops  int
	Guards int // conditional guard exits (chain slots)
	Rets   int // return guards (inline-cache slots)
	// Backend is "native" for a compiled trace, "tier1" for one the
	// compiler bailed on, "disabled" below OptTier2.
	Backend string
	Shared  bool // the trace was installed from the snapshot, not compiled by this VM
	// Trace is the compiled trace itself (nil on tier 1): its emitted
	// code and the exact ledger of it.
	Trace *tier2.Trace
	Uops  []TracePlanUop
	Exits []TracePlanExit
}

// TracePlans returns the tier-2 trace plan of every superblock the VM
// has formed, sorted by entry address. Superblocks not yet promoted are
// compiled on the spot (at OptTier2 and up), so the dump shows
// the plan a hot run would execute; a plan whose Backend is "tier1"
// contains a micro-op the compiler bails on and runs on the dispatch
// loop forever.
func (v *VM) TracePlans() []TracePlan {
	var plans []TracePlan
	for _, br := range v.blocks {
		sb := br.sb
		if sb == nil {
			continue
		}
		if !sb.t2Tried && v.level >= OptTier2 {
			v.compileTier2(sb)
		}
		backend := "tier1"
		switch {
		case sb.t2 != nil:
			backend = "native"
		case v.level < OptTier2:
			backend = "disabled"
		}
		us := sb.b.uops
		p := TracePlan{
			Entry:   us[0].EIP,
			Cost:    sb.b.cost,
			NUops:   len(us),
			Guards:  len(sb.sbChains),
			Rets:    len(sb.sbInd),
			Backend: backend,
			Shared:  sb.t2Shared,
			Trace:   sb.t2,
			Uops:    make([]TracePlanUop, len(us)),
		}
		for i := range us {
			u := &us[i]
			pu := TracePlanUop{Index: i, EIP: u.EIP, Kind: u.Kind.String(),
				Cost: u.Cost, Guard: -1, Ret: -1}
			switch {
			case sbGuardKind(u.Kind):
				pu.Guard = int(u.Aux)
				pu.Target = u.Target
			case u.Kind == uop.KindRetGuard:
				pu.Ret = int(u.Aux)
			case u.Target != 0:
				pu.Target = u.Target
			}
			p.Uops[i] = pu
		}
		if t := sb.t2; t != nil {
			p.Exits = v.planExits(sb, t)
		}
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Entry < plans[j].Entry })
	return plans
}

var linkExitNames = map[tier2.ExitKind]string{
	tier2.ExitEnd: "end", tier2.ExitJccTaken: "jcc-taken", tier2.ExitJccFall: "jcc-fall",
	tier2.ExitGuard: "guard", tier2.ExitInd: "ind", tier2.ExitRetGuard: "ret-guard",
}

// planExits reads the link state of sb's trace t out of the VM's
// link table, in slot order.
func (v *VM) planExits(sb *bref, t *tier2.Trace) []TracePlanExit {
	unlinked := t.Unlinked()
	exits := make([]TracePlanExit, t.Slots)
	for i := range t.Exits {
		e := &t.Exits[i]
		if e.Slot < 0 {
			continue
		}
		l := v.links[sb.linkBase+e.Slot]
		pe := TracePlanExit{Uop: e.Uop, Kind: linkExitNames[e.Kind], Target: e.Target}
		if l != unlinked[e.Slot] {
			pe.Linked = true
			pe.To = v.linkOwner[uintptr(l.Cur)/tier2.LinkSize].t2.Entry
			if e.Kind == tier2.ExitInd || e.Kind == tier2.ExitRetGuard {
				pe.Target = l.Addr
			}
		}
		exits[e.Slot] = pe
	}
	return exits
}
