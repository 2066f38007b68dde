package vm

// Tier-2 integration: promotion of hot superblocks into compiled traces
// (package tier2) and the exit dispatch that hands control back to the
// tier-1 engine. The tier is invisible to guest semantics: every
// exit path below re-joins exactly the code path the tier-1 dispatch
// loop would have taken for the same micro-op, including fuel refunds,
// chain-slot resolution and trap construction.

import (
	"os"
	"strconv"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/x86"
)

// t2HotDefault is the number of superblock entries before the trace is
// compiled. Superblocks themselves form at sbHotThreshold block entries,
// so a trace must prove itself on the tier-1 loop first: profile-teardown
// churn is not worth compiling for. A trace the snapshot already carries
// is installed at Reset and skips the count.
const t2HotDefault = 32

// envNoTier2 reports whether VXA_NO_TIER2 forces the tier off
// process-wide (the CI interpreter-fallback leg).
func envNoTier2() bool {
	s := os.Getenv("VXA_NO_TIER2")
	return s != "" && s != "0"
}

// t2HotThreshold resolves the promotion threshold, honoring the
// VXA_TIER2_HOT override (the test wall uses 1 to force every
// superblock hot).
func t2HotThreshold() uint32 {
	if s := os.Getenv("VXA_TIER2_HOT"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 32); err == nil && n > 0 {
			return uint32(n)
		}
	}
	return t2HotDefault
}

// bindTier2 points the VM's tier-2 machine view at its guest memory and
// sandbox geometry. Called wherever those are set: New, MapSegment and
// the snapshot restore.
func (v *VM) bindTier2() {
	m := &v.t2m
	m.Mem = v.mem
	m.Geometry = tier2.Geometry{MemLen: uint32(len(v.mem)), ROLimit: v.roLimit, StackBase: v.stackBase}
}

// compileTier2 compiles sb's trace for this VM's geometry and installs
// it in the VM's view of the superblock. One attempt per superblock: a
// bail (reference-engine escapes in the trace) leaves it on tier-1. The
// trace charges fuel by the summed micro-op costs, which equal the
// superblock's block cost, exactly as tier-1 does.
func (v *VM) compileTier2(sb *bref) {
	sb.t2Tried = true
	start := time.Now()
	t := tier2.Compile(sb.b.uops, sb.b.uops[0].EIP, &v.t2m)
	v.stats.TranslateNS += uint64(time.Since(start).Nanoseconds())
	if t == nil {
		return
	}
	sb.t2 = t
	v.stats.Tier2Compiled++
}

// runTier2 executes sb's compiled trace until it exits, then re-joins
// the tier-1 engine: state is synced through the tier-2 machine view,
// accounting is applied per full iteration (Run charges fuel itself),
// and the exit descriptor is dispatched onto the same chain-slot /
// refund / trap paths the tier-1 handler for the exiting micro-op uses.
// The caller must have checked v.fuel >= sb.b.cost and counted the
// entry in sb.sbEntries.
func (v *VM) runTier2(sb *bref, t *tier2.Trace) (*bref, error) {
	if t.NeedFlags {
		// The native compiler pinned this trace's entry flag state to
		// FlagNone; representation-only, so architecturally invisible.
		v.materializeFlags()
	}
	m := &v.t2m
	m.Regs = v.regs
	m.Fl = v.fl
	m.CF, m.ZF, m.SF, m.OF, m.PF = v.cf, v.zf, v.sf, v.of, v.pf
	m.Brk = v.brk
	m.Fuel = v.fuel
	m.PollArmed = v.cancel != nil || v.wallDeadline != 0
	m.Credit = v.cancelCredit
	m.Iters = 0
	m.FlagsMaterialized = 0

	e := t.Run(m)

	v.regs = m.Regs
	v.fl = m.Fl
	v.cf, v.zf, v.sf, v.of, v.pf = m.CF, m.ZF, m.SF, m.OF, m.PF
	v.fuel = m.Fuel
	if m.PollArmed {
		v.cancelCredit = m.Credit
	}
	iters := m.Iters
	// Tier2Steps is the tier's exact share of Steps: every refund a
	// mid-trace exit performs below (guard tails via sbLeave, fault
	// windows via uopTrapN) lands before this function returns, so the
	// net Steps delta is precisely the instructions the trace retired.
	defer func(before uint64) {
		v.stats.Tier2Steps += v.stats.Steps - before
	}(v.stats.Steps)
	v.stats.Steps += iters * uint64(t.Cost)
	v.stats.UopsExecuted += iters * uint64(t.NUops)
	v.stats.FlagsMaterialized += m.FlagsMaterialized
	v.stats.Tier2Executed += iters
	sb.sbEntries += iters - 1 // the entry that brought us here is already counted

	us := sb.b.uops
	i := e.Uop
	u := &us[i]
	switch e.Kind {
	case tier2.ExitEnd:
		v.eip = e.Target
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, e.Target)
	case tier2.ExitJccTaken:
		sb.takenCnt++
		v.eip = e.Target
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, e.Target)
	case tier2.ExitJccFall:
		sb.fallCnt++
		v.eip = e.Target
		if c := sb.fall; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.fall, e.Target)
	case tier2.ExitJccLazy:
		// Native-backend plain Jcc terminator: the condition reads the
		// lazily-recorded flags, which have just been synced back, so
		// the tier-1 evaluator picks the edge (and counts any flag
		// materialization in the VM's own stat).
		if v.ucond(x86.CC(u.Sub)) {
			sb.takenCnt++
			v.eip = u.Target
			if c := sb.taken; c != nil {
				return c, nil
			}
			return v.chainTo(&sb.taken, u.Target)
		}
		sb.fallCnt++
		v.eip = u.Next
		if c := sb.fall; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.fall, u.Next)
	case tier2.ExitInd:
		target := m.ExitTarget
		v.eip = target
		return v.indirect(sb, target)
	case tier2.ExitGuard:
		v.eip = u.Target
		return v.guardExit(sb, us, i, u)
	case tier2.ExitRetGuard:
		target := m.ExitTarget
		v.eip = target
		return v.retGuardExit(sb, us, i, u, target)
	case tier2.ExitInt:
		v.eip = u.Next // the guest resumes after the gate
		if u.Imm != 0x80 {
			return nil, v.uopTrap(us, i, &Trap{Kind: TrapSyscall, EIP: u.EIP,
				Msg: "interrupt vector not the VXA syscall gate"})
		}
		if err := v.syscall(); err != nil {
			return nil, v.uopTrap(us, i, err)
		}
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, u.Next)
	case tier2.ExitReadFault:
		return nil, v.uopTrapN(us, i, e.Started, memTrap(e.EIP, m.TrapAddr))
	case tier2.ExitWriteFault:
		return nil, v.uopTrapN(us, i, e.Started, v.storeTrap(e.EIP, m.TrapAddr, e.Size))
	case tier2.ExitDivide:
		tr := &Trap{Kind: TrapDivide, EIP: e.EIP}
		if m.TrapAux == 1 {
			tr.Msg = "quotient overflow"
		}
		return nil, v.uopTrapN(us, i, e.Started, tr)
	default: // tier2.ExitIllegal
		tr := &Trap{Kind: TrapIllegal, EIP: e.EIP, Msg: "privileged instruction"}
		if m.TrapAux == 1 {
			tr.Msg = "ud2"
		}
		return nil, v.uopTrapN(us, i, e.Started, tr)
	}
}
