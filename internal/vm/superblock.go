package vm

import (
	"slices"
	"time"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Superblock formation: when a block has run hot, the chain of blocks
// control actually flows through — the dominant path, per the taken/
// fall edge counters the Jcc dispatch maintains — is re-translated as
// one straight-line fragment. Interior direct jumps disappear, interior
// conditional branches become guard exits (taken only when control
// leaves the trace), and the whole fragment goes back through the
// optimizer, so instruction fusion and flag liveness now work across
// the original block boundaries: a loop whose body spans four fragments
// pays one dispatch-loop entry per iteration instead of four, and a
// flag record that died across a block edge is elided instead of kept
// for a successor that clobbers it.
//
// Superblocks are profile-driven state: a VM's view of one hangs off the
// base bref (never the snapshot-shared block map) and stays for as long
// as the VM keeps its view of the translation cache. A guard that turns
// out to fire often is not a reason to give the trace up: the guard's
// target is a block like any other, it heats, forms its own superblock
// and compiles, and the guard's exit is then linked straight to it
// (tier2glue.go) — the hot side exit has become a trace head. A Reset
// keeps the VM's views while they are still the snapshot's and replaces
// them otherwise; the fragments themselves and the tier-2 code compiled
// from them are kept by the snapshot once absorbed
// (Snapshot.AbsorbBlocks) and come back with the fresh views. The base
// blocks they were assembled from stay in the cache untouched — cold
// entries into the middle of a trace still execute them directly.
const (
	// sbHotThreshold is how many times a block must be entered before
	// its dominant path is re-translated.
	sbHotThreshold = 17
	// sbMaxBlocks and sbMaxUops bound one superblock's growth.
	sbMaxBlocks = 64
	sbMaxUops   = 1536
)

// sbNumberSlots assigns each guard its exit-chain slot and each return
// guard its inline-cache slot, in order, and returns the slot counts.
// formSuperblock and the snapshot deserializer both number slots with
// it, which is what keeps a persisted superblock's slot geometry
// identical to a freshly formed one's.
func sbNumberSlots(us []uop.Uop) (guards, rets int) {
	for i := range us {
		switch {
		case uop.Kinds[us[i].Kind].Guard:
			us[i].Aux = uint8(guards)
			guards++
		case us[i].Kind == uop.KindRetGuard:
			us[i].Aux = uint8(rets)
			rets++
		}
	}
	return guards, rets
}

// sbSelfLoop reports whether term, a block's terminator, is a direct
// jump or conditional branch back to the block's own start at entry.
func sbSelfLoop(term *uop.Uop, entry uint32) bool {
	return (term.Kind == uop.KindJmp || term.Kind == uop.KindJcc) && term.Target == entry
}

// formSuperblock attempts to grow and install a superblock for the hot
// block entry. On success entry.sb carries the new fragment's bref; on
// failure (nothing to grow) the entry is marked tried so the attempt is
// not repeated.
//
// The trace is assembled in the VM's scratch (xlate) — each constituent's
// raw micro-ops appended to its end, the terminator rewritten in place — and
// the optimized result copied out at its final size. The time this takes
// is Stats.SuperblockNS, less the blocks it has built on the way.
func (v *VM) formSuperblock(entry *bref) {
	entry.sbTried = true
	start, translate0 := time.Since(epoch), v.stats.TranslateNS
	xl := &v.xl
	uops := xl.sb[:0]
	callRets := xl.callRets[:0] // return addresses of calls inlined so far
	defer func() {
		xl.sb, xl.callRets = uops[:0], callRets[:0] // as far as they have grown
		v.stats.SuperblockNS += uint64(time.Since(epoch)-start) - (v.stats.TranslateNS - translate0)
	}()
	// A block is visited when it carries this call's stamp.
	xl.gen++
	gen := xl.gen
	cur := entry
	blocks := 0
	lastEnd := entry.b.end

	for {
		b := cur.b
		blocks++
		lastEnd = b.end
		uops = append(uops, b.raw...)
		term := &uops[len(uops)-1]

		// Decide how this block continues the trace. Branch-driven
		// growth (jmp/jcc/fall-through) marks blocks visited and stops
		// on revisit — that is the loop back edge, which must stay a
		// real terminator so iterations re-enter the superblock.
		// Call-driven growth skips the visited check (two call sites
		// may legitimately inline one callee); sbMaxBlocks bounds it.
		full := blocks >= sbMaxBlocks || len(uops) > sbMaxUops
		var nextAddr uint32
		var repl *uop.Uop // replacement for the terminator, if any
		grow, viaCall := false, false
		switch {
		case uop.Kinds[term.Kind].EndsTrace:
			// Indirect transfers, syscall gates and deliberate traps
			// stay block-final: the trace ends here.

		case term.Kind == uop.KindJmp:
			cur.sbGen = gen
			if !full {
				nextAddr, grow = term.Target, true
			}

		case term.Kind == uop.KindJcc:
			cur.sbGen = gen
			if !full {
				// Follow the profiled dominant edge; the guard exits to
				// the other side with the condition inverted as needed.
				g := *term
				g.Kind = uop.KindGuard
				if cur.takenCnt >= cur.fallCnt {
					g.Sub = uint8(x86.CC(term.Sub).Negate())
					g.Target = term.Next
					nextAddr = term.Target
				} else {
					g.Target = term.Target
					nextAddr = term.Next
				}
				repl, grow = &g, true
			}

		case term.Kind == uop.KindCall:
			// Inline the callee: the call's push of the return address
			// stays (as a push-immediate), execution falls into the
			// callee's entry.
			if !full {
				p := *term
				p.Kind, p.Imm, p.Target = uop.KindPushI, term.Next, 0
				repl, grow, viaCall = &p, true, true
				nextAddr = term.Target
			}

		case term.Kind == uop.KindRet:
			// A return matching an inlined call continues the trace at
			// the recorded return address, guarded at runtime: any
			// other popped value exits through the guard's inline
			// cache. An unmatched return ends the trace.
			if !full && len(callRets) > 0 {
				g := *term
				g.Kind = uop.KindRetGuard
				g.Target = callRets[len(callRets)-1]
				repl, grow, viaCall = &g, true, true
				nextAddr = g.Target
				callRets = callRets[:len(callRets)-1]
			}

		default:
			// No control terminator: the block fell through at the
			// fragment-length cap, or before an instruction it could
			// not fetch.
			cur.sbGen = gen
			if !full {
				nextAddr, grow = b.end, true
			}
		}

		var next *bref
		if grow {
			nb, err := v.lookupBlock(nextAddr)
			if err != nil || (!viaCall && nb.sbGen == gen) {
				// Undecodable successor or trace closure (the loop back
				// edge): keep the original terminator and stop.
				grow = false
			} else {
				next = nb
			}
		}

		if !grow {
			switch term.Kind {
			case uop.KindJmp, uop.KindJcc, uop.KindCall, uop.KindRet:
			default:
				if !uop.Kinds[term.Kind].EndsTrace {
					// A fall-through tail needs an explicit transfer:
					// the dispatch loop's implicit fall-through uses
					// the BASE block's end address, not this trace's.
					// The synthetic jump is no guest instruction, so it
					// costs no fuel.
					uops = append(uops, uop.Uop{
						Kind: uop.KindJmp, Target: b.end,
						EIP: b.end, Next: b.end, Cost: 0,
					})
				}
			}
			break
		}

		switch {
		case repl != nil:
			if term.Kind == uop.KindCall {
				callRets = append(callRets, term.Next)
			}
			*term = *repl
		case term.Kind == uop.KindJmp:
			// The jump dissolves into the trace; a NOP keeps its one-
			// instruction fuel cost and trap-window accounting.
			*term = uop.Uop{Kind: uop.KindNop, EIP: term.EIP, Next: term.Next, Cost: 1}
		default: // fall-through into the next block
		}
		cur = next
	}

	if blocks < 2 && !sbSelfLoop(&uops[len(uops)-1], uops[0].EIP) {
		// Nothing grew and the base block is already optimal. The one
		// single-block trace worth having is a loop in one block: only a
		// superblock is ever compiled, and compiled it spins in place.
		return
	}

	cost := uop.Cost(uops)
	opt, ost := uop.Optimize(uops)
	v.stats.UopsFused += ost.UopsFused
	v.stats.FlagsElided += ost.FlagsElided
	us := slices.Clone(opt)

	// Number the guards: each conditional guard gets its own exit chain
	// slot, each return guard its own indirect inline cache.
	guards, rets := sbNumberSlots(us)

	sb := &block{uops: us, end: lastEnd, cost: cost}
	entry.sb = &bref{
		b:        sb,
		sbChains: make([]*bref, guards),
		sbInd:    make([]sbIndEntry, rets),
		sbTried:  true, // never form a superblock from a superblock
	}
	v.stats.SuperblocksFormed++
}
