package vm

import "vxa/internal/vm/tier2"

// CompileSuperblocks hands every superblock of s to the native compiler,
// as the first VM to run each of them hot would. Exported (from a test
// file) for FuzzDeserialize, which holds what the loader accepts to what
// the emitter can take.
func CompileSuperblocks(s *Snapshot) {
	for _, r := range s.sbs {
		tier2.Compile(r.b.uops, r.b.uops[0].EIP, s.geometry(), s.arena)
	}
}

// WriteMem copies data into guest memory at addr, enforcing the sandbox
// (including read-only protection), and moves the dirty bounds the way
// a guest store would, so a later Snapshot keeps the bytes.
func (v *VM) WriteMem(addr uint32, data []byte) error {
	if !v.writable(addr, uint32(len(data))) {
		return &Trap{Kind: TrapWrite, EIP: v.eip, Addr: addr}
	}
	copy(v.mem[addr:], data)
	if addr < v.stackBase {
		v.dirtyBrk = max(v.dirtyBrk, addr+uint32(len(data)))
	} else {
		v.stackLow = min(v.stackLow, addr&^(PageSize-1))
	}
	return nil
}

// Profile returns the execution profile of v's translation view: per
// fragment address, the base bref's heat, taken and fall counts, then
// those of the superblock hung off it (zero when there is none).
func Profile(v *VM) map[uint32][6]uint32 {
	p := make(map[uint32][6]uint32, len(v.blocks))
	for addr, br := range v.blocks {
		c := [6]uint32{br.heat, br.takenCnt, br.fallCnt}
		if sb := br.sb; sb != nil {
			c[3], c[4], c[5] = sb.heat, sb.takenCnt, sb.fallCnt
		}
		p[addr] = c
	}
	return p
}
