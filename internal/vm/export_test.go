package vm

import (
	"cmp"
	"slices"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// CompileSuperblocks hands every superblock of s to the native compiler,
// as the first VM to run each of them hot would. Exported (from a test
// file) for FuzzDeserialize, which holds what the loader accepts to what
// the emitter can take.
func CompileSuperblocks(s *Snapshot) {
	for _, r := range s.sbs {
		tier2.Compile(r.b.uops, r.b.uops[0].EIP, s.geometry(), s.arena)
	}
}

// Superblocks returns the micro-ops of every superblock s carries, in
// the order of their entry addresses, and the geometry their traces
// compile for. Exported (from a test file) for BenchmarkTraceCompile and
// TestTraceCompileAllocBudget, which compile them over and over.
func Superblocks(s *Snapshot) ([][]uop.Uop, tier2.Geometry) {
	addrs := make([]uint32, 0, len(s.sbs))
	for addr := range s.sbs {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	out := make([][]uop.Uop, len(addrs))
	for k, addr := range addrs {
		out[k] = s.sbs[addr].b.uops
	}
	return out, s.geometry()
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

// Fragment is one fragment of a VM's translation view as the translator
// read it: per guest instruction, its address and a copy of the text
// bytes buildBlock handed x86.Decode for it (guest memory goes with its
// VM).
type Fragment struct {
	Addr uint32
	EIPs []uint32
	Code [][]byte
}

// Fragments returns every fragment v has translated, in address order.
// Exported (from a test file) for BenchmarkBlockBuild, which times each
// stage of building them again.
func Fragments(v *VM) []Fragment {
	out := make([]Fragment, 0, len(v.blocks))
	for addr, br := range v.blocks {
		f := Fragment{Addr: addr}
		for _, u := range br.b.raw {
			f.EIPs = append(f.EIPs, u.EIP)
			f.Code = append(f.Code, slices.Clone(v.mem[u.EIP:min(u.EIP+15, v.roLimit)]))
		}
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b Fragment) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// Rebuild translates the fragment at addr again, as buildBlock does on
// a miss in the fragment cache, and returns the guest instructions it
// decoded. The cache is left as it was.
func Rebuild(v *VM, addr uint32) (int, error) {
	b, err := v.buildBlock(addr)
	if err != nil {
		return 0, err
	}
	return int(b.cost), nil
}
