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
