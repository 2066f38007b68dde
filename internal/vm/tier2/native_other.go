//go:build !(amd64 && linux)

package tier2

import "vxa/internal/vm/uop"

// Hosts without an emitter: nothing compiles, Compile returns nil for
// every trace and superblocks run on the tier-1 dispatch loop.
func nativeCompile(us []uop.Uop, entry uint32, g Geometry, t *Trace) bool { return false }

// call is unreachable: no execBuf is ever built on this platform.
func (b *execBuf) call(m *Machine, cur uint32) int32 { panic("tier2: no native backend") }
