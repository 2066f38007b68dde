//go:build !(amd64 && linux)

package tier2

import "vxa/internal/vm/uop"

// Platforms without a native emitter: tier-2 stays off by default (the
// closure backend is a portable semantic reference, not a speedup over
// the tier-1 dispatch loop) and is selectable with
// VXA_TIER2_BACKEND=closure for the differential test wall.
const nativeAvailable = false

func nativeCompile(us []uop.Uop, entry uint32, g Geometry, t *Trace) bool { return false }

// call is unreachable: no execBuf is ever built on this platform.
func (b *execBuf) call(m *Machine, cur uint32) int32 { panic("tier2: no native backend") }
