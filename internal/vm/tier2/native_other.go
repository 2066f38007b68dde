//go:build !(amd64 && linux)

package tier2

import "vxa/internal/vm/uop"

// Hosts without an emitter: nothing compiles, Compile returns nil for
// every trace and superblocks run on the tier-1 dispatch loop.
func nativeCompile(us []uop.Uop, entry uint32, g Geometry, a *Arena, o *Outcome) *Trace { return nil }

// jitcall is unreachable: no Trace is ever built on this platform.
func jitcall(code uintptr, m *Machine, cur uint32) int32 { panic("tier2: no native backend") }

// sharedExits: with no code, there is no shared exit code either.
var sharedExits struct{ code []byte }

// mapViews: with no code to place, no arena is ever mapped.
func (a *Arena) mapViews() bool { return false }
