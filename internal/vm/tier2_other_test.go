//go:build !(amd64 && linux)

package vm

import (
	"bytes"

	"vxa/internal/vm/tier2"
)

// sameCode reports whether two traces are the same code. No host without
// the emitter compiles one, so this is never asked there.
func sameCode(a, b *tier2.Trace) bool { return bytes.Equal(a.Code(), b.Code()) }
