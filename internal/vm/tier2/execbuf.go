package tier2

import "sync"

// ArenaSize is the executable memory one snapshot lineage may fill. The
// built-in decoders compile 24-160 KiB each with every superblock
// promoted; the cap is what bounds a hostile decoder's appetite for host
// code, and only address space is spent on it up front.
const ArenaSize = 4 << 20

// codeAlign is the alignment of a trace's first byte, its entry.
const codeAlign = 16

// Arena is the executable memory of one snapshot lineage: one region,
// mapped twice by the platform backend (nasm_amd64.go) — a read+write
// view that only place writes, and a read+execute view that traces run
// from. Neither mapping is ever both writable and executable, no
// protection is ever flipped, and code already placed is never written
// again, so appending a trace costs no system call even while sibling
// VMs execute neighbouring traces on the same page.
//
// The lifetime is the arena's, not any trace's: every Trace compiled
// into the arena points at it, as do the Snapshot that shares it among
// its VMs and each of those VMs, and a finalizer unmaps both views once
// none of them is reachable. Space is only ever appended; a trace that
// is dropped leaves its bytes behind until the arena goes.
//
// The views are mapped by the first place. A host that refuses them
// (no memfd, no executable shared mappings) leaves the arena refusing
// every trace, which Compile reports as "no native code": superblocks
// stay on tier 1.
type Arena struct {
	mu      sync.Mutex
	rw, rx  []byte // nil until the first place; rw stays nil if refused
	size    int
	used    int
	refused bool
}

// NewArena returns an empty arena that will hold up to size bytes of
// code. Nothing is mapped until a trace is placed.
func NewArena(size int) *Arena { return &Arena{size: size} }

// place copies code into the arena and returns it as the executable view
// holds it, or nil when the arena is full or the host gave it no memory.
func (a *Arena) place(code []byte) []byte {
	a.mu.Lock()
	if a.rx == nil && !a.refused {
		a.refused = !a.mapViews()
	}
	off := (a.used + codeAlign - 1) &^ (codeAlign - 1)
	end := off + len(code)
	if a.refused || end > len(a.rw) {
		a.mu.Unlock()
		return nil
	}
	a.used = end
	a.mu.Unlock()
	// [off, end) is this call's alone: nothing reads it before the trace
	// that owns it is returned.
	copy(a.rw[off:end], code)
	return a.rx[off:end:end]
}

// Committed is the memory the arena's code occupies: whole pages, up to
// the last one a trace was placed on.
func (a *Arena) Committed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return (int64(a.used) + pageSize - 1) &^ (pageSize - 1)
}

// Views returns the two mappings, the writable one first (both nil
// before the first trace is placed), for the test wall to look up in
// /proc/self/maps.
func (a *Arena) Views() (rw, rx []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rw, a.rx
}
