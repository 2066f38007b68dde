package tier2

import "sync"

// ArenaSize is the executable memory one snapshot lineage may fill. With
// every superblock a stream forms compiled, the built-in decoders fill
// 4-32 KiB of it each (adpcm's one trace 1.9 KB of code, deflate's 39
// traces 27 KB, their exit descriptors and the shared exit code beside
// them); the cap is what bounds a hostile decoder's appetite for host
// code, and only address space is spent on it up front.
const ArenaSize = 4 << 20

// codeAlign is the alignment of a trace's first byte, its entry.
const codeAlign = 16

// Arena is the executable memory of one snapshot lineage: one region,
// mapped twice by the platform backend (nasm_amd64.go) — a read+write
// view that only fill (and the mapping itself) writes, and a read+execute view that traces run
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
// The views are mapped by the first reserve, which also writes the code
// every trace's exits share (native_amd64.go) at the arena's start. A host that refuses them
// (no memfd, no executable shared mappings) leaves the arena refusing
// every trace, which Compile reports as "no native code": superblocks
// stay on tier 1.
type Arena struct {
	mu      sync.Mutex
	rw, rx  []byte // nil until the first reserve; rw stays nil if refused
	size    int
	used    int
	refused bool

	// What is left of the chunks the traces' exit tables, unlinked slots
	// and hoisted checks are carved from.
	exits []Exit
	links []Link
	ints  []int
}

// NewArena returns an empty arena that will hold up to size bytes of
// code. Nothing is mapped until a trace is placed.
func NewArena(size int) *Arena { return &Arena{size: size} }

// reserve takes n bytes of the arena at the next code boundary and
// returns their offset, with nexits exit descriptors, nslots link slots
// and nhoisted ints for the trace that will own them, carved from the
// arena's chunks of each (they hold no pointer, so nothing they keep
// alive keeps the arena alive); off is -1 when the arena is full or the
// host gave it no memory. The views are mapped, and the shared exit code
// written ahead of every trace, by the first call.
func (a *Arena) reserve(n, nexits, nslots, nhoisted int) (off int, exits []Exit, links []Link, hoisted []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rx == nil && !a.refused {
		a.refused = !a.mapViews()
	}
	off = (a.used + codeAlign - 1) &^ (codeAlign - 1)
	if a.refused || off+n > len(a.rw) {
		return -1, nil, nil, nil
	}
	a.used = off + n
	return off, carve(&a.exits, nexits), carve(&a.links, nslots), carve(&a.ints, nhoisted)
}

// chunk is how many elements carve takes from the heap at a time.
const chunk = 256

// carve returns n zeroed elements from the front of *free, which it
// refills with a chunk of its own when it holds fewer.
func carve[T any](free *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*free) < n {
		*free = make([]T, max(n, chunk))
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// fill copies b into the n bytes reserve returned at off and returns them
// as the executable view holds them. [off, off+len(b)) is the caller's
// alone: nothing reads it before the trace that owns it is returned.
func (a *Arena) fill(off int, b []byte) []byte {
	copy(a.rw[off:], b)
	return a.rx[off : off+len(b) : off+len(b)]
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
