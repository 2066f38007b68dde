//go:build !linux

package vm

// guestMem is a no-op owner on platforms without the mmap-backed guest
// allocator: the buffer is ordinary garbage-collected heap memory.
type guestMem struct{}

// allocGuestMem returns a zeroed guest address space from the Go heap.
// See mem_linux.go for the mmap-backed fast path this mirrors.
func allocGuestMem(size uint32) (*guestMem, []byte) {
	if size == 0 {
		return &guestMem{}, nil
	}
	return &guestMem{}, make([]byte, size)
}

// zero makes b, part of the address space g owns, read as zero again.
func (g *guestMem) zero(b []byte) { clear(b) }
