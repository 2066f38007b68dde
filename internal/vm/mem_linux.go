//go:build linux

package vm

import (
	"runtime"
	"syscall"
)

// guestMem owns one guest address space allocated outside the Go heap.
// The VM that uses the buffer holds the owner; when the VM becomes
// unreachable the finalizer returns the mapping to the kernel.
type guestMem struct {
	buf []byte
}

// allocGuestMem returns a zeroed guest address space of the given size.
//
// On Linux the buffer is an anonymous private mapping rather than a Go
// heap allocation. The distinction is the VM materialization cost: a
// heap make() of a large buffer must clear it word by word when the
// allocator reuses a span (~13ms for 64 MiB), while a fresh mapping is
// backed by kernel zero pages that fault in lazily, so a new VM costs
// page-table setup plus its image copy — microseconds, not
// milliseconds. That difference is what lets a disk-warm artifact load
// stay in the latency class of an in-process warm hit. MAP_NORESERVE
// keeps a mostly-untouched 1 GiB guest from charging swap it will
// never use.
//
// Reset has the same two prices. Laying a pristine stack back over a
// used one byte for byte costs the stack's size (1 MiB by default, of
// which a decoder touches a page or two) on every reset; handing the
// window back to the kernel (zero) costs one madvise whatever its size,
// and the next stream faults fresh zero pages in where it actually
// pushes. The heap below is re-zeroed by plain clear, bounded by the
// VM's dirty watermark: its text and data pages are about to be copied
// back in anyway, and dropping them would only trade a memclr for page
// faults.
//
// The mapping is released by a finalizer on the returned owner, which
// the VM must keep referenced for as long as the buffer is in use; a
// failed mmap falls back to the heap (owner carries a nil-release).
func allocGuestMem(size uint32) (*guestMem, []byte) {
	if size == 0 {
		return &guestMem{}, nil
	}
	buf, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return &guestMem{}, make([]byte, size)
	}
	g := &guestMem{buf: buf}
	runtime.SetFinalizer(g, (*guestMem).release)
	return g, buf
}

// zero makes b, a page-aligned tail of the address space g owns, read as
// zero again: by dropping its pages where g is a mapping (the kernel
// supplies zero pages on the next touch), by clearing where it is heap
// memory or the kernel declines.
func (g *guestMem) zero(b []byte) {
	if g.buf == nil || syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}

func (g *guestMem) release() {
	if g.buf != nil {
		syscall.Munmap(g.buf)
		g.buf = nil
	}
}
