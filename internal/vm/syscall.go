package vm

import (
	"io"

	"vxa/internal/fault"
	"vxa/internal/x86"
)

// maxIOChunk bounds a single virtual read/write so a guest cannot force
// the host to stage an arbitrarily large buffer in one call; larger
// requests complete in multiple system calls, as on a real kernel.
const maxIOChunk = 1 << 20

// syscall dispatches the VXA virtual system call in EAX. It mirrors the
// paper's §4.3: the host services the call directly out of the guest's
// address space; no data is copied across a protection domain.
func (v *VM) syscall() error {
	v.stats.Syscalls++
	// Chaos hook: an injected guest-syscall fault traps exactly as a
	// hostile or buggy decoder would, exercising the trap-containment
	// path (classification, breaker accounting, VM discard). Disarmed
	// cost is one atomic load per syscall — never on the per-uop path.
	if err := fault.Inject(fault.GuestSyscall); err != nil {
		return &Trap{Kind: TrapSyscall, EIP: v.eip, Msg: err.Error()}
	}
	nr := v.m.Regs[x86.EAX]
	switch nr {
	case SysExit:
		v.exitCode = int32(v.m.Regs[x86.EBX])
		return errExit

	case SysDone:
		// The guest is parked after the INT; Run returns StatusDone and a
		// subsequent Run resumes with EAX = 0.
		v.m.Regs[x86.EAX] = 0
		return errDone

	case SysRead:
		v.m.Regs[x86.EAX] = uint32(v.sysRead())
		return nil

	case SysWrite:
		v.m.Regs[x86.EAX] = uint32(v.sysWrite())
		return nil

	case SysSetPerm:
		v.m.Regs[x86.EAX] = uint32(v.sysSetPerm())
		return nil
	}
	// Anything else is outside the decoder contract: trap rather than
	// emulate, so that decoders relying on host OS facilities are caught
	// immediately (they would not be durable).
	return &Trap{Kind: TrapSyscall, EIP: v.eip, Msg: "unknown system call"}
}

func (v *VM) sysRead() int32 {
	fd := v.m.Regs[x86.EBX]
	buf := v.m.Regs[x86.ECX]
	n := v.m.Regs[x86.EDX]
	if fd != 0 {
		return -ErrnoBADF
	}
	if n == 0 {
		return 0
	}
	if n > maxIOChunk {
		n = maxIOChunk
	}
	if !v.writable(buf, n) {
		return -ErrnoFAULT
	}
	if v.Stdin == nil {
		return 0 // empty input stream
	}
	for {
		got, err := v.Stdin.Read(v.mem[buf : buf+n])
		if got > 0 {
			return int32(got)
		}
		if err == io.EOF {
			return 0
		}
		if err != nil {
			return -ErrnoIO
		}
	}
}

func (v *VM) sysWrite() int32 {
	fd := v.m.Regs[x86.EBX]
	buf := v.m.Regs[x86.ECX]
	n := v.m.Regs[x86.EDX]
	var w io.Writer
	switch fd {
	case 1:
		w = v.Stdout
	case 2:
		w = v.Stderr
		if w == nil {
			return int32(n) // discard diagnostics unless verbose
		}
	default:
		return -ErrnoBADF
	}
	if n == 0 {
		return 0
	}
	if n > maxIOChunk {
		n = maxIOChunk
	}
	if !v.readable(buf, n) {
		return -ErrnoFAULT
	}
	if w == nil {
		return -ErrnoBADF
	}
	got, err := w.Write(v.mem[buf : buf+n])
	if err != nil {
		return -ErrnoIO
	}
	return int32(got)
}

// sysSetPerm implements the heap-growth call: setperm(addr, len) makes
// [addr, addr+len) accessible, provided it lies between the current heap
// end and the stack guard. It returns 0 on success.
func (v *VM) sysSetPerm() int32 {
	addr := v.m.Regs[x86.EBX]
	n := v.m.Regs[x86.ECX]
	end := addr + n
	if end < addr {
		return -ErrnoINVAL
	}
	if end <= v.m.Brk {
		return 0 // already accessible
	}
	// Leave one guard page between heap and stack so runaway heap use and
	// stack overflow cannot silently meet.
	if end > v.stackBase-PageSize {
		return -ErrnoNOMEM
	}
	if addr > v.m.Brk {
		return -ErrnoINVAL // the heap must stay contiguous
	}
	// Newly exposed memory must be zero even after VM reuse. Bytes past
	// the dirty high-water mark have never been guest-writable on this
	// address space (allocGuestMem hands back zeroed pages and every
	// write path is bounded by brk), so only the previously exposed
	// prefix needs clearing — on a freshly materialized VM the first
	// heap growth is free instead of a multi-megabyte memclr.
	if top := min(end, v.dirtyBrk); top > v.m.Brk {
		clear(v.mem[v.m.Brk:top])
	}
	v.m.Brk = end
	if end > v.dirtyBrk {
		v.dirtyBrk = end
	}
	return 0
}
