package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// loadImage maps a linked image into the VM the way the ELF loader does:
// text+rodata read-only, data+bss writable.
func loadImage(t *testing.T, v *VM, im *asm.Image) {
	t.Helper()
	ro := append(append([]byte{}, im.Text...), im.ROData...)
	if err := v.MapSegment(im.Base, ro, uint32(len(ro)), true); err != nil {
		t.Fatal(err)
	}
	rw := uint32(len(im.Data)) + im.BSSSize
	if rw > 0 {
		if err := v.MapSegment(im.DataBase(), im.Data, rw, false); err != nil {
			t.Fatal(err)
		}
	}
}

// buildVM assembles a program and returns a VM ready to run it from the
// "start" label.
func buildVM(t *testing.T, cfg Config, stdin []byte, build func(u *asm.Unit)) (*VM, *bytes.Buffer) {
	t.Helper()
	u := asm.New()
	build(u)
	im, err := u.Link(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadImage(t, v, im)
	entry, ok := im.Symbols["start"]
	if !ok {
		t.Fatal("no start symbol")
	}
	v.SetEntry(entry)
	var out bytes.Buffer
	v.Stdin = bytes.NewReader(stdin)
	v.Stdout = &out
	return v, &out
}

// sysExit emits mov eax,1; mov ebx,code; int 0x80.
func sysExit(u *asm.Unit, code int32) {
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(code))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
}

func TestExitCode(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		sysExit(u, 42)
	})
	st, err := v.Run()
	if err != nil || st != StatusExit || v.ExitCode() != 42 {
		t.Fatalf("st=%v err=%v code=%d", st, err, v.ExitCode())
	}
}

func TestLoopSum(t *testing.T) {
	// sum = 1+2+...+100 = 5050, returned as the exit code.
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(100))
		u.Op2(x86.XOR, x86.R(x86.EDX), x86.R(x86.EDX))
		u.Label("loop")
		u.Op2(x86.ADD, x86.R(x86.EDX), x86.R(x86.ECX))
		u.Op1(x86.DEC, x86.R(x86.ECX))
		u.Jcc(x86.CCNE, "loop")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EDX))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != 5050 {
		t.Fatalf("exit = %d, want 5050", v.ExitCode())
	}
}

func TestCallRet(t *testing.T) {
	// start calls triple(7) twice via a cdecl-ish convention.
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(7))
		u.Call("triple")
		u.Call("triple")
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Label("triple")
		u.Op2(x86.LEA, x86.R(x86.EAX), x86.MSIB(x86.EAX, x86.EAX, 2, 0, 4))
		u.Op0(x86.RET)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != 63 {
		t.Fatalf("exit = %d, want 63", v.ExitCode())
	}
}

// TestEchoProgram is the canonical VXA decoder skeleton: copy stdin to
// stdout through a heap buffer until EOF.
func TestEchoProgram(t *testing.T) {
	input := bytes.Repeat([]byte("the quick brown fox "), 1000)
	v, out := buildVM(t, Config{}, input, func(u *asm.Unit) {
		u.DefBSS("buf", 256, 4)
		u.Label("start")
		u.Label("again")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysRead))
		u.Op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EBX)) // fd 0
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("buf"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(256))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.TEST, x86.R(x86.EAX), x86.R(x86.EAX))
		u.Jcc(x86.CCLE, "eof")
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.R(x86.EAX)) // count
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1)) // fd 1
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("buf"))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Jmp("again")
		u.Label("eof")
		sysExit(u, 0)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", out.Len(), len(input))
	}
}

// TestDoneProtocol checks the multi-stream decoder protocol: done parks
// the guest, the host swaps streams, and Run resumes after the gate.
func TestDoneProtocol(t *testing.T) {
	v, out := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.DefData("a", asm.ROData, []byte("first"))
		u.DefData("b", asm.ROData, []byte("second"))
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("a"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(5))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("b"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(6))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		sysExit(u, 0)
	})
	st, err := v.Run()
	if err != nil || st != StatusDone {
		t.Fatalf("first run: st=%v err=%v", st, err)
	}
	if out.String() != "first" {
		t.Fatalf("stream 1 = %q", out.String())
	}
	var out2 bytes.Buffer
	v.Stdout = &out2
	st, err = v.Run()
	if err != nil || st != StatusExit {
		t.Fatalf("second run: st=%v err=%v", st, err)
	}
	if out2.String() != "second" {
		t.Fatalf("stream 2 = %q", out2.String())
	}
}

func trapKind(err error) (TrapKind, bool) {
	var tr *Trap
	if errors.As(err, &tr) {
		return tr.Kind, true
	}
	return 0, false
}

// TestSandboxNullDeref: page zero is never mapped.
func TestSandboxNullDeref(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.M(x86.NoReg, 0)) // load [0]
		sysExit(u, 0)
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapMemory {
		t.Fatalf("err = %v, want memory trap", err)
	}
}

// TestSandboxWildPointer: accesses beyond the heap fault.
func TestSandboxWildPointer(t *testing.T) {
	for _, addr := range []int32{0x00800000, 0x3FFFFFFC, -4} {
		v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
			u.Label("start")
			u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(addr))
			u.Op2(x86.MOV, x86.M(x86.EBX, 0), x86.I(1))
			sysExit(u, 0)
		})
		_, err := v.Run()
		if k, ok := trapKind(err); !ok || k != TrapMemory {
			t.Fatalf("addr %#x: err = %v, want memory trap", uint32(addr), err)
		}
	}
}

// TestSandboxWriteToText: the code region is write-protected.
func TestSandboxWriteToText(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.ISym("start"))
		u.Op2(x86.MOV, x86.M(x86.EBX, 0), x86.I(int32(-0x6f6f6f70)))
		sysExit(u, 0)
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapWrite {
		t.Fatalf("err = %v, want write trap", err)
	}
}

// TestSandboxJumpOutside: control transfer outside the sandbox faults at
// fetch time rather than executing host memory.
func TestSandboxJumpOutside(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(0x30000000))
		u.Op1(x86.JMPM, x86.R(x86.EAX))
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapMemory {
		t.Fatalf("err = %v, want memory trap", err)
	}
}

// TestSandboxBadSyscall: unknown syscall numbers and interrupt vectors trap.
func TestSandboxBadSyscall(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(11)) // execve on Linux; not in VXA
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapSyscall {
		t.Fatalf("err = %v, want syscall trap", err)
	}

	v2, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x21, Size: 1}) // DOS!
	})
	_, err = v2.Run()
	if k, ok := trapKind(err); !ok || k != TrapSyscall {
		t.Fatalf("err = %v, want syscall trap", err)
	}
}

// TestSandboxReadBadFD: only fd 0 is readable, 1/2 writable.
func TestSandboxReadBadFD(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.DefBSS("buf", 16, 4)
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysRead))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(3)) // no such handle
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("buf"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(16))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != -ErrnoBADF {
		t.Fatalf("read(3) = %d, want -EBADF", v.ExitCode())
	}
}

// TestSandboxReadIntoText: a decoder cannot ask the host to overwrite its
// own text via the read syscall.
func TestSandboxReadIntoText(t *testing.T) {
	v, _ := buildVM(t, Config{}, []byte("payload"), func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysRead))
		u.Op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EBX))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("start"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(16))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != -ErrnoFAULT {
		t.Fatalf("read into text = %d, want -EFAULT", v.ExitCode())
	}
}

// TestFuelExhaustion: an infinite loop is stopped by the fuel budget.
func TestFuelExhaustion(t *testing.T) {
	v, _ := buildVM(t, Config{Fuel: 10000}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Label("spin")
		u.Jmp("spin")
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapFuel {
		t.Fatalf("err = %v, want fuel trap", err)
	}
}

// TestStackOverflow: unbounded recursion hits the guard gap, not the heap.
func TestStackOverflow(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Label("recurse")
		u.Call("recurse")
	})
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapMemory {
		t.Fatalf("err = %v, want memory trap from guard gap", err)
	}
}

// TestSetPermGrowsHeap: setperm extends the accessible region and the
// new memory is zeroed and usable.
func TestSetPermGrowsHeap(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		// Ask for 64 KiB past the current break.
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(0))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(0x40000))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.TEST, x86.R(x86.EAX), x86.R(x86.EAX))
		u.Jcc(x86.CCNE, "fail")
		// Store and reload at 0x30000.
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(0x30000))
		u.Op2(x86.MOV, x86.M(x86.EBX, 0), x86.I(0xBEEF))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.M(x86.EBX, 0))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.ECX))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Label("fail")
		sysExit(u, -1)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != 0xBEEF {
		t.Fatalf("exit = %#x, want 0xBEEF", v.ExitCode())
	}
}

// TestSetPermCannotReachStack: heap growth must stop at the guard page.
func TestSetPermCannotReachStack(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(0))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(int32(DefaultMemSize-1))) // everything
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != -ErrnoNOMEM {
		t.Fatalf("setperm over stack = %d, want -ENOMEM", v.ExitCode())
	}
}

// TestRepMovsOverlap verifies the architectural forward-propagation
// behaviour that LZ77 match copies depend on.
func TestRepMovsOverlap(t *testing.T) {
	v, out := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.DefData("buf", asm.Data, append([]byte("ab"), make([]byte, 14)...))
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.ESI), x86.ISym("buf"))
		u.Op2(x86.LEA, x86.R(x86.EDI), x86.MSIB(x86.ESI, x86.NoReg, 1, 2, 4))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(12))
		u.Emit(x86.Inst{Op: x86.MOVSB, Rep: true})
		// write(1, buf, 14)
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("buf"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(14))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		sysExit(u, 0)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "ababababababab" {
		t.Fatalf("overlap copy = %q, want abab pattern", out.String())
	}
}

// TestBlockCacheAblation: disabling the fragment cache must not change
// results, only the translation work.
func TestBlockCacheAblation(t *testing.T) {
	prog := func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(1000))
		u.Op2(x86.XOR, x86.R(x86.EDX), x86.R(x86.EDX))
		u.Label("loop")
		u.Op2(x86.ADD, x86.R(x86.EDX), x86.R(x86.ECX))
		u.Op1(x86.DEC, x86.R(x86.ECX))
		u.Jcc(x86.CCNE, "loop")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EDX))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	}
	vCached, _ := buildVM(t, Config{}, nil, prog)
	vRaw, _ := buildVM(t, Config{OptLevel: OptReference}, nil, prog)
	if _, err := vCached.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := vRaw.Run(); err != nil {
		t.Fatal(err)
	}
	if vCached.ExitCode() != vRaw.ExitCode() {
		t.Fatalf("results differ: %d vs %d", vCached.ExitCode(), vRaw.ExitCode())
	}
	cs, rs := vCached.Stats(), vRaw.Stats()
	if cs.Steps != rs.Steps {
		t.Fatalf("step counts differ: %d vs %d", cs.Steps, rs.Steps)
	}
	if rs.BlocksBuilt <= cs.BlocksBuilt {
		t.Fatalf("expected many more fragment builds without the cache: %d vs %d",
			rs.BlocksBuilt, cs.BlocksBuilt)
	}
}

// TestStderrDiscardedUnlessVerbose mirrors vxUnZIP's handling of decoder
// diagnostics.
func TestStderrDiscardedUnlessVerbose(t *testing.T) {
	prog := func(u *asm.Unit) {
		u.DefData("msg", asm.ROData, []byte("diag\n"))
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(2))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("msg"))
		u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(5))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysExit))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	}
	// Quiet: stderr nil, write succeeds (discarded).
	v, _ := buildVM(t, Config{}, nil, prog)
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode() != 5 {
		t.Fatalf("quiet stderr write = %d, want 5", v.ExitCode())
	}
	// Verbose: captured.
	v2, _ := buildVM(t, Config{}, nil, prog)
	var diag strings.Builder
	v2.Stderr = &diag
	if _, err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	if diag.String() != "diag\n" {
		t.Fatalf("stderr = %q", diag.String())
	}
}
