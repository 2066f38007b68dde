package elf32

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"errors"
	"testing"

	"vxa/internal/vm"
	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// buildImage assembles a trivial program: exit(7) after touching data/bss.
func buildImage(t *testing.T) *asm.Image {
	t.Helper()
	u := asm.New()
	u.DefData("greeting", asm.ROData, []byte("hello"))
	u.DefData("counter", asm.Data, []byte{1, 0, 0, 0})
	u.DefBSS("scratch", 64, 4)
	u.Label("_start")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.MAbs("counter", 0, 4))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.ISym("scratch"))
	u.Op2(x86.MOV, x86.M(x86.EBX, 0), x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(vm.SysExit))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(7))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	im, err := u.Link(vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestWriteParseRoundTrip(t *testing.T) {
	im := buildImage(t)
	b, err := Write(im, "_start")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != im.Symbols["_start"] {
		t.Fatalf("entry = %#x, want %#x", p.Entry, im.Symbols["_start"])
	}
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(p.Segments))
	}
	if !p.Segments[0].ReadOnly || p.Segments[1].ReadOnly {
		t.Fatal("segment protections wrong")
	}
	// BSS must be reflected as memsz > filesz.
	if p.Segments[1].MemSize <= uint32(len(p.Segments[1].Data)) {
		t.Fatal("BSS lost in round trip")
	}
}

// TestStdlibCanParse cross-checks our writer against Go's debug/elf.
func TestStdlibCanParse(t *testing.T) {
	im := buildImage(t)
	b, err := Write(im, "_start")
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.NewFile(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("debug/elf rejects our output: %v", err)
	}
	defer f.Close()
	if f.Machine != elf.EM_386 || f.Class != elf.ELFCLASS32 || f.Type != elf.ET_EXEC {
		t.Fatalf("debug/elf sees machine=%v class=%v type=%v", f.Machine, f.Class, f.Type)
	}
	if len(f.Progs) != 2 {
		t.Fatalf("debug/elf sees %d program headers, want 2", len(f.Progs))
	}
}

func TestLoadAndRun(t *testing.T) {
	im := buildImage(t)
	b, err := Write(im, "_start")
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVM(b, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.Run()
	if err != nil || st != vm.StatusExit || v.ExitCode() != 7 {
		t.Fatalf("st=%v err=%v code=%d", st, err, v.ExitCode())
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := Parse([]byte("PK\x03\x04 not an elf")); !errors.Is(err, ErrNotELF) {
		t.Errorf("zip magic: %v, want ErrNotELF", err)
	}
	im := buildImage(t)
	b, _ := Write(im, "_start")

	// 64-bit class.
	b64 := append([]byte{}, b...)
	b64[4] = 2
	if _, err := Parse(b64); !errors.Is(err, ErrBadELF) {
		t.Errorf("elf64: %v, want ErrBadELF", err)
	}

	// Wrong machine (ARM = 40).
	bArm := append([]byte{}, b...)
	bArm[18] = 40
	if _, err := Parse(bArm); !errors.Is(err, ErrBadELF) {
		t.Errorf("arm: %v, want ErrBadELF", err)
	}

	// Truncated segment data.
	if _, err := Parse(b[:len(b)-8]); !errors.Is(err, ErrBadELF) {
		t.Errorf("truncated: %v, want ErrBadELF", err)
	}
}

// TestWritableTextTrapsAtEntry: instructions are fetched from read-only
// segments alone, so an image whose code segment is writable, as one
// linked with ld -N is, loads and then traps at its entry.
func TestWritableTextTrapsAtEntry(t *testing.T) {
	im := buildImage(t)
	b, err := Write(im, "_start")
	if err != nil {
		t.Fatal(err)
	}
	flags := b[ehSize+24:]
	binary.LittleEndian.PutUint32(flags, binary.LittleEndian.Uint32(flags)|pfW)
	v, err := NewVM(b, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.Run()
	var tr *vm.Trap
	if !errors.As(err, &tr) || tr.Kind != vm.TrapMemory || tr.EIP != im.Symbols["_start"] || v.Stats().Steps != 0 {
		t.Fatalf("%v after %d steps, want a memory fault at the entry %#x", err, v.Stats().Steps, im.Symbols["_start"])
	}
}
