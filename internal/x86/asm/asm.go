// Package asm is a programmatic assembler and linker for the VXA x86-32
// subset. It is the back-end of the vxcc compiler and of the hand-written
// assembly fragments in the decoder runtime.
//
// A Unit collects text-section instructions plus read-only data,
// initialized data, and BSS allocations, all addressed by symbol. Link
// lays the sections out at a base address, resolves branch targets and
// absolute relocations, and produces a flat Image ready to be wrapped in
// an ELF executable or loaded straight into the VM.
package asm

import (
	"fmt"
	"slices"

	"vxa/internal/x86"
)

// Section identifies a data section of a Unit.
type Section uint8

// Sections, in layout order after text.
const (
	ROData Section = iota // read-only data (string literals, tables)
	Data                  // initialized writable data
	BSS                   // zero-initialized writable data
)

type textItem struct {
	inst    x86.Inst
	isLabel bool
	label   string
}

type dataSym struct {
	name    string
	section Section
	data    []byte // nil for BSS
	size    uint32
	align   uint32
}

// Unit is a program being assembled.
type Unit struct {
	text  []textItem
	data  []dataSym
	names map[string]bool
	errs  []error
}

// New returns an empty Unit.
func New() *Unit {
	return &Unit{names: make(map[string]bool)}
}

func (u *Unit) errf(format string, args ...any) {
	u.errs = append(u.errs, fmt.Errorf(format, args...))
}

// Label defines a text symbol at the current position.
func (u *Unit) Label(name string) {
	if u.names[name] {
		u.errf("asm: duplicate symbol %q", name)
		return
	}
	u.names[name] = true
	u.text = append(u.text, textItem{isLabel: true, label: name})
}

// Grow makes room for n more text items (instructions and labels), so a
// caller that can estimate the unit's size does not grow it an append at
// a time.
func (u *Unit) Grow(n int) {
	u.text = slices.Grow(u.text, n)
}

// Emit appends an instruction to the text section.
func (u *Unit) Emit(inst x86.Inst) {
	u.text = append(u.text, textItem{inst: inst})
}

// Op2 appends a two-operand instruction.
func (u *Unit) Op2(op x86.Op, dst, src x86.Arg) {
	u.Emit(x86.Inst{Op: op, Dst: dst, Src: src})
}

// Op1 appends a one-operand instruction.
func (u *Unit) Op1(op x86.Op, dst x86.Arg) {
	u.Emit(x86.Inst{Op: op, Dst: dst})
}

// Op0 appends a zero-operand instruction.
func (u *Unit) Op0(op x86.Op) {
	u.Emit(x86.Inst{Op: op})
}

// Call appends a call to the named text symbol.
func (u *Unit) Call(sym string) {
	u.Emit(x86.Inst{Op: x86.CALL, Sym: sym})
}

// Jmp appends an unconditional jump to the named symbol.
func (u *Unit) Jmp(sym string) {
	u.Emit(x86.Inst{Op: x86.JMP, Sym: sym})
}

// Jcc appends a conditional jump to the named symbol.
func (u *Unit) Jcc(cc x86.CC, sym string) {
	u.Emit(x86.Inst{Op: x86.JCC, CC: cc, Sym: sym})
}

// DefData defines an initialized symbol in the given section.
func (u *Unit) DefData(name string, section Section, data []byte) {
	if u.names[name] {
		u.errf("asm: duplicate symbol %q", name)
		return
	}
	if section == BSS {
		u.errf("asm: DefData into BSS for %q; use DefBSS", name)
		return
	}
	u.names[name] = true
	u.data = append(u.data, dataSym{
		name: name, section: section,
		data: append([]byte(nil), data...), size: uint32(len(data)), align: 4,
	})
}

// DefBSS reserves size zero bytes for name with the given alignment.
func (u *Unit) DefBSS(name string, size, align uint32) {
	if u.names[name] {
		u.errf("asm: duplicate symbol %q", name)
		return
	}
	if align == 0 {
		align = 4
	}
	u.names[name] = true
	u.data = append(u.data, dataSym{name: name, section: BSS, size: size, align: align})
}

// Image is the linked program.
type Image struct {
	Base    uint32 // address of the first text byte
	Text    []byte
	ROData  []byte // placed immediately after Text
	Data    []byte // placed after ROData
	BSSSize uint32 // zero region after Data

	Symbols map[string]uint32 // every defined symbol's final address
}

// ROBase returns the address of the read-only data section.
func (im *Image) ROBase() uint32 { return im.Base + uint32(len(im.Text)) }

// DataBase returns the address of the writable data section.
func (im *Image) DataBase() uint32 { return im.ROBase() + uint32(len(im.ROData)) }

// BSSBase returns the address of the BSS region.
func (im *Image) BSSBase() uint32 { return im.DataBase() + uint32(len(im.Data)) }

// End returns the first address past the image (end of BSS).
func (im *Image) End() uint32 { return im.BSSBase() + im.BSSSize }

func align(v, a uint32) uint32 {
	return (v + a - 1) &^ (a - 1)
}

// Link assembles and links the unit at the given base address.
func (u *Unit) Link(base uint32) (*Image, error) {
	if len(u.errs) > 0 {
		return nil, u.errs[0]
	}

	type placed struct {
		off  int // offset in text blob
		len  int
		inst *x86.Inst
		fix  []x86.Fixup
	}

	// Pass 1: encode text with zero rel fields, note label offsets. The
	// built-in decoders average 3.1-3.6 bytes of text per item (labels
	// included; an instruction takes at most 15), so four bytes an item
	// plus 16 for the padding up to rodata holds their text without
	// growing it.
	syms := make(map[string]uint32)
	text := make([]byte, 0, 4*len(u.text)+16)
	insts := make([]placed, 0, len(u.text))
	for i := range u.text {
		it := &u.text[i]
		if it.isLabel {
			syms[it.label] = uint32(len(text))
			continue
		}
		// Branches to symbols are encoded with rel=0 now, patched in pass 2.
		b, fix, err := x86.EncodeFixups(it.inst)
		if err != nil {
			return nil, fmt.Errorf("asm: %v: %w", it.inst, err)
		}
		insts = append(insts, placed{off: len(text), len: len(b), inst: &it.inst, fix: fix})
		text = append(text, b...)
	}

	// Lay out data sections after text.
	im := &Image{Base: base, Text: text, Symbols: syms}
	roBase := align(base+uint32(len(text)), 16)
	// Padding between text end and rodata start is folded into Text so the
	// sections stay contiguous in one loadable blob.
	pad := roBase - (base + uint32(len(text)))
	im.Text = append(im.Text, make([]byte, pad)...)

	cursor := roBase
	for _, sec := range []Section{ROData, Data} {
		var blob []byte
		for i := range u.data {
			d := &u.data[i]
			if d.section != sec {
				continue
			}
			off := align(cursor+uint32(len(blob)), d.align) - cursor
			blob = append(blob, make([]byte, int(off)-len(blob))...)
			syms[d.name] = cursor + off
			blob = append(blob, d.data...)
		}
		// Pad each section to a 16-byte boundary so the next section's
		// base is just the previous end; the image stays one flat blob.
		padded := align(cursor+uint32(len(blob)), 16) - cursor
		blob = append(blob, make([]byte, int(padded)-len(blob))...)
		if sec == ROData {
			im.ROData = blob
		} else {
			im.Data = blob
		}
		cursor += uint32(len(blob))
	}
	bssBase := cursor
	bss := uint32(0)
	for i := range u.data {
		d := &u.data[i]
		if d.section != BSS {
			continue
		}
		a := align(bssBase+bss, d.align) - bssBase
		syms[d.name] = bssBase + a
		bss = a + d.size
	}
	im.BSSSize = bss

	// Text labels become absolute addresses.
	for _, it := range u.text {
		if it.isLabel {
			syms[it.label] += base
		}
	}
	// The linker-provided __end symbol marks the end of BSS — the start
	// of the heap a program may claim with setperm.
	if _, defined := syms["__end"]; !defined {
		syms["__end"] = im.End()
	}

	// Pass 2: patch branch targets and absolute fixups by adding the
	// resolved address into the 32-bit little-endian slot.
	add32 := func(off int, v uint32) {
		old := uint32(im.Text[off]) | uint32(im.Text[off+1])<<8 |
			uint32(im.Text[off+2])<<16 | uint32(im.Text[off+3])<<24
		n := old + v
		im.Text[off] = byte(n)
		im.Text[off+1] = byte(n >> 8)
		im.Text[off+2] = byte(n >> 16)
		im.Text[off+3] = byte(n >> 24)
	}

	for _, p := range insts {
		switch p.inst.Op {
		case x86.CALL, x86.JMP, x86.JCC:
			if p.inst.Sym == "" {
				break
			}
			target, ok := syms[p.inst.Sym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined symbol %q in %v", p.inst.Sym, p.inst)
			}
			next := base + uint32(p.off) + uint32(p.len)
			rel := target - next
			add32(p.off+p.len-4, rel)
		}
		for _, f := range p.fix {
			target, ok := syms[f.Sym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined symbol %q in %v", f.Sym, p.inst)
			}
			add32(p.off+f.Off, target)
		}
	}
	return im, nil
}

// Blob returns the contiguous initialized image (text + rodata + data).
func (im *Image) Blob() []byte {
	b := make([]byte, 0, len(im.Text)+len(im.ROData)+len(im.Data))
	b = append(b, im.Text...)
	b = append(b, im.ROData...)
	b = append(b, im.Data...)
	return b
}
