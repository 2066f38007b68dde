// Package vxcc is the VXC compiler: it compiles a small C dialect to
// 32-bit x86 machine code and links the result (with crt0 and the libvx
// runtime) into the static ELF executables that VXA archives carry as
// decoders.
//
// The paper builds its decoders from C sources "using a basic GCC
// cross-compiler setup" (§5.1). This package is that toolchain for the
// reproduction: VXC is the C subset the decoder sources are written in —
// int/uint/byte scalars, pointers, one-dimensional arrays, enums, the
// full statement and operator repertoire of portable decoder code, and
// three intrinsics (__vxa_syscall, __builtin_memcpy, __builtin_memset)
// from which the runtime builds the five-call VXA system interface.
package vxcc

import (
	"fmt"
	"sort"
	"strings"

	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// Version identifies the compiler's code generation. It participates
// in persistent caches keyed by decoder source text — the artifact
// store's ELF-hash index, which lets a restarted daemon learn a
// decoder's content address without recompiling it. The contract
// mirrors vm.EngineVersion: compilation is deterministic for a given
// Version, and any codegen, runtime-library or linking change that can
// alter the emitted ELF for unchanged sources must bump it, so stale
// index entries miss instead of aliasing a different executable.
// 3 is the operand-selecting code generator with register-resident
// locals and inlining (codegen.go); 2 was the EAX/ECX stack machine
// with globals laid out in declaration order; 1 laid them out in map
// iteration order, so its ELFs differed from compile to compile.
const Version = 3

// Source is one VXC compilation unit.
type Source struct {
	Name string
	Text string
}

// Options configures a build.
type Options struct {
	// Base is the load address of the image; defaults to vm.PageSize.
	Base uint32
	// OmitRuntime builds without libvx (used by compiler tests only).
	OmitRuntime bool
}

// FuncInfo describes one function in the linked image.
type FuncInfo struct {
	Name    string
	File    string // defining source file (RuntimeFile for libvx)
	Addr    uint32
	Size    uint32 // text bytes, including padding up to the next symbol
	Runtime bool
}

// Build is the result of a compilation.
type Build struct {
	Image *asm.Image
	ELF   []byte
	Funcs []FuncInfo

	// Table 2 accounting: text bytes attributable to the decoder proper
	// versus the statically linked runtime library.
	UserTextBytes    uint32
	RuntimeTextBytes uint32
}

// Compile compiles and links the given sources into a VXA decoder
// executable. The program must define "int main(void)"; crt0 calls it and
// exits with its return value.
func Compile(opts Options, sources ...Source) (*Build, error) {
	if opts.Base == 0 {
		opts.Base = vm.PageSize
	}
	g := newCodegen()

	var files []*File
	if !opts.OmitRuntime {
		rt, err := Parse(RuntimeFile, RuntimeSource)
		if err != nil {
			return nil, fmt.Errorf("vxcc: internal error in runtime: %w", err)
		}
		files = append(files, rt)
	}
	for _, s := range sources {
		f, err := Parse(s.Name, s.Text)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Pass 1: declare everything so order never matters.
	for _, f := range files {
		if err := g.declare(f); err != nil {
			return nil, err
		}
	}
	mainFn, ok := g.funcs["main"]
	if !ok {
		return nil, fmt.Errorf("vxcc: no main function defined")
	}
	if len(mainFn.params) != 0 || mainFn.ret.Kind != TInt {
		return nil, fmt.Errorf("vxcc: main must be declared as int main(void)")
	}

	g.markFatal(files)

	// crt0: call main, then exit(main()).
	g.u.Label("_start")
	g.u.Call("main")
	g.u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EAX))
	g.u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(vm.SysExit))
	g.u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})

	// Pass 2: globals; then every function is analyzed and checked, in
	// source order, whether or not it ends up in the image.
	if err := g.emitGlobals(); err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, fd := range f.Funcs {
			if err := g.analyze(fd); err != nil {
				return nil, err
			}
			if err := g.checkFunc(fd); err != nil {
				return nil, err
			}
		}
	}

	// Pass 3: code for the functions main reaches through the calls that
	// are still calls. Once a helper's every call site has been expanded in
	// place its out-of-line copy would be dead weight in every archive, and
	// so would the parts of libvx a decoder never uses.
	linked := map[*function]bool{mainFn: true}
	for work := []*function{mainFn}; len(work) > 0; {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range fn.an.calls {
			if !linked[callee] {
				linked[callee] = true
				work = append(work, callee)
			}
		}
	}
	funcFile := make(map[string]string)
	for _, f := range files {
		for _, fd := range f.Funcs {
			if linked[g.funcs[fd.Name]] {
				if err := g.emitFunc(fd); err != nil {
					return nil, err
				}
				funcFile[fd.Name] = f.Name
			}
		}
	}

	im, err := g.u.Link(opts.Base)
	if err != nil {
		return nil, err
	}
	elfBytes, err := elf32.Write(im, "_start")
	if err != nil {
		return nil, err
	}

	b := &Build{Image: im, ELF: elfBytes}
	b.accountFunctions(funcFile)
	return b, nil
}

// accountFunctions computes per-function text sizes from symbol layout.
func (b *Build) accountFunctions(funcFile map[string]string) {
	textEnd := b.Image.Base + uint32(len(b.Image.Text))
	type sym struct {
		name string
		addr uint32
	}
	var fns []sym
	for name, addr := range b.Image.Symbols {
		if name == "_start" || funcFile[name] != "" {
			if !strings.HasPrefix(name, ".") && addr < textEnd {
				fns = append(fns, sym{name, addr})
			}
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].addr < fns[j].addr })
	for i, f := range fns {
		end := textEnd
		if i+1 < len(fns) {
			end = fns[i+1].addr
		}
		file := funcFile[f.name]
		if f.name == "_start" {
			file = RuntimeFile
		}
		info := FuncInfo{
			Name: f.name, File: file, Addr: f.addr, Size: end - f.addr,
			Runtime: file == RuntimeFile,
		}
		b.Funcs = append(b.Funcs, info)
		if info.Runtime {
			b.RuntimeTextBytes += info.Size
		} else {
			b.UserTextBytes += info.Size
		}
	}
}

// MustCompile is Compile for sources known to be valid (the embedded
// decoders); it panics on error.
func MustCompile(opts Options, sources ...Source) *Build {
	b, err := Compile(opts, sources...)
	if err != nil {
		panic(err)
	}
	return b
}
