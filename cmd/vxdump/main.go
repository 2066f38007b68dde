// Command vxdump inspects VXA decoder executables: ELF structure, a
// disassembly of the text segment in the VXA x86-32 subset, and (for
// registered codecs) the superblock trace plans the tier-2 compiler
// would execute.
//
// Usage:
//
//	vxdump decoder.elf
//	vxdump -codec zlib
//	vxdump -codec deflate -t2
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"vxa"
	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vm/tier2"
	"vxa/internal/wav"
	"vxa/internal/x86"
)

func main() {
	codecName := flag.String("codec", "", "dump the named codec's built decoder")
	disasm := flag.Bool("d", true, "disassemble the executable segment")
	maxInsts := flag.Int("n", 0, "limit disassembly to n instructions (0 = all)")
	t2 := flag.Bool("t2", false, "run a sample stream and print the tier-2 trace plan of every hot superblock (needs -codec)")
	flag.Parse()
	_ = vxa.Codecs()

	var elf []byte
	switch {
	case *codecName != "":
		c, ok := codec.ByName(*codecName)
		if !ok {
			fatal(fmt.Errorf("unknown codec %q", *codecName))
		}
		var err error
		elf, err = c.DecoderELF()
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		var err error
		elf, err = os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: vxdump (-codec name | decoder.elf)")
		os.Exit(2)
	}

	if *t2 {
		if *codecName == "" {
			fatal(fmt.Errorf("-t2 needs -codec (a sample stream must be encoded to warm the profile)"))
		}
		if err := dumpTracePlans(*codecName, elf); err != nil {
			fatal(err)
		}
		return
	}

	p, err := elf32.Parse(elf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("entry: %#x\n", p.Entry)
	for i, s := range p.Segments {
		prot := "rw-"
		if s.ReadOnly {
			prot = "r-x"
		}
		fmt.Printf("segment %d: vaddr=%#08x filesz=%d memsz=%d %s\n",
			i, s.Vaddr, len(s.Data), s.MemSize, prot)
	}
	if !*disasm {
		return
	}
	for _, s := range p.Segments {
		if !s.ReadOnly {
			continue
		}
		fmt.Println()
		addr := s.Vaddr
		data := s.Data
		count := 0
		for len(data) > 0 {
			inst, err := x86.Decode(data)
			if err != nil {
				// Likely the rodata tail; stop at the first undecodable byte.
				fmt.Printf("%08x: (data follows)\n", addr)
				break
			}
			fmt.Printf("%08x: %s\n", addr, inst)
			addr += uint32(inst.Len)
			data = data[inst.Len:]
			count++
			if *maxInsts > 0 && count >= *maxInsts {
				return
			}
		}
	}
}

// dumpTracePlans decodes one encoded sample through a fresh VM so the
// hot paths profile, form superblocks and promote, folds the result into
// the decoder's snapshot as a pool does on release, rewinds the VM onto
// it, decodes the sample again — now on the installed traces, the way
// every later stream of the decoder runs — and prints every trace plan
// the VM holds: the fused micro-op sequence with per-op fuel costs, the
// guard exit slots, whether tier 2 compiled the trace (backend=native,
// tier1 where the emitter bails, disabled below OptTier2), whether
// the code came with the snapshot (origin=snapshot) or had to be
// compiled for this VM (origin=vm), and for every exit that leaves
// through a link slot whether that second stream linked it and to which
// trace.
func dumpTracePlans(name string, elf []byte) error {
	c, ok := codec.ByName(name)
	if !ok {
		return fmt.Errorf("unknown codec %q", name)
	}
	// Sample input by payload type, mirroring the bench corpus.
	var raw []byte
	switch c.Output {
	case "BMP image":
		raw = bmp.Encode(corpus.Image(128, 128, 2))
	case "WAV audio":
		raw = wav.Encode(corpus.Audio(44100, 2, 3))
	default:
		raw = corpus.Text(1<<17, 1)
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		return fmt.Errorf("%s encode: %w", name, err)
	}
	v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20})
	if err != nil {
		return err
	}
	snap := v.Snapshot()
	var out, diag bytes.Buffer
	if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()),
		&out, &diag, vm.StreamFuel(enc.Len())); err != nil {
		return fmt.Errorf("sample decode: %w", err)
	}
	st := v.Stats()
	snap.AbsorbBlocks(v)
	if err := v.Reset(snap); err != nil {
		return err
	}
	out.Reset()
	if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()),
		&out, &diag, vm.StreamFuel(enc.Len())); err != nil {
		return fmt.Errorf("sample decode on installed traces: %w", err)
	}
	st2 := v.Stats()
	plans := v.TracePlans()
	fmt.Printf("%s: %d superblocks, %d tier-2 traces compiled; snapshot carries %d superblocks, %d traces\n",
		name, len(plans), st.Tier2Compiled, snap.SBCount(), snap.T2Count())
	fmt.Printf("%s: second stream, on the snapshot's traces: %d exits linked, %d returns to the dispatcher (%d to resume a pass on tier 1) for %d instructions in traces\n",
		name, st2.Tier2Links-st.Tier2Links, st2.Tier2Exits-st.Tier2Exits, st2.Tier2Resumes-st.Tier2Resumes, st2.Tier2Steps-st.Tier2Steps)
	var total tier2.Ledger
	for _, p := range plans {
		origin := ""
		switch {
		case p.Shared:
			origin = " origin=snapshot"
		case p.Trace != nil:
			origin = " origin=vm"
		}
		fmt.Printf("\ntrace %08x: backend=%s%s cost=%d uops=%d guards=%d rets=%d\n",
			p.Entry, p.Backend, origin, p.Cost, p.NUops, p.Guards, p.Rets)
		// The micro-ops the compiled trace opens with a check of a group of
		// memory operands: a pass that fails it is finished on tier 1 from
		// there.
		resume := make(map[int]bool)
		if p.Trace != nil {
			fmt.Printf("  code: %v\n", p.Trace.Ledger)
			total.Add(p.Trace.Ledger, 1)
			for _, x := range p.Trace.Exits {
				if x.Kind == tier2.ExitResume {
					resume[x.Uop] = true
				}
			}
		}
		for _, u := range p.Uops {
			slot := ""
			switch {
			case u.Guard >= 0:
				slot = fmt.Sprintf("  guard[%d] -> %08x", u.Guard, u.Target)
			case u.Ret >= 0:
				slot = fmt.Sprintf("  ret[%d]", u.Ret)
			case u.Target != 0:
				slot = fmt.Sprintf("  -> %08x", u.Target)
			}
			if resume[u.Index] {
				slot += "  resume"
			}
			fmt.Printf("  %3d  %08x  %-16s cost=%d%s\n", u.Index, u.EIP, u.Kind, u.Cost, slot)
		}
		for k, e := range p.Exits {
			state := "unlinked"
			if e.Linked {
				state = fmt.Sprintf("linked to trace %08x", e.To)
			}
			to := ""
			if e.Target != 0 {
				to = fmt.Sprintf(" -> %08x", e.Target)
			}
			fmt.Printf("  link[%d] uop %d %s%s: %s\n", k, e.Uop, e.Kind, to, state)
		}
	}
	fmt.Printf("\n%s: all compiled traces: %v\n", name, total)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxdump:", err)
	os.Exit(1)
}
