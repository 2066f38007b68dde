package vm_test

import (
	"bytes"
	"context"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/wav"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// decoderStream is one built-in decoder with a stream for it to decode.
type decoderStream struct {
	name     string
	elf, enc []byte
}

// decoderStreams builds one stream per built-in decoder.
func decoderStreams(t testing.TB) []decoderStream {
	t.Helper()
	var out []decoderStream
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		var input []byte
		switch c.Output {
		case "BMP image":
			input = bmp.Encode(corpus.Image(64, 64, 7))
		case "WAV audio":
			input = wav.Encode(corpus.Audio(5512, 2, 7))
		default:
			input = corpus.Text(1<<15, 7)
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc, input); err != nil {
			t.Fatal(err)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, decoderStream{c.Name, elf, enc.Bytes()})
	}
	if len(out) < 6 {
		t.Fatalf("only %d decoders registered", len(out))
	}
	return out
}

// run decodes the stream on v and returns the output.
func (d decoderStream) run(t testing.TB, v *vm.VM) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := v.RunStream(context.Background(), bytes.NewReader(d.enc), &out, nil, vm.StreamFuel(len(d.enc))); err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return out.Bytes()
}

// TestResetKeepsView: a VM reset onto the snapshot it has just absorbed
// into keeps its translation view. The Reset allocates nothing — no map,
// no wrapper, no link slot — and keeps every linked exit; the next stream
// translates no fragment, yet writes what a fresh VM writes in as many
// instructions. The exits that stream links are logged: traces it
// compiles itself (superblocks the warm stream formed too late to run
// hot) and inline-cache slots that change target, which re-link in every
// stream however the VM came by its view.
func TestResetKeepsView(t *testing.T) {
	cfg := vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}
	for _, d := range decoderStreams(t) {
		fresh, err := elf32.NewVM(d.elf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := fresh.Snapshot()
		want := d.run(t, fresh)
		wantSteps := fresh.Stats().Steps

		v := snap.NewVM()
		d.run(t, v)
		snap.AbsorbBlocks(v)
		linked, err := v.CheckLinks()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		// One trace links nothing (its loop edge is a direct jump): adpcm's
		// whole sample loop is one.
		oneTrace := d.name == "adpcm" && v.Stats().Tier2Compiled == 1
		if linked == 0 && v.Stats().Tier2Compiled > 0 && !oneTrace {
			t.Fatalf("%s: a warm stream compiled traces and linked none of their exits", d.name)
		}
		if !raceEnabled {
			allocs := testing.AllocsPerRun(10, func() {
				if err := v.Reset(snap); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: a Reset onto the absorbed snapshot allocates %.0f objects", d.name, allocs)
			}
		} else if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if kept, err := v.CheckLinks(); err != nil || kept != linked {
			t.Fatalf("%s: %d of %d linked exits kept across Reset (%v)", d.name, kept, linked, err)
		}

		st0 := v.Stats()
		got := d.run(t, v)
		st := v.Stats()
		if !bytes.Equal(got, want) || st.Steps-st0.Steps != wantSteps {
			t.Fatalf("%s: the stream after Reset wrote %d bytes in %d instructions, a fresh VM %d in %d",
				d.name, len(got), st.Steps-st0.Steps, len(want), wantSteps)
		}
		if built := st.BlocksBuilt - st0.BlocksBuilt; built != 0 {
			t.Errorf("%s: the stream after Reset translated %d fragments", d.name, built)
		}
		t.Logf("%-8s %3d exits kept linked; the next stream compiled %d traces and linked %d exits",
			d.name, linked, st.Tier2Compiled-st0.Tier2Compiled, st.Tier2Links-st0.Tier2Links)
	}
}

// counted reports how many of a profile's counters are not zero.
func counted(p map[uint32][6]uint32) int {
	n := 0
	for _, c := range p {
		for _, x := range c {
			if x != 0 {
				n++
			}
		}
	}
	return n
}

// TestResetKeepsProfile: a Reset onto a kept view leaves every counter of
// its execution profile — each fragment's heat and edge counts, and its
// superblock's — where the last stream left them, so code that runs a
// few times per stream goes on warming across resets. A view that went
// stale because another VM absorbed into the snapshot is rebuilt, and
// its profile starts at zero.
func TestResetKeepsProfile(t *testing.T) {
	cfg := vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}
	for _, d := range decoderStreams(t) {
		fresh, err := elf32.NewVM(d.elf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := fresh.Snapshot()
		v, other := snap.NewVM(), snap.NewVM()
		d.run(t, other)
		d.run(t, v)
		snap.AbsorbBlocks(v)
		want := vm.Profile(v)
		if counted(want) == 0 {
			t.Fatalf("%s: a stream left no profile", d.name)
		}
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		got := vm.Profile(v)
		if len(got) != len(want) {
			t.Fatalf("%s: the kept view has %d fragments, %d before the Reset", d.name, len(got), len(want))
		}
		for addr, c := range want {
			if got[addr] != c {
				t.Fatalf("%s: fragment %#x: profile %v after the Reset, %v before", d.name, addr, got[addr], c)
			}
		}

		if counted(vm.Profile(other)) == 0 {
			t.Fatalf("%s: a stream left no profile", d.name)
		}
		if err := other.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if n := counted(vm.Profile(other)); n != 0 {
			t.Fatalf("%s: a view rebuilt after another VM's absorb starts with %d counters set", d.name, n)
		}
	}
}
