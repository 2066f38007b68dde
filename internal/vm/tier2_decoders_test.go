//go:build amd64 && linux

package vm_test

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
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
func decoderStreams(t *testing.T) []decoderStream {
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
func (d decoderStream) run(t *testing.T, v *vm.VM) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := v.RunStream(context.Background(), bytes.NewReader(d.enc), &out, nil, vm.StreamFuel(len(d.enc))); err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return out.Bytes()
}

// eagerVM loads the decoder into a VM that compiles every superblock on
// first entry.
func (d decoderStream) eagerVM(t *testing.T) *vm.VM {
	t.Helper()
	v, err := elf32.NewVM(d.elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptEager})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEveryGuestAccessIsCheckedInDecoders puts the traces the six
// built-in decoders compile — every superblock promoted on first entry —
// through the same scan as TestEveryGuestAccessIsChecked: compiler
// output has operand shapes (frame slots off EBP, tables under a scaled
// index, pointers bumped through a buffer) the random soak programs
// barely touch.
func TestEveryGuestAccessIsCheckedInDecoders(t *testing.T) {
	for _, d := range decoderStreams(t) {
		v := d.eagerVM(t)
		d.run(t, v)
		if n := vm.ScanTraces(t, v); n == 0 {
			t.Fatalf("%s compiled no trace", d.name)
		} else {
			t.Logf("%-8s %3d traces scanned", d.name, n)
		}
	}
}

// TestNoMappingIsWritableAndExecutable: with every decoder's hot code
// compiled and run, no mapping of the process is both writable and
// executable — the arenas' code is written through one view and run from
// another — and the traces of every decoder are still held while the
// table is read, so none of it has been unmapped to pass.
func TestNoMappingIsWritableAndExecutable(t *testing.T) {
	var vms []*vm.VM
	for _, d := range decoderStreams(t) {
		v := d.eagerVM(t)
		d.run(t, v)
		if v.Stats().Tier2Compiled == 0 {
			t.Fatalf("%s compiled no trace", d.name)
		}
		vms = append(vms, v)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps to read")
	}
	code := 0
	for _, line := range strings.Split(string(maps), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if strings.Contains(f[1], "w") && strings.Contains(f[1], "x") {
			t.Errorf("writable and executable: %s", line)
		}
		if strings.Contains(line, "memfd:vxa-code") {
			code++
			if f[1] != "rw-s" && f[1] != "r-xs" {
				t.Errorf("a view of a code arena is mapped %s: %s", f[1], line)
			}
		}
	}
	if code < 2*len(vms) {
		t.Fatalf("%d arena views mapped with %d decoders' traces alive, want two each", code, len(vms))
	}
	runtime.KeepAlive(vms)
}

// TestArenaCap: a decoder whose arena fills up mid-stream decodes exactly
// what it decodes with room to spare, in exactly as many instructions:
// the compiles the arena refuses are counted and their superblocks run
// on tier 1, like any the emitter declines.
func TestArenaCap(t *testing.T) {
	for _, d := range decoderStreams(t) {
		roomy := d.eagerVM(t)
		want := d.run(t, roomy)

		tight := d.eagerVM(t)
		vm.SetArenaSize(tight, 4<<10)
		got := d.run(t, tight)
		rs, ts := roomy.Stats(), tight.Stats()
		if !bytes.Equal(got, want) || ts.Steps != rs.Steps {
			t.Fatalf("%s: a 4 KiB arena changed the decode: %d bytes in %d instructions, want %d in %d",
				d.name, len(got), ts.Steps, len(want), rs.Steps)
		}
		if ts.Tier2Refused == 0 || ts.Tier2Compiled == 0 || ts.Tier2Compiled+ts.Tier2Refused != rs.Tier2Compiled {
			t.Fatalf("%s: %d traces compiled and %d refused in 4 KiB, %d compiled (%d refused) with room",
				d.name, ts.Tier2Compiled, ts.Tier2Refused, rs.Tier2Compiled, rs.Tier2Refused)
		}
		if rs.Tier2Refused != 0 {
			t.Fatalf("%s: the default arena refused %d traces", d.name, rs.Tier2Refused)
		}
		if _, err := tight.CheckLinks(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		vm.ScanTraces(t, tight)
		t.Logf("%-8s %3d traces fit 4 KiB, %3d refused", d.name, ts.Tier2Compiled, ts.Tier2Refused)
	}
}
