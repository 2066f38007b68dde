//go:build amd64 && linux

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

// TestEveryGuestAccessIsCheckedInDecoders puts the traces the six
// built-in decoders compile — every superblock promoted on first entry —
// through the same scan as TestEveryGuestAccessIsChecked: compiler
// output has operand shapes (frame slots off EBP, tables under a scaled
// index, pointers bumped through a buffer) the random soak programs
// barely touch.
func TestEveryGuestAccessIsCheckedInDecoders(t *testing.T) {
	decoders := 0
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		decoders++
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
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptEager})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()), &out, nil, vm.StreamFuel(enc.Len())); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if n := vm.ScanTraces(t, v); n == 0 {
			t.Fatalf("%s compiled no trace", c.Name)
		} else {
			t.Logf("%-8s %3d traces scanned", c.Name, n)
		}
	}
	if decoders < 6 {
		t.Fatalf("only %d decoders registered", decoders)
	}
}
