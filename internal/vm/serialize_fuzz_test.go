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

// decoderArtifacts serializes what an artifact of each built-in decoder
// holds: the pristine image with the blocks and superblocks one stream
// translated.
func decoderArtifacts(tb testing.TB) [][]byte {
	var out [][]byte
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		var input []byte
		switch c.Output {
		case "BMP image":
			input = bmp.Encode(corpus.Image(64, 64, 7))
		case "WAV audio":
			input = wav.Encode(corpus.Audio(1024, 2, 7))
		default:
			input = corpus.Text(4<<10, 7)
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc, input); err != nil {
			tb.Fatal(err)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			tb.Fatal(err)
		}
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		snap := v.Snapshot()
		if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()), &bytes.Buffer{}, nil, vm.StreamFuel(enc.Len())); err != nil {
			tb.Fatalf("%s: %v", c.Name, err)
		}
		snap.AbsorbBlocks(v)
		data, err := snap.Serialize()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	if len(out) < 6 {
		tb.Fatalf("only %d decoders registered", len(out))
	}
	return out
}

// TestDecoderArtifactsLoad: the loader refuses operand values out of
// their domains, and no real artifact holds one — a refused artifact
// would send a restarted shard back to translating.
func TestDecoderArtifactsLoad(t *testing.T) {
	for i, data := range decoderArtifacts(t) {
		s, err := vm.Deserialize(data)
		if err != nil {
			t.Fatalf("artifact %d: %v", i, err)
		}
		if s.SBCount() == 0 {
			t.Fatalf("artifact %d holds no superblock", i)
		}
	}
}

// FuzzDeserialize feeds the snapshot parser mutations of six real
// artifacts. Its input comes from a directory other processes write, and
// what it accepts is copied into guest memory by offset, indexed into by
// the executor and encoded into host instructions by the native emitter,
// so: no payload may panic it, and one it accepts must materialize a VM
// and a reset without a fault (every extent inside the address space),
// compile every superblock without a panic (where the host has an
// emitter) and serialize again into a payload it accepts. The seeds under
// testdata are two payloads the loader once accepted and the emitter
// could not take: a compare guard whose condition code was 0x20, which
// came out as a jcc opcode byte of 0xA0 (push fs), and an AluRR whose
// AluOp was 9, past the emitter's table.
func FuzzDeserialize(f *testing.F) {
	for _, data := range decoderArtifacts(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := vm.Deserialize(data)
		if err != nil {
			return
		}
		if s.MemSize() > 64<<20 {
			return // a mutated header may ask for a GiB per exec
		}
		v := s.NewVM()
		if err := v.Reset(s); err != nil {
			t.Fatal(err)
		}
		vm.CompileSuperblocks(s)
		again, err := s.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		back, err := vm.Deserialize(again)
		if err != nil {
			t.Fatalf("a payload Serialize wrote is refused: %v", err)
		}
		if back.BlockCount() > s.BlockCount() || back.SBCount() > s.SBCount() || back.Footprint() > s.Footprint() {
			t.Fatal("a snapshot grew on its way through Serialize")
		}
	})
}
