package vm_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// decoderArtifact is what an artifact of one built-in decoder holds: the
// pristine image with the blocks and superblocks one stream translated.
type decoderArtifact struct {
	name string
	data []byte
}

// decoderArtifacts serializes one artifact per built-in decoder, each
// translated at vm.OptTier2 so that what they hold does not follow
// VXA_OPT.
func decoderArtifacts(tb testing.TB) []decoderArtifact {
	var out []decoderArtifact
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
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2})
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
		out = append(out, decoderArtifact{c.Name, data})
	}
	if len(out) < 6 {
		tb.Fatalf("only %d decoders registered", len(out))
	}
	return out
}

// TestDecoderArtifactsLoad: the loader refuses operand values out of
// their domains, and no real artifact holds one — a refused artifact
// would send a restarted shard back to translating. It logs each
// artifact's size and what it holds, so a change to the format shows.
func TestDecoderArtifactsLoad(t *testing.T) {
	for _, a := range decoderArtifacts(t) {
		s, err := vm.Deserialize(a.data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		t.Logf("%-8s %7d bytes: %3d blocks, %2d superblocks", a.name, len(a.data), s.BlockCount(), s.SBCount())
		if s.SBCount() == 0 {
			t.Fatalf("%s: the artifact holds no superblock", a.name)
		}
	}
}

// FuzzDeserialize feeds the snapshot parser mutations of the built-in
// decoders' artifacts. Its input comes from a directory other processes
// write, and what it accepts is copied into guest memory by offset, run
// by the executor and encoded into host instructions by the native
// emitter, so: no payload may panic it, and one it accepts must
// materialize a VM and a reset without a fault (every extent inside the
// address space), compile every superblock without a panic (where the
// host has an emitter), run a stream without a panic — under fuel budgets
// that end inside a block, on the path that runs a block's raw micro-ops,
// and under one long enough for superblocks to form and compile — and
// serialize again into a payload it accepts. What the stream decodes does
// not matter: a forged artifact may decode wrongly. The seeds under
// testdata are three forgeries the loader once accepted: a compare guard
// whose condition code is 0x20, which the emitter turned into a jcc
// opcode byte of 0xA0 (push fs); an AluRR whose AluOp is 9, past the
// emitter's table; and an ADD in a block whose source register is 0x40 —
// in the persisted copy of the decoded instruction that blocks carried
// up to EngineVersion 5, it indexed past the register file.
func FuzzDeserialize(f *testing.F) {
	for _, a := range decoderArtifacts(f) {
		f.Add(a.data)
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
		vm.CompileSuperblocks(s)
		for _, fuel := range []int64{3, 10, 100, 1 << 20} {
			if err := v.Reset(s); err != nil {
				t.Fatal(err)
			}
			v.RunStream(context.Background(), bytes.NewReader(nil), io.Discard, io.Discard, fuel)
		}
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

// TestFuzzSeedsReachTheirForgery holds each regression seed of
// FuzzDeserialize to the refusal it was written for. The fuzz body
// returns on any error, so a seed left at an older EngineVersion (or
// level numbering) would be refused at the header and pin nothing: when
// the header changes, the seeds are re-encoded and this test says so.
func TestFuzzSeedsReachTheirForgery(t *testing.T) {
	want := map[string]string{
		"guard_cc_0x20":    "condition code (Sub) out of range for GuardTestRINF",
		"alurr_aluop_9":    "AluOp (Sub) out of range for AluRR",
		"add_src_reg_0x40": "register slot out of range",
	}
	for name, msg := range want {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDeserialize", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := vm.Deserialize([]byte(data)); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: Deserialize = %v, want a refusal for %q", name, err, msg)
		}
	}
}
