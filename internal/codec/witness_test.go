package codec_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// The old-archive witness: an archive whose entries carry the decoders of
// an earlier build, and what each entry decoded to on that build.
//
// vxcc3_6eaeecc.zip was written by cmd/vxzip at commit 6eaeecc (vxcc.Version
// 3, the bit-serial inflate, Huffman decoder and bit reader), from seven
// inputs of 0.7-3 KB made with internal/corpus at seeds 42-45 and the
// codecs' own Go encoders:
//
//	text.txt   corpus.Text(3000, 42), raw: the writer picks deflate
//	audio.wav  wav.Encode(corpus.Audio(700, 2, 42)), raw: the writer picks lpc
//	image.vxj  dctimg.Encode of bmp.Encode(corpus.Image(32, 32, 42))
//	image.vxw  haarimg.Encode of the same BMP
//	audio.vxa  adpcm.Encode of wav.Encode(corpus.Audio(2000, 2, 43))
//	text.vxb   bwt.Encode of corpus.Text(3000, 44)
//	text.zz    compress/zlib at the default level of corpus.Text(3000, 45)
//
//	git archive 6eaeecc | tar -x -C parent && cd parent
//	go build -o vxzip ./cmd/vxzip
//	./vxzip vxcc3_6eaeecc.zip text.txt audio.wav image.vxj image.vxw audio.vxa text.vxb text.zz
//
// vxcc3_6eaeecc.json holds, per entry, the SHA-256 of the decoder's
// output and the guest instructions (vm.Stats.Steps) of the stream, as
// witnessStream measured them at that commit. Neither file is ever
// rewritten: -update leaves both alone, and a test that cannot match them
// has changed what an archive already written decodes to.
const (
	witnessArchive = "testdata/archives/vxcc3_6eaeecc.zip"
	witnessRecord  = "testdata/archives/vxcc3_6eaeecc.json"
)

// witnessEntry is one entry's record.
type witnessEntry struct {
	Codec        string `json:"codec"`
	OutputSHA256 string `json:"output_sha256"`
	Steps        uint64 `json:"steps"`
}

// witnessStream runs one stream on v and returns its record.
func witnessStream(t *testing.T, v *vm.VM, codecName string, payload []byte) (witnessEntry, bool) {
	t.Helper()
	var out bytes.Buffer
	steps0 := v.Stats().Steps
	reusable, err := v.RunStream(context.Background(), bytes.NewReader(payload), &out, nil, vm.StreamFuel(len(payload)))
	if err != nil {
		t.Fatalf("%s: %v", codecName, err)
	}
	sum := sha256.Sum256(out.Bytes())
	return witnessEntry{Codec: codecName, OutputSHA256: hex.EncodeToString(sum[:]), Steps: v.Stats().Steps - steps0}, reusable
}

// TestOldArchivesDecode decodes every entry of the witness archive with
// the decoder the archive carries, on a fresh VM at every OptLevel and on
// a pooled VM after a reset, and requires the recorded output and Steps
// exactly: an archive written by an earlier build decodes as it did then,
// whatever the decoders of this build look like.
func TestOldArchivesDecode(t *testing.T) {
	archive, err := os.ReadFile(witnessArchive)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(witnessRecord)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]witnessEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	zr, err := zipfile.NewReader(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(zr.Files) != len(want) {
		t.Fatalf("%d entries in the archive, %d recorded", len(zr.Files), len(want))
	}
	for i := range zr.Files {
		f := &zr.Files[i]
		w, ok := want[f.Name]
		if !ok || f.VXA == nil || f.VXA.Codec != w.Codec {
			t.Fatalf("%s: no record for this entry, or it is not a %q entry", f.Name, w.Codec)
		}
		payload, err := zr.Payload(f)
		if err != nil {
			t.Fatal(err)
		}
		elf, err := zr.Decoder(f.VXA.DecoderOffset)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, got witnessEntry) {
			t.Helper()
			if got != w {
				t.Errorf("%s, %s: %+v, recorded %+v", f.Name, how, got, w)
			}
		}
		for _, level := range vm.OptLevels() {
			v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: level})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := witnessStream(t, v, f.VXA.Codec, payload)
			check("fresh VM at "+level.String(), got)
		}
		// A second lease under another security mode starts from the
		// pristine snapshot: the reset path.
		p := vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}})
		for _, mode := range []uint32{0o600, 0o644} {
			l, err := p.Get(context.Background(), f.VXA.Codec, mode, func() ([]byte, error) { return elf, nil })
			if err != nil {
				t.Fatal(err)
			}
			got, reusable := witnessStream(t, l.VM(), f.VXA.Codec, payload)
			l.Release(reusable)
			check("pooled VM", got)
		}
		if r := p.Stats().Resets; r != 1 {
			t.Errorf("%s: %d resets, want 1", f.Name, r)
		}
	}
}
