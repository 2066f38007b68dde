package codec_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/vm"
	"vxa/internal/wav"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/roundtrip_golden.json from the current engine and testdata/decoder_sha256.json from the current compiler")

// roundTripGolden pins one codec's end-to-end behavior: the decoded
// output (by content hash) and the exact guest work the archived
// decoder performed. The uops count is deliberately brittle: any change
// to the decoder compiler, the lowering pass or the engine's execution
// semantics shows up here as a diff that has to be reviewed (and
// regenerated with -update), so silent semantic drift cannot slip
// through while the output happens to stay byte-identical — or vice
// versa. A compiler change is expected to move the count and must not
// move the hash; budget_test.go holds the count against a ceiling.
type roundTripGolden struct {
	Codec        string `json:"codec"`
	InputBytes   int    `json:"input_bytes"`
	EncodedBytes int    `json:"encoded_bytes"`
	OutputSHA256 string `json:"output_sha256"`
	UopsExecuted uint64 `json:"uops_executed"`
	Lossless     bool   `json:"lossless"`
}

const goldenPath = "testdata/roundtrip_golden.json"

// roundTripInput picks the deterministic corpus input matching the
// codec's output format.
func roundTripInput(c *codec.Codec) []byte {
	switch c.Output {
	case "BMP image":
		return bmp.Encode(corpus.Image(64, 64, 7))
	case "WAV audio":
		return wav.Encode(corpus.Audio(5512, 2, 7))
	default:
		return corpus.Text(1<<15, 7)
	}
}

// TestRoundTripGolden runs every encodable codec over its corpus input
// through the archived VXA decoder: encode, decode twice (the sandbox
// admits no nondeterminism, so the runs must match each other exactly),
// assert losslessness where promised, and hold the output hash and
// UopsExecuted against the committed goldens.
func TestRoundTripGolden(t *testing.T) {
	var want map[string]roundTripGolden
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}

	got := make(map[string]roundTripGolden)
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue // redecs have nothing to round-trip
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			input := roundTripInput(c)
			var enc bytes.Buffer
			if err := c.Encode(&enc, input); err != nil {
				t.Fatal(err)
			}
			elf, err := c.DecoderELF()
			if err != nil {
				t.Fatal(err)
			}
			var cfg vm.Config
			var out1, out2 bytes.Buffer
			stats1, err := codec.RunDecoderELFToStats(context.Background(), c.Name, elf, bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats2, err := codec.RunDecoderELFToStats(context.Background(), c.Name, elf, bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
				t.Fatal("two decodes of one stream differ: the sandbox leaked nondeterminism")
			}
			if stats1.UopsExecuted != stats2.UopsExecuted {
				t.Fatalf("uops differ between identical runs: %d vs %d", stats1.UopsExecuted, stats2.UopsExecuted)
			}
			if !c.Lossy && !bytes.Equal(out1.Bytes(), input) {
				t.Fatalf("lossless codec did not reproduce its input (%d bytes out, %d in)", out1.Len(), len(input))
			}

			sum := sha256.Sum256(out1.Bytes())
			g := roundTripGolden{
				Codec:        c.Name,
				InputBytes:   len(input),
				EncodedBytes: enc.Len(),
				OutputSHA256: hex.EncodeToString(sum[:]),
				UopsExecuted: stats1.UopsExecuted,
				Lossless:     !c.Lossy,
			}
			got[c.Name] = g
			if *updateGolden {
				return
			}
			w, ok := want[c.Name]
			if !ok {
				t.Fatalf("no golden for codec %s (run with -update)", c.Name)
			}
			if g != w {
				t.Fatalf("golden mismatch:\n got %+v\nwant %+v\n"+
					"uops_executed moves with the decoder compiler (internal/vxcc, libvx, the decoder sources) "+
					"as well as with the lowering pass and the engine; output_sha256 moves with none of them. "+
					"If only the count differs and the change explains it, regenerate with -update "+
					"(and check TestInstructionBudget's ceilings); a differing hash is a wrong decode.", g, w)
			}
		})
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d codecs)", goldenPath, len(got))
	} else if len(got) != len(want) {
		t.Fatalf("codec set changed: %d tested, %d goldens (run with -update)", len(got), len(want))
	}
}

// TestRoundTripGoldenTier2Configs holds the committed goldens with tier 2
// pinned on (every superblock compiles on its first entry) and off,
// whatever VXA_OPT says. Output bytes AND the uop count must match the golden
// exactly in both — the compiled tier executes the same micro-ops with
// the same accounting as the tier-1 dispatch loop, so the tier split is
// invisible in every architectural observation.
func TestRoundTripGoldenTier2Configs(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run TestRoundTripGolden with -update to generate)", err)
	}
	var want map[string]roundTripGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for _, level := range []vm.OptLevel{vm.OptTier2, vm.OptSuperblocks} {
		t.Run(level.String(), func(t *testing.T) {
			for _, c := range codec.All() {
				if c.Encode == nil {
					continue
				}
				w, ok := want[c.Name]
				if !ok {
					continue // TestRoundTripGolden reports the stale golden set
				}
				input := roundTripInput(c)
				var enc bytes.Buffer
				if err := c.Encode(&enc, input); err != nil {
					t.Fatal(err)
				}
				elf, err := c.DecoderELF()
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				stats, err := codec.RunDecoderELFToStats(context.Background(), c.Name, elf,
					bytes.NewReader(enc.Bytes()), int64(enc.Len()), &out, vm.Config{OptLevel: level})
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				sum := sha256.Sum256(out.Bytes())
				if got := hex.EncodeToString(sum[:]); got != w.OutputSHA256 {
					t.Errorf("%s: output hash %s, golden %s", c.Name, got, w.OutputSHA256)
				}
				if stats.UopsExecuted != w.UopsExecuted {
					t.Errorf("%s: %d uops executed, golden %d", c.Name, stats.UopsExecuted, w.UopsExecuted)
				}
			}
		})
	}
}
