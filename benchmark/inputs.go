package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/vxcc"
	"vxa/internal/wav"
)

// decoderNames lists the six decoders of the paper's Table 1, in the
// order every per-decoder metric is reported.
var decoderNames = []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"}

// decoder is one Table-1 codec with the ELF the product embeds for it.
type decoder struct {
	idx   int
	codec *codec.Codec
	elf   []byte
}

// stream is one encoded input and the output its decoder must produce.
// The product only ever sees enc; raw and want stay on the benchmark's
// side as the oracle.
type stream struct {
	id      string // "<decoder>/<label>", stable across seeds
	dec     *decoder
	raw     []byte   // encoder input
	enc     []byte   // encoded stream
	want    [32]byte // SHA-256 of the expected decoder output
	wantLen int
	mode    uint32 // archive permission bits (the §2.4 security attribute)
}

// inputSet is everything a workload generated from the seed.
type inputSet struct {
	decoders []*decoder
	streams  []*stream
	// encodeNS and nativeNS are the summed Codec.Encode / Codec.Decode
	// times per decoder over streams, with the raw bytes they covered.
	encodeNS, nativeNS [6]time.Duration
	rawBytes           [6]int64
}

// rawKind says which generator feeds a decoder.
func rawKind(c *codec.Codec) string {
	switch c.Output {
	case "BMP image":
		return "image"
	case "WAV audio":
		return "audio"
	}
	return "text"
}

// genRaw makes about size bytes of the kind of input the codec compresses.
// Sizes are fixed by the workload; only the contents depend on the seed,
// so the amount of work per run does not drift with it.
func genRaw(kind string, size int, seed int64) []byte {
	switch kind {
	case "image":
		side := int(math.Round(math.Sqrt(float64(size) / 3)))
		if side < 8 {
			side = 8
		}
		return bmp.Encode(corpus.Image(side, side, seed))
	case "audio":
		frames := size / 4
		if frames < 32 {
			frames = 32
		}
		return wav.Encode(corpus.Audio(frames, 2, seed))
	}
	return corpus.Text(size, seed)
}

// buildDecoders takes, per decoder, the ELF the product itself embeds
// (Codec.DecoderELF, compiled once per process). No set-up compiles
// anything: a reader never does, and the collector's overshoot during six
// compiles decided whether the 20 MiB start workloads peaked at 18 or at
// 26 MiB. The traced run times vxcc.Compile (compileFacts); archive_write
// has it inside its op.
func buildDecoders() ([]*decoder, error) {
	var out []*decoder
	for i, name := range decoderNames {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("codec %s not registered", name)
		}
		d := &decoder{idx: i, codec: c}
		var err error
		if d.elf, err = c.DecoderELF(); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// compileFacts times one vxcc.Compile per decoder. Its output and the
// embedded ELF are not byte-identical today — vxcc lays globals out in map
// order, so every compile places data differently — but they must agree
// in size, which is what Table 2 and vxcc.elf_bytes report.
func compileFacts(acc *layerAcc, ds []*decoder) error {
	for _, d := range ds {
		name := d.codec.Name
		start := time.Now()
		b, err := vxcc.Compile(vxcc.Options{}, d.codec.Sources...)
		if err != nil {
			return fmt.Errorf("vxcc %s: %w", name, err)
		}
		acc.set("vxcc.compile_ms."+name, ms(time.Since(start)))
		acc.set("vxcc.elf_bytes."+name, float64(len(d.elf)))
		if len(b.ELF) != len(d.elf) {
			return fmt.Errorf("vxcc %s: two compiles of the same sources differ in size (%d and %d bytes)", name, len(b.ELF), len(d.elf))
		}
	}
	return nil
}

// addStream encodes raw with the decoder's native encoder and fixes the
// expected output without involving the VM: the raw input for lossless
// codecs, the native Go decoder's output for lossy ones.
func (in *inputSet) addStream(d *decoder, label string, raw []byte, mode uint32) (*stream, error) {
	var enc bytes.Buffer
	start := time.Now()
	if err := d.codec.Encode(&enc, raw); err != nil {
		return nil, fmt.Errorf("%s encode: %w", d.codec.Name, err)
	}
	in.encodeNS[d.idx] += time.Since(start)
	var nat bytes.Buffer
	start = time.Now()
	if err := d.codec.Decode(&nat, bytes.NewReader(enc.Bytes())); err != nil {
		return nil, fmt.Errorf("%s native decode: %w", d.codec.Name, err)
	}
	in.nativeNS[d.idx] += time.Since(start)
	in.rawBytes[d.idx] += int64(len(raw))
	if !d.codec.Lossy && !bytes.Equal(nat.Bytes(), raw) {
		return nil, fmt.Errorf("%s: native round trip is not lossless", d.codec.Name)
	}
	s := &stream{
		id: d.codec.Name + "/" + label, dec: d, raw: raw, enc: enc.Bytes(),
		want: sha256.Sum256(nat.Bytes()), wantLen: nat.Len(), mode: mode,
	}
	in.streams = append(in.streams, s)
	return s, nil
}

// subSeed derives the seed of the i-th generated input.
func subSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// bulkInputs is the Fig.-7-sized set: one stream per decoder (256 KiB
// text, a 256x256 BMP, 88200 stereo frames of WAV).
func bulkInputs(seed int64) (*inputSet, error) {
	ds, err := buildDecoders()
	if err != nil {
		return nil, err
	}
	in := &inputSet{decoders: ds}
	sizes := map[string]int{"text": 256 << 10, "image": 3 * 256 * 256, "audio": 4 * 88200}
	raws := map[string][]byte{}
	for i, kind := range []string{"text", "image", "audio"} {
		raws[kind] = genRaw(kind, sizes[kind], subSeed(seed, i))
	}
	for _, d := range ds {
		if _, err := in.addStream(d, "bulk", raws[rawKind(d.codec)], 0644); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// smallModes are the permission bits small entries draw from; a change of
// mode between two streams of one decoder forces the §2.4 pristine reset.
var smallModes = []uint32{0644, 0600, 0755}

// structureSeed fixes the shape of a ladder set — the order of streams and
// the mode each carries — for every seed. Which streams follow a change of
// mode decides which pay a reset and a re-JIT, and with the shape drawn
// from the run's seed that alone moved small_streams' ops_per_s and p50_ms
// by 15% between seeds, reproducibly. The seed decides the contents.
const structureSeed = 20050101

// ladderInputs makes perDecoder streams for every decoder with raw sizes
// on a fixed log-spaced ladder from lo to hi bytes, modes dealt evenly and
// the order shuffled, both by structureSeed. The ladder, not a random
// draw, keeps total bytes equal across seeds; every stream's contents come
// from the seed.
func ladderInputs(seed int64, perDecoder, lo, hi int) (*inputSet, error) {
	ds, err := buildDecoders()
	if err != nil {
		return nil, err
	}
	in := &inputSet{decoders: ds}
	rng := rand.New(rand.NewSource(structureSeed))
	n := 0
	for _, d := range ds {
		// Modes are dealt round-robin from a drawn start, so every
		// decoder sees each mode equally often.
		firstMode := rng.Intn(len(smallModes))
		for i := 0; i < perDecoder; i++ {
			size := lo
			if perDecoder > 1 {
				size = int(float64(lo) * math.Pow(float64(hi)/float64(lo), float64(i)/float64(perDecoder-1)))
			}
			raw := genRaw(rawKind(d.codec), size, subSeed(seed, n))
			n++
			mode := smallModes[(i+firstMode)%len(smallModes)]
			if _, err := in.addStream(d, fmt.Sprintf("%02d", i), raw, mode); err != nil {
				return nil, err
			}
		}
	}
	rng.Shuffle(len(in.streams), func(i, j int) { in.streams[i], in.streams[j] = in.streams[j], in.streams[i] })
	return in, nil
}

// digests returns the SHA-256 of every encoded stream, the form in which
// the product sees the input, keyed by a name that does not depend on the
// seed. Decoder ELFs are the product's output, not an input, and are left
// out (see buildDecoders).
func (in *inputSet) digests() map[string]string {
	out := map[string]string{}
	for _, s := range in.streams {
		h := sha256.Sum256(s.enc)
		out[s.id+".enc"] = hex.EncodeToString(h[:])
	}
	return out
}

// pinnedSeed is the seed whose input digests are committed in
// testdata/inputs.sha256.
const pinnedSeed = 1

// pinFile locates testdata/inputs.sha256 next to the benchmark's sources;
// the benchmark always runs from the repository root.
func pinFile() string { return filepath.Join("benchmark", "testdata", "inputs.sha256") }

// checkPins compares a workload's digests with the committed ones. The
// file holds "<sha256>  <workload>/<input>" lines. An input missing from
// the file is a mismatch too: the workload's input set has changed.
func checkPins(workload string, got map[string]string) error {
	f, err := os.Open(pinFile())
	if err != nil {
		return fmt.Errorf("input pins: %w", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if name, ok := strings.CutPrefix(fields[1], workload+"/"); ok {
			want[name] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("input pins: %w", err)
	}
	if len(want) != len(got) {
		return fmt.Errorf("input pins: %s has %d inputs, %s pins %d (regenerate with -write-pins if the change is intended)",
			workload, len(got), pinFile(), len(want))
	}
	for name, sum := range got {
		if want[name] != sum {
			return fmt.Errorf("input pins: %s/%s is %s, pinned %s: internal/corpus or an encoder changed the workload",
				workload, name, sum, want[name])
		}
	}
	return nil
}

// pinLines renders a workload's digests in the pin-file format.
func pinLines(workload string, got map[string]string) []string {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("%s  %s/%s", got[name], workload, name))
	}
	return lines
}
