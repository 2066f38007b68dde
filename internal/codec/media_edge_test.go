package codec_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/codec/adpcm"
	"vxa/internal/codec/dctimg"
	"vxa/internal/codec/haarimg"
	"vxa/internal/codec/imagec"
	"vxa/internal/corpus"
	"vxa/internal/vm"
	"vxa/internal/wav"
	"vxa/internal/zipfile"
)

// The media decoders' VXC sources (adpcm, dctimg, haarimg and the shared
// imagec) are written as straight-line code: masked arithmetic in place
// of data-dependent branches, output stored into the runtime's buffer a
// word or a row at a time. The tests here hold them to two references on
// streams chosen for their edges: the Go decoder, wherever it accepts a
// stream, and the decoder an archive written before that rewrite carries,
// on every stream, down to the exit code, the diagnostic and the output
// written before a failure.

var (
	archivedOnce sync.Once
	archivedELF  map[string][]byte
	archivedErr  error
)

// archivedDecoder returns the decoder the witness archive
// (witness_test.go) embeds for a codec. Its dct, haar and adpcm decoders
// are, byte for byte, what the media sources compiled to before they were
// rewritten: decoder_sha256.json pinned the same SHA-256 until then
// (89ad7d11…, 75f9c97e…, 43d1e309…).
func archivedDecoder(t *testing.T, name string) []byte {
	t.Helper()
	archivedOnce.Do(func() {
		archive, err := os.ReadFile(witnessArchive)
		if err != nil {
			archivedErr = err
			return
		}
		zr, err := zipfile.NewReader(archive)
		if err != nil {
			archivedErr = err
			return
		}
		archivedELF = make(map[string][]byte)
		for i := range zr.Files {
			f := &zr.Files[i]
			if f.VXA == nil {
				continue
			}
			elf, err := zr.Decoder(f.VXA.DecoderOffset)
			if err != nil {
				archivedErr = err
				return
			}
			archivedELF[f.VXA.Codec] = elf
		}
	})
	if archivedErr != nil {
		t.Fatal(archivedErr)
	}
	elf, ok := archivedELF[name]
	if !ok {
		t.Fatalf("the witness archive carries no %s decoder", name)
	}
	return elf
}

// decodeOutcome is everything a decoder run shows of itself.
type decodeOutcome struct {
	out    []byte // what it wrote, also before a failure
	code   int32  // its exit code when it failed by exiting
	stderr string
	trap   string // the sandbox trap, when it trapped
	fuel   bool   // the trap was the fuel running out
}

// runDecoder runs one stream in a fresh VM with the default decoder
// memory (codec.DefaultDecoderMemSize).
func runDecoder(t *testing.T, name string, elf, stream []byte) decodeOutcome {
	t.Helper()
	var out bytes.Buffer
	_, err := codec.RunDecoderELFToStats(context.Background(), name, elf,
		bytes.NewReader(stream), int64(len(stream)), &out, vm.Config{})
	o := decodeOutcome{out: out.Bytes()}
	if err != nil {
		var de *codec.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: %v", name, err)
		}
		o.code, o.stderr = de.Code, de.Stderr
		if de.Trap != nil {
			var tr *vm.Trap
			o.trap, o.fuel = de.Trap.Error(), errors.As(de.Trap, &tr) && tr.Kind == vm.TrapFuel
		}
	}
	return o
}

func mediaCodec(t *testing.T, name string) *codec.Codec {
	t.Helper()
	c, ok := codec.ByName(name)
	if !ok {
		t.Fatalf("codec %s not registered", name)
	}
	return c
}

// checkMedia decodes one stream with the codec's Go decoder, its VXA
// decoder and the archived one, and returns the VXA decoder's output.
// wantErr is the diagnostic the stream must be rejected with, or "" for a
// stream that must decode.
func checkMedia(t *testing.T, name, what string, stream []byte, wantErr string) []byte {
	t.Helper()
	return checkOutcome(t, name, what, stream, sameAsArchived(t, name, what, stream), wantErr)
}

// checkOutcome holds the VXA decoder's outcome on one stream to the
// codec's Go decoder's, as checkMedia does, without the archived
// decoder: for the streams the rewritten decoder now rejects where the
// archived one decoded them.
func checkOutcome(t *testing.T, name, what string, stream []byte, got decodeOutcome, wantErr string) []byte {
	t.Helper()
	var ref bytes.Buffer
	goErr := mediaCodec(t, name).Decode(&ref, bytes.NewReader(stream))
	if got.trap != "" {
		t.Fatalf("%s, %s: trapped: %s", name, what, got.trap)
	}
	if wantErr == "" {
		if goErr != nil || got.code != 0 {
			t.Fatalf("%s, %s: Go decoder %v, VXA decoder exit %d %q", name, what, goErr, got.code, got.stderr)
		}
		if !bytes.Equal(got.out, ref.Bytes()) {
			t.Fatalf("%s, %s: the VXA decoder's %d bytes differ from the Go decoder's %d", name, what, len(got.out), ref.Len())
		}
		return got.out
	}
	if goErr == nil {
		t.Fatalf("%s, %s: the Go decoder accepts a stream the VXA decoder must reject", name, what)
	}
	if got.code != 101 || got.stderr != wantErr+"\n" {
		t.Fatalf("%s, %s: exit %d %q, want exit 101 %q", name, what, got.code, got.stderr, wantErr)
	}
	return nil
}

// sameAsArchived runs one stream through the codec's VXA decoder and the
// archived one, requires the two outcomes to be identical, and returns
// the first.
func sameAsArchived(t *testing.T, name, what string, stream []byte) decodeOutcome {
	t.Helper()
	elf, err := mediaCodec(t, name).DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	got := runDecoder(t, name, elf, stream)
	old := runDecoder(t, name, archivedDecoder(t, name), stream)
	if got.code != old.code || got.stderr != old.stderr || got.trap != old.trap || !bytes.Equal(got.out, old.out) {
		t.Fatalf("%s, %s: exit %d %q trap %q after %d bytes; the archived decoder: exit %d %q trap %q after %d bytes",
			name, what, got.code, got.stderr, got.trap, len(got.out), old.code, old.stderr, old.trap, len(old.out))
	}
	return got
}

// adpcmStream is a VXA1 header and the given payload.
func adpcmStream(channels int, frames uint32, payload []byte) []byte {
	s := make([]byte, 14, 14+len(payload))
	copy(s, "VXA1")
	binary.LittleEndian.PutUint16(s[4:], uint16(channels))
	binary.LittleEndian.PutUint32(s[6:], 44100)
	binary.LittleEndian.PutUint32(s[10:], frames)
	return append(s, payload...)
}

func adpcmEncode(t *testing.T, snd *wav.Sound) []byte {
	t.Helper()
	var enc bytes.Buffer
	if err := adpcm.Encode(&enc, wav.Encode(snd)); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestADPCMEdges: channel counts 1, 2, 3 and 8 with odd and even sample
// totals, empty streams, a code sequence that drives every clamp both
// ways, and every way a stream can be cut short or malformed.
func TestADPCMEdges(t *testing.T) {
	for _, tc := range []struct{ channels, frames int }{
		{1, 1}, {1, 2}, {1, 777}, {2, 1000}, {2, 333}, {3, 5}, {3, 101}, {8, 257}, {8, 1},
	} {
		snd := corpus.Audio(tc.frames, tc.channels, int64(tc.frames))
		checkMedia(t, "adpcm", "corpus audio", adpcmEncode(t, snd), "")
	}
	for _, ch := range []int{1, 2, 8} {
		checkMedia(t, "adpcm", "frames=0", adpcmStream(ch, 0, nil), "")
	}

	// A full-scale square wave through the encoder: the predictor swings
	// rail to rail, the step index runs up on every edge and back down on
	// every flat.
	sq := &wav.Sound{Channels: 2, SampleRate: 44100, Samples: make([]int16, 2*3001)}
	for i := range sq.Samples {
		if (i/2)/97%2 == 0 {
			sq.Samples[i] = math.MaxInt16
		} else {
			sq.Samples[i] = math.MinInt16
		}
	}
	checkMedia(t, "adpcm", "square wave", adpcmEncode(t, sq), "")

	// The same clamps, each certain to fire in each of one or two
	// channels (a byte's two codes go to the same channel or to both): code
	// 7 adds 8 to the index, so eleven of them take it from 0 to 88 and the
	// twelfth would pass it; at index 88 (step 32767) a code 7 adds 61 436
	// to a prediction that is not negative, past 32767, and two codes 15
	// take 61 436 each off it, past -32768; then 89 codes 0, -1 each, take
	// the index from 88 to 0 and below.
	var clamps []byte
	clamps = append(clamps, bytes.Repeat([]byte{0x77}, 14)...)
	clamps = append(clamps, bytes.Repeat([]byte{0xFF}, 4)...)
	clamps = append(clamps, bytes.Repeat([]byte{0x00}, 100)...)
	clamps = append(clamps, 0x07) // an odd total: the high nibble is no sample
	for _, ch := range []int{1, 2} {
		total := 2*len(clamps) - 1
		checkMedia(t, "adpcm", "every clamp", adpcmStream(ch, uint32(total/ch), clamps[:(total/ch*ch+1)/2]), "")
	}

	// Flush boundaries: 64 KiB of output is one flush of the runtime's
	// buffer; a payload that ends on it, one that passes it, and both cut
	// short after it (the bytes written before the failure must match).
	long := corpus.Audio(16373*2+5, 1, 9)
	enc := adpcmEncode(t, long)
	checkMedia(t, "adpcm", "past one flush", enc, "")
	checkMedia(t, "adpcm", "cut after one flush", enc[:len(enc)-2], "unexpected end of input")
	exact := adpcmStream(1, 2*16373, bytes.Repeat([]byte{0x31}, 16373))
	checkMedia(t, "adpcm", "ends on a flush", exact, "")

	stereo := adpcmEncode(t, corpus.Audio(400, 2, 4))
	for _, cut := range []int{0, 3, 4, 5, 9, 13, 14, 15, len(stereo) / 2, len(stereo) - 1} {
		checkMedia(t, "adpcm", "truncated", stereo[:cut], "unexpected end of input")
	}
	bad := append([]byte{}, stereo...)
	bad[3] = '2'
	checkMedia(t, "adpcm", "bad magic", bad, "not a VXA1 stream")
	checkMedia(t, "adpcm", "no channels", adpcmStream(0, 10, make([]byte, 5)), "bad channel count")
	checkMedia(t, "adpcm", "nine channels", adpcmStream(9, 10, make([]byte, 45)), "bad channel count")
	checkMedia(t, "adpcm", "negative frames", adpcmStream(1, 1<<31, make([]byte, 5)), "bad frame count")

	// A frame count the Go decoder refuses (over 1<<28) whose sample
	// total wraps in 32 bits: to zero, to a negative odd number, to a
	// small positive one; or whose total is the largest int, one short of
	// wrapping. The archived decoder read the wrapped total and decoded
	// a few samples or none; the VXC decoder refuses every count the Go
	// decoder refuses. At the largest count both accept, eight channels
	// give a total one past the largest int: the VXC decoder counts it
	// unsigned and runs out of input, as the Go decoder does.
	elf, err := mediaCodec(t, "adpcm").DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		channels int
		frames   uint32
		wantErr  string
	}{
		{8, 1 << 29, "bad frame count"}, {3, 0x2AAAAAAB, "bad frame count"},
		{3, 0x55555557, "bad frame count"}, {1, 0x7FFFFFFF, "bad frame count"},
		{8, 1 << 28, "unexpected end of input"},
	} {
		stream := adpcmStream(tc.channels, tc.frames, make([]byte, 16))
		checkOutcome(t, "adpcm", "a sample total that wraps", stream, runDecoder(t, "adpcm", elf, stream), tc.wantErr)
	}
}

// imageStream is a VXJ1 or VXW1 header, its parameter bytes, and a
// coefficient stream.
func imageStream(magic string, w, h int, params []byte, coeffs []byte) []byte {
	s := []byte(magic)
	s = binary.LittleEndian.AppendUint16(s, uint16(w))
	s = binary.LittleEndian.AppendUint16(s, uint16(h))
	s = append(s, params...)
	return append(s, coeffs...)
}

func encodeImage(t *testing.T, name string, im *bmp.Image, param int) []byte {
	t.Helper()
	var enc bytes.Buffer
	var err error
	if name == "dct" {
		err = dctimg.EncodeQuality(&enc, bmp.Encode(im), param)
	} else {
		err = haarimg.EncodeParams(&enc, bmp.Encode(im), 1+param%4, int32(1+param*37%255))
	}
	if err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// saturated is a checkerboard of pure colours in one- and two-pixel
// cells: edges no lossy coder reproduces without overshoot.
func saturated(w, h int) *bmp.Image {
	colours := [][3]byte{{255, 0, 0}, {0, 255, 0}, {0, 0, 255}, {255, 255, 255}, {0, 0, 0}, {255, 255, 0}, {0, 255, 255}}
	im := bmp.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := colours[(x/(1+y%2)+y*3)%len(colours)]
			im.Set(x, y, c[0], c[1], c[2])
		}
	}
	return im
}

// yccTargets are (Y, Cb, Cr) triples whose conversion leaves [0, 255]
// both ways in every channel, by imagec's integer transform: Y alone at
// -40 and 300; at Y 128, Cr 255 puts red at 306 and Cr 0 at -52, Cb 255
// puts blue at 353 and Cb 0 at -99, Cb and Cr both 255 put green at -6
// and both 0 at 264.
var yccTargets = [][3]int32{{-40, 128, 128}, {300, 128, 128}, {128, 0, 255}, {128, 255, 0}, {128, 255, 255}, {128, 0, 0}}

// TestYCCTargetsLeaveRange checks yccTargets' claim against the formula,
// so that the clamp tests below cannot quietly stop clamping.
func TestYCCTargetsLeaveRange(t *testing.T) {
	var low, high [4]bool
	for _, c := range yccTargets {
		y, cb, cr := c[0], c[1]-128, c[2]-128
		for i, v := range []int32{y, y + (359*cr)>>8, y - (88*cb+183*cr)>>8, y + (454*cb)>>8} {
			low[i] = low[i] || v < 0
			high[i] = high[i] || v > 255
		}
	}
	if low != [4]bool{true, true, true, true} || high != [4]bool{true, true, true, true} {
		t.Fatalf("below 0: %v, above 255: %v (Y, R, G, B)", low, high)
	}
}

// TestImageEdges: both image decoders on widths 1-9 (every BMP row
// padding), saturated colours, crafted planes that clamp every channel
// both ways, zero runs across planes, the longest varints, and every
// malformed coefficient stream.
func TestImageEdges(t *testing.T) {
	for _, name := range []string{"dct", "haar"} {
		for w := 1; w <= 9; w++ {
			h := (w*5)%9 + 1
			checkMedia(t, name, "corpus image", encodeImage(t, name, corpus.Image(w, h, int64(w)), 10*w), "")
			checkMedia(t, name, "saturated image", encodeImage(t, name, saturated(w, h), w), "")
		}
		checkMedia(t, name, "saturated image", encodeImage(t, name, saturated(37, 21), 1), "")
		// Over 64 KiB of 428-byte rows, two bytes of padding each: 153
		// rows after the header leave 426 bytes of the runtime's buffer,
		// two short of a row, so the row flushes first; rows after the
		// flush land on what the buffer held before, so their padding is
		// zero only if the decoder writes it.
		checkMedia(t, name, "rows past a flush", encodeImage(t, name, corpus.Image(142, 160, 2), 50), "")
	}

	// Haar, one level: each 2x2 block of the image is its LL coefficient,
	// so the planes hold yccTargets exactly. DCT at quality 100 (every
	// step 1): a DC-only block is its DC over eight, plus 128.
	var hw, dw imagec.CoeffWriter
	for ch := 0; ch < 3; ch++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 12; x++ {
				v := int32(0)
				if y == 0 && x < 6 {
					v = yccTargets[x][ch]
				}
				hw.Put(v)
			}
		}
		prev := int32(0)
		for _, c := range yccTargets {
			dc := 8 * (c[ch] - 128)
			dw.Put(dc - prev)
			prev = dc
			for i := 1; i < 64; i++ {
				dw.Put(0)
			}
		}
	}
	haarClamps := imageStream("VXW1", 12, 2, []byte{1, 16}, hw.Bytes())
	dctClamps := imageStream("VXJ1", 48, 8, []byte{100}, dw.Bytes())
	for _, tc := range []struct {
		name   string
		stream []byte
	}{{"haar", haarClamps}, {"dct", dctClamps}} {
		out := checkMedia(t, tc.name, "every clamp", tc.stream, "")
		var lo, hi [3]bool
		im, err := bmp.Decode(out)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				r, g, b := im.At(x, y)
				for i, v := range []byte{r, g, b} {
					lo[i] = lo[i] || v == 0
					hi[i] = hi[i] || v == 255
				}
			}
		}
		if lo != [3]bool{true, true, true} || hi != [3]bool{true, true, true} {
			t.Errorf("%s: clamped to 0: %v, to 255: %v (R, G, B)", tc.name, lo, hi)
		}
	}

	// Crafted coefficient streams, 8x8 and one Haar level.
	zrun := func(n uint32) []byte { return append([]byte{0}, uvarint(n)...) }
	coeff := func(v int32) []byte { return append([]byte{1}, uvarint(imagec.Zigzag(v))...) }
	for _, tc := range []struct {
		what, want string
		coeffs     []byte
	}{
		{"one zero run over all three planes", "", zrun(3 * 64)},
		{"a zero run longer than the image", "", zrun(1<<31 - 1)},
		{"five-byte varints", "", cat(coeff(-1<<30), coeff(1<<30-1), zrun(3*64-2))},
		{"a varint of six bytes", "varint too long", []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
		{"token 2", "bad coefficient token", cat(zrun(5), []byte{2, 1})},
		{"token 255", "bad coefficient token", []byte{0xFF}},
		{"an empty zero run", "empty zero run", cat(coeff(3), zrun(0))},
		{"cut in a token", "unexpected end of input", zrun(3*64 - 1)},
		{"cut in a varint", "unexpected end of input", cat(zrun(7), []byte{1, 0x80})},
		{"no coefficients", "unexpected end of input", nil},
	} {
		checkMedia(t, "dct", tc.what, imageStream("VXJ1", 8, 8, []byte{50}, tc.coeffs), tc.want)
		checkMedia(t, "haar", tc.what, imageStream("VXW1", 8, 8, []byte{1, 9}, tc.coeffs), tc.want)
	}

	// Malformed headers.
	dct := encodeImage(t, "dct", corpus.Image(5, 7, 3), 75)
	haar := encodeImage(t, "haar", corpus.Image(5, 7, 3), 2)
	for _, cut := range []int{0, 3, 5, 8, 9} {
		checkMedia(t, "dct", "truncated header", dct[:cut], "unexpected end of input")
		checkMedia(t, "haar", "truncated header", haar[:cut], "unexpected end of input")
	}
	checkMedia(t, "dct", "truncated", dct[:len(dct)-1], "unexpected end of input")
	checkMedia(t, "haar", "truncated", haar[:len(haar)-1], "unexpected end of input")
	checkMedia(t, "dct", "bad magic", imageStream("VXJ2", 8, 8, []byte{50}, zrun(192)), "not a VXJ1 stream")
	checkMedia(t, "haar", "bad magic", imageStream("VXW2", 8, 8, []byte{1, 9}, zrun(192)), "not a VXW1 stream")
	checkMedia(t, "dct", "zero width", imageStream("VXJ1", 0, 8, []byte{50}, zrun(192)), "bad dimensions")
	checkMedia(t, "haar", "too tall", imageStream("VXW1", 8, 4097, []byte{1, 9}, zrun(192)), "bad dimensions")
	checkMedia(t, "dct", "quality 0", imageStream("VXJ1", 8, 8, []byte{0}, zrun(192)), "bad quality")
	checkMedia(t, "dct", "quality 101", imageStream("VXJ1", 8, 8, []byte{101}, zrun(192)), "bad quality")
	checkMedia(t, "haar", "seven levels", imageStream("VXW1", 8, 8, []byte{7, 9}, zrun(192)), "bad parameters")
	checkMedia(t, "haar", "step 0", imageStream("VXW1", 8, 8, []byte{1, 0}, zrun(192)), "bad parameters")
}

func uvarint(v uint32) []byte {
	var out []byte
	for v >= 0x80 {
		out = append(out, byte(v)|0x80)
		v >>= 7
	}
	return append(out, byte(v))
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzMediaVXA: a stream the adpcm, dct or haar encoder writes from any
// input, the VXA decoder decodes to the Go decoder's output; with one
// byte changed it ends in success, exit 101 or a fuel trap, and where
// both decoders accept it they agree.
func FuzzMediaVXA(f *testing.F) {
	f.Add([]byte("a media stream"), uint8(0), uint8(1), uint8(0), uint8(0), uint16(20), byte(0x10))
	f.Add(bytes.Repeat([]byte{0xF0, 0x7F, 0x00, 0x80}, 200), uint8(0), uint8(2), uint8(0), uint8(0), uint16(11), byte(0x80))
	f.Add([]byte{255, 0, 0, 0, 255, 0, 0, 0, 255}, uint8(1), uint8(8), uint8(5), uint8(3), uint16(9), byte(1))
	f.Add([]byte{0, 255, 255, 255}, uint8(2), uint8(11), uint8(6), uint8(200), uint16(12), byte(0x40))
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 2000)
	rng.Read(noise)
	f.Add(noise, uint8(1), uint8(40), uint8(29), uint8(90), uint16(300), byte(0x04))
	f.Add(noise, uint8(2), uint8(33), uint8(47), uint8(17), uint16(500), byte(0x21))
	f.Fuzz(func(t *testing.T, data []byte, kind, a, b, q uint8, pos uint16, flip byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		name := [...]string{"adpcm", "dct", "haar"}[kind%3]
		var stream []byte
		if name == "adpcm" {
			channels := 1 + int(a)%8
			snd := &wav.Sound{Channels: channels, SampleRate: 8000, Samples: make([]int16, len(data)/2/channels*channels)}
			for i := range snd.Samples {
				snd.Samples[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
			}
			stream = adpcmEncode(t, snd)
		} else {
			im := bmp.New(1+int(a)%48, 1+int(b)%48)
			for i := 0; len(data) > 0 && i < im.W*im.H; i++ {
				im.Set(i%im.W, i/im.W, data[3*i%len(data)], data[(3*i+1)%len(data)], data[(3*i+2)%len(data)])
			}
			stream = encodeImage(t, name, im, int(q)%100+1)
		}
		c := mediaCodec(t, name)
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := c.Decode(&ref, bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
		if got := runDecoder(t, name, elf, stream); got.code != 0 || got.trap != "" || !bytes.Equal(got.out, ref.Bytes()) {
			t.Fatalf("%s: exit %d %q trap %q, %d bytes; the Go decoder's %d", name, got.code, got.stderr, got.trap, len(got.out), ref.Len())
		}
		if flip == 0 {
			return
		}
		bad := append([]byte{}, stream...)
		bad[int(pos)%len(bad)] ^= flip
		got := runDecoder(t, name, elf, bad)
		if got.trap != "" && !got.fuel || got.trap == "" && got.code != 0 && got.code != 101 {
			t.Fatalf("%s, mutated stream: exit %d %q trap %q", name, got.code, got.stderr, got.trap)
		}
		if got.code != 0 || got.trap != "" || !goMayDecode(name, bad) {
			return
		}
		ref.Reset()
		if c.Decode(&ref, bytes.NewReader(bad)) == nil && !bytes.Equal(got.out, ref.Bytes()) {
			t.Fatalf("%s, mutated stream: the VXA decoder's %d bytes differ from the Go decoder's %d", name, len(got.out), ref.Len())
		}
	})
}

// goMayDecode is false for a VXA1 header whose sample count the payload
// cannot hold: the Go decoder rejects it, but only after allocating the
// whole payload the header claims, up to a gigabyte.
func goMayDecode(name string, stream []byte) bool {
	if name != "adpcm" || len(stream) < 14 {
		return true
	}
	total := int64(binary.LittleEndian.Uint16(stream[4:])) * int64(binary.LittleEndian.Uint32(stream[10:]))
	return (total+1)/2 <= int64(len(stream)-14)
}
