package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"errors"
	"io"
	"math/rand"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vm"
)

// blockWriter writes raw DEFLATE blocks bit by bit, LSB first, so that a
// test can build the streams an encoder seldom or never emits.
type blockWriter struct {
	out  []byte
	bits uint64
	n    uint
}

func (w *blockWriter) put(v uint32, n uint) {
	w.bits |= uint64(v) << w.n
	w.n += n
	for w.n >= 8 {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
		w.n -= 8
	}
}

// code writes a Huffman code, which the stream carries first bit first.
func (w *blockWriter) code(c uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.put(c>>uint(i)&1, 1)
	}
}

// bitLen is how many bits have been written.
func (w *blockWriter) bitLen() int { return 8*len(w.out) + int(w.n) }

func (w *blockWriter) flush() []byte {
	if w.n > 0 {
		w.out = append(w.out, byte(w.bits))
		w.bits, w.n = 0, 0
	}
	return w.out
}

// stored writes a stored block.
func (w *blockWriter) stored(final bool, data []byte) {
	w.put(b2u(final), 1)
	w.put(0, 2)
	if w.n > 0 {
		w.put(0, 8-w.n)
	}
	w.put(uint32(len(data)), 16)
	w.put(uint32(^uint16(len(data))), 16)
	for _, b := range data {
		w.put(uint32(b), 8)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// canonical returns the canonical code of every symbol with a length.
func canonical(lengths []int) []uint32 {
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	var next [16]uint32
	code := uint32(0)
	for l := 1; l < 16; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	codes := make([]uint32, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// complete gives the symbols syms lengths that make a complete code of n
// symbols (compress/flate accepts no other): 2^L - k of them one bit
// shorter than the other 2k - 2^L, for k symbols and 2^L the power of
// two at or above k.
func complete(n int, syms []int) []int {
	k, l := len(syms), 0
	for 1<<l < k {
		l++
	}
	lengths := make([]int, n)
	for i, s := range syms {
		if i < 1<<l-k {
			lengths[s] = l - 1
		} else {
			lengths[s] = l
		}
	}
	return lengths
}

// allLiterals is every literal and then the symbols more.
func allLiterals(more ...int) []int {
	syms := make([]int, 0, 256+len(more))
	for i := 0; i < 256; i++ {
		syms = append(syms, i)
	}
	return append(syms, more...)
}

// tables is one block's literal/length and distance codes.
type tables struct {
	lit, dist         []int
	litCode, distCode []uint32
}

func newTables(lit, dist []int) *tables {
	return &tables{lit: lit, dist: dist, litCode: canonical(lit), distCode: canonical(dist)}
}

// fixedTables are RFC 1951's fixed codes.
func fixedTables() *tables {
	lit := make([]int, 288)
	for i := range lit {
		switch {
		case i < 144:
			lit[i] = 8
		case i < 256:
			lit[i] = 9
		case i < 280:
			lit[i] = 7
		default:
			lit[i] = 8
		}
	}
	dist := make([]int, 30)
	for i := range dist {
		dist[i] = 5
	}
	return newTables(lit, dist)
}

var (
	lenBase  = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = []uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	dstBase  = []int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	dstExtra = []uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

func (w *blockWriter) sym(t *tables, s int) { w.code(t.litCode[s], uint(t.lit[s])) }

// match writes a length/distance pair; the length code 284 carries 227-257
// and 285 only 258, as RFC 1951 reads them.
func (w *blockWriter) match(t *tables, length, dist int) {
	l := 28
	if length < 258 {
		for l = 27; lenBase[l] > length; l-- {
		}
	}
	w.sym(t, 257+l)
	w.put(uint32(length-lenBase[l]), lenExtra[l])
	d := 29
	for dstBase[d] > dist {
		d--
	}
	w.code(t.distCode[d], uint(t.dist[d]))
	w.put(uint32(dist-dstBase[d]), dstExtra[d])
}

// header writes a block header; for a dynamic block it also writes the
// code lengths, each as itself in a code-length code of sixteen 4-bit
// codes.
func (w *blockWriter) header(final bool, t *tables, fixed bool) {
	w.put(b2u(final), 1)
	if fixed {
		w.put(1, 2)
		return
	}
	w.put(2, 2)
	w.put(uint32(len(t.lit)-257), 5)
	w.put(uint32(len(t.dist)-1), 5)
	w.put(19-4, 4)
	order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	for _, s := range order {
		if s < 16 {
			w.put(4, 3)
		} else {
			w.put(0, 3)
		}
	}
	for _, l := range append(append([]int{}, t.lit...), t.dist...) {
		w.code(uint32(l), 4)
	}
}

func deflateCodec(t *testing.T) *codec.Codec {
	t.Helper()
	c, ok := codec.ByName("deflate")
	if !ok {
		t.Fatal("deflate codec not registered")
	}
	return c
}

// checkAgainstFlate decodes a raw stream with the VXC inflate and with
// compress/flate and requires both to succeed with output want.
func checkAgainstFlate(t *testing.T, stream, want []byte) {
	t.Helper()
	ref, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatalf("compress/flate rejects the stream: %v", err)
	}
	if !bytes.Equal(ref, want) {
		t.Fatalf("compress/flate decodes %d bytes, want %d: the test built a wrong stream", len(ref), len(want))
	}
	got, err := deflateCodec(t).RunVXA(stream, vm.Config{})
	if err != nil {
		t.Fatalf("vxa inflate: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("vxa inflate decodes %d bytes, differing from compress/flate's %d", len(got), len(want))
	}
}

// TestInflateBlockMix: a stored, a fixed and a dynamic block in one
// stream, then a stored block straight after a compressed one (alignbyte
// with whole bytes in the bit reader), then compress/flate's own blocks.
func TestInflateBlockMix(t *testing.T) {
	var w blockWriter
	var want []byte
	stored := []byte("stored block first ")
	w.stored(false, stored)
	want = append(want, stored...)

	ft := fixedTables()
	w.header(false, ft, true)
	for _, b := range []byte("fixed abcabcabc") {
		w.sym(ft, int(b))
	}
	w.match(ft, 6, 3)
	w.sym(ft, 256)
	want = append(want, "fixed abcabcabcabcabc"...)

	dt := newTables(complete(257+29, allLiterals(256, 257+5)), []int{1, 1})
	w.header(false, dt, false)
	for _, b := range []byte("dynamic ") {
		w.sym(dt, int(b))
	}
	w.match(dt, 8, 2) // length code 262, distance code 1
	w.sym(dt, 256)
	want = append(want, "dynamic c c c c "...)

	w.stored(false, []byte("right after"))
	want = append(want, "right after"...)
	w.stored(false, nil)
	head := w.flush()

	text := bytes.Repeat([]byte("the tail is compress/flate's own, dynamic blocks. "), 300)
	var tail bytes.Buffer
	fw, _ := flate.NewWriter(&tail, flate.BestCompression)
	fw.Write(text)
	fw.Close()
	checkAgainstFlate(t, append(append([]byte{}, head...), tail.Bytes()...), append(want, text...))
}

// TestInflateLongCodes: literal codes of 10 to 15 bits, which the 9-bit
// table sends down the slow path, beside short ones.
func TestInflateLongCodes(t *testing.T) {
	// 'y' 1 bit, end of block 2, 'a'.. 3 to 15 and 'z' 15: a complete
	// code with every length in use.
	lit := make([]int, 257+29)
	lengths := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for i, l := range lengths {
		lit['a'+i] = l
	}
	lit['y'], lit[256], lit['z'] = 1, 2, 15
	dt := newTables(lit, []int{1})
	rng := rand.New(rand.NewSource(1))
	var w blockWriter
	w.header(true, dt, false)
	var want []byte
	syms := []int{'y', 'z'}
	for i := range lengths {
		syms = append(syms, 'a'+i)
	}
	long := 0
	for i := 0; i < 3000; i++ {
		s := syms[rng.Intn(len(syms))]
		if lit[s] > 9 {
			long++
		}
		w.sym(dt, s)
		want = append(want, byte(s))
	}
	w.sym(dt, 256)
	if long == 0 {
		t.Fatal("no long code written")
	}
	checkAgainstFlate(t, w.flush(), want)
}

// TestInflateFarMatch: the longest match at the farthest distance, 258
// bytes from 32 768 back, which reaches across the window's wrap.
func TestInflateFarMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hist := make([]byte, 40000)
	rng.Read(hist)
	var w blockWriter
	w.stored(false, hist[:32768])
	w.stored(false, hist[32768:])
	ft := fixedTables()
	w.header(true, ft, true)
	w.match(ft, 258, 32768)
	w.match(ft, 258, 32768)
	w.sym(ft, 256)
	want := append([]byte{}, hist...)
	for i := 0; i < 516; i++ {
		want = append(want, want[len(want)-32768])
	}
	checkAgainstFlate(t, w.flush(), want)
}

// TestInflateSingleDistanceCode: a distance tree of one one-bit code, an
// incomplete code the 9-bit table has holes for.
func TestInflateSingleDistanceCode(t *testing.T) {
	lit := complete(257+29, allLiterals(256, 257+7)) // length code 264 is 10
	dist := make([]int, 30)
	dist[4] = 1 // distances 5-6
	dt := newTables(lit, dist)
	var w blockWriter
	w.header(true, dt, false)
	for _, b := range []byte("hello") {
		w.sym(dt, int(b))
	}
	w.match(dt, 10, 5)
	w.match(dt, 10, 6)
	w.sym(dt, 256)
	want := []byte("hello")
	for _, d := range []int{5, 6} {
		for i := 0; i < 10; i++ {
			want = append(want, want[len(want)-d])
		}
	}
	checkAgainstFlate(t, w.flush(), want)
}

// TestInflateCodeEndsStream: the end-of-block code ends exactly in the
// stream's last bit, so its table lookup peeks past the end of input. A
// stream cut just before that code must fail, although the zeros a peek
// pads with are the fixed code's end of block.
func TestInflateCodeEndsStream(t *testing.T) {
	ft := fixedTables()
	// 3 header bits and 7 of the end of block, with k 9-bit literals and
	// any number of 8-bit ones, fill whole bytes for k = 6; for k = 5 the
	// literals end on a byte boundary.
	build := func(nine string) (stream []byte, cut int, want []byte) {
		var w blockWriter
		w.header(true, ft, true)
		for _, b := range []byte(nine + " last byte") {
			w.sym(ft, int(b))
			want = append(want, b)
		}
		cut = w.bitLen()
		w.sym(ft, 256)
		return w.flush(), cut, want
	}
	stream, _, want := build("\xe0\xe1\xe2\xe3\xe4\xe5")
	if len(stream)*8 != 3+6*9+10*8+7 {
		t.Fatalf("the stream is %d bytes, not whole", len(stream))
	}
	checkAgainstFlate(t, stream, want)

	stream, cut, _ := build("\xe0\xe1\xe2\xe3\xe4")
	if cut%8 != 0 {
		t.Fatalf("the literals end at bit %d, not on a byte boundary", cut)
	}
	if _, err := deflateCodec(t).RunVXA(stream[:cut/8], vm.Config{}); err == nil {
		t.Fatal("a stream cut before its end-of-block code decoded")
	}
}

// TestInflateTrailers: the zlib and gzip trailers follow a stored final
// block, whose data is copied past the bit reader, and whole bytes the
// bit reader holds; a flipped trailer byte fails either way.
func TestInflateTrailers(t *testing.T) {
	data := bytes.Repeat([]byte("trailer test "), 200)
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression} {
		var z, g bytes.Buffer
		zw, _ := zlib.NewWriterLevel(&z, level)
		zw.Write(data)
		zw.Close()
		gw, _ := gzip.NewWriterLevel(&g, level)
		gw.Write(data)
		gw.Close()
		for _, tc := range []struct {
			c      *codec.Codec
			stream []byte
		}{{zlibCodec(t), z.Bytes()}, {gzipCodec(t), g.Bytes()}} {
			got, err := tc.c.RunVXA(tc.stream, vm.Config{})
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s at level %d: err %v, %d bytes", tc.c.Name, level, err, len(got))
			}
			for back := 1; back <= 4; back++ {
				bad := append([]byte{}, tc.stream...)
				bad[len(bad)-back] ^= 0x10
				if _, err := tc.c.RunVXA(bad, vm.Config{}); err == nil {
					t.Fatalf("%s at level %d: trailer byte -%d flipped, decoded anyway", tc.c.Name, level, back)
				}
			}
		}
	}
}

// sanctioned reports whether err is an outcome a decoder may end a
// stream in: success, its own refusal (exit 101), or running out of fuel.
func sanctioned(err error) bool {
	var de *codec.DecodeError
	if err == nil {
		return true
	}
	if !errors.As(err, &de) {
		return false
	}
	if de.Trap == nil {
		return de.Code == 101
	}
	var tr *vm.Trap
	return errors.As(de.Trap, &tr) && tr.Kind == vm.TrapFuel
}

// FuzzInflateVXA: what compress/flate writes at any level, the VXC
// inflate decodes byte for byte; a stream with one byte changed ends in a
// sanctioned outcome, and where both decoders accept it they agree.
func FuzzInflateVXA(f *testing.F) {
	f.Add([]byte("hello, hello, hello world"), uint8(6), uint16(3), byte(0x10))
	f.Add(bytes.Repeat([]byte{0}, 1000), uint8(1), uint16(0), byte(0))
	f.Add([]byte{}, uint8(0), uint16(0), byte(1))
	rng := rand.New(rand.NewSource(3))
	noise := make([]byte, 3000)
	rng.Read(noise)
	f.Add(noise, uint8(11), uint16(100), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, level uint8, pos uint16, flip byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		var enc bytes.Buffer
		fw, err := flate.NewWriter(&enc, int(level)%12-2) // HuffmanOnly .. BestCompression
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(data)
		fw.Close()
		c := deflateCodec(t)
		got, err := c.RunVXA(enc.Bytes(), vm.Config{})
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d: err %v, %d bytes of %d", int(level)%12-2, err, len(got), len(data))
		}
		if flip == 0 || enc.Len() == 0 {
			return
		}
		bad := append([]byte{}, enc.Bytes()...)
		bad[int(pos)%len(bad)] ^= flip
		got, err = c.RunVXA(bad, vm.Config{})
		if !sanctioned(err) {
			t.Fatalf("mutated stream: %v", err)
		}
		ref, refErr := io.ReadAll(flate.NewReader(bytes.NewReader(bad)))
		if err == nil && refErr == nil && !bytes.Equal(got, ref) {
			t.Fatalf("mutated stream: vxa inflate decodes %d bytes, compress/flate %d, and they differ", len(got), len(ref))
		}
	})
}
