// Package bwt implements "vxbwt", the reproduction's stand-in for the
// paper's bzip2 codec: a block-sorting compressor with the same pipeline
// family as bzip2 — Burrows-Wheeler transform, move-to-front coding,
// zero run-length coding, and canonical Huffman entropy coding.
//
// Stream format "VXB1" (all integers little-endian):
//
//	magic "VXB1", u32 blockSize
//	per block:
//	  u32 origLen (>0), u32 bwtIndex
//	  129 bytes: 258 canonical Huffman code lengths, packed as nibbles
//	  bit stream (LSB-first): Huffman symbols
//	     0..255  MTF value (value 0 never appears; zeros are run-coded)
//	     256     zero run; Elias-gamma run length follows
//	     257     end of block (bit stream then pads to a byte boundary)
//	u32 0 marks end of stream
package bwt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"vxa/internal/codec"
	"vxa/internal/codec/vxcsrc"
	"vxa/internal/vxcc"
)

// DefaultBlockSize is the encoder's block size. Smaller than bzip2's
// 900k because the virtualized decoder allocates ~5 bytes of working
// memory per input byte inside a 16 MiB sandbox.
const DefaultBlockSize = 128 << 10

// MaxBlockSize bounds the block size a decoder will accept.
const MaxBlockSize = 4 << 20

const (
	symZRun = 256
	symEOB  = 257
	nSyms   = 258
)

// ErrFormat reports a malformed VXB1 stream.
var ErrFormat = errors.New("bwt: malformed VXB1 stream")

// ---------- Burrows-Wheeler transform ----------

// Transform computes the BWT of data by sorting its cyclic rotations
// with prefix doubling (O(n log² n), no pathological inputs). It returns
// the last column and the row index of the original string.
func Transform(data []byte) (last []byte, index int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	tmp := make([]int, n)
	sa := make([]int, n)
	for i := 0; i < n; i++ {
		sa[i] = i
		rank[i] = int(data[i])
	}
	for k := 1; ; k *= 2 {
		cmp := func(a, b int) bool {
			if rank[a] != rank[b] {
				return rank[a] < rank[b]
			}
			ra := rank[(a+k)%n]
			rb := rank[(b+k)%n]
			return ra < rb
		}
		sort.Slice(sa, func(i, j int) bool { return cmp(sa[i], sa[j]) })
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			if cmp(sa[i-1], sa[i]) {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if rank[sa[n-1]] == n-1 {
			break
		}
		if k > n {
			break
		}
	}
	last = make([]byte, n)
	for i, rot := range sa {
		last[i] = data[(rot+n-1)%n]
		if rot == 0 {
			index = i
		}
	}
	return last, index
}

// Inverse reverses the BWT given the last column and original row index.
func Inverse(last []byte, index int) ([]byte, error) {
	n := len(last)
	if n == 0 {
		return nil, nil
	}
	if index < 0 || index >= n {
		return nil, fmt.Errorf("%w: bwt index out of range", ErrFormat)
	}
	var counts [256]int
	for _, c := range last {
		counts[c]++
	}
	var base [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		base[c] = sum
		sum += counts[c]
	}
	// tt[j] = i means: row i of the sorted matrix is the successor row
	// reached by following the standard LF walk.
	tt := make([]int32, n)
	var seen [256]int
	for i, c := range last {
		tt[base[c]+seen[c]] = int32(i)
		seen[c]++
	}
	out := make([]byte, n)
	p := tt[index]
	for k := 0; k < n; k++ {
		out[k] = last[p]
		p = tt[p]
	}
	return out, nil
}

// ---------- move-to-front ----------

func mtfEncode(data []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, c := range data {
		var j int
		for table[j] != c {
			j++
		}
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = c
	}
	return out
}

func mtfDecode(data []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, j := range data {
		c := table[j]
		out[i] = c
		copy(table[1:int(j)+1], table[:j])
		table[0] = c
	}
	return out
}

// ---------- canonical Huffman (encoder side) ----------

// buildLengths computes length-limited (≤15) canonical code lengths.
func buildLengths(freq []int) []byte {
	lengths := make([]byte, len(freq))
	f := append([]int(nil), freq...)
	for {
		type node struct {
			weight int
			syms   []int
		}
		var heap []node
		for s, w := range f {
			if w > 0 {
				heap = append(heap, node{w, []int{s}})
			}
		}
		if len(heap) == 0 {
			return lengths
		}
		if len(heap) == 1 {
			lengths[heap[0].syms[0]] = 1
			return lengths
		}
		for i := range lengths {
			lengths[i] = 0
		}
		sort.Slice(heap, func(i, j int) bool { return heap[i].weight < heap[j].weight })
		for len(heap) > 1 {
			a, b := heap[0], heap[1]
			heap = heap[2:]
			merged := node{a.weight + b.weight, append(append([]int{}, a.syms...), b.syms...)}
			for _, s := range a.syms {
				lengths[s]++
			}
			for _, s := range b.syms {
				lengths[s]++
			}
			// insert keeping sorted order
			pos := sort.Search(len(heap), func(i int) bool { return heap[i].weight >= merged.weight })
			heap = append(heap, node{})
			copy(heap[pos+1:], heap[pos:])
			heap[pos] = merged
		}
		maxLen := byte(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= 15 {
			return lengths
		}
		// Flatten the distribution and retry until the limit holds.
		for s := range f {
			if f[s] > 0 {
				f[s] = (f[s] + 1) / 2
			}
		}
	}
}

// canonicalCodes assigns canonical code values from lengths, matching
// the puff-style decoder: shorter codes first, ties by symbol value.
func canonicalCodes(lengths []byte) []uint32 {
	codes := make([]uint32, len(lengths))
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0 // absent symbols take part in no code space
	var next [16]uint32
	code := uint32(0)
	for l := 1; l <= 15; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// bitWriter writes bits LSB-first into bytes, matching the VXC getbit.
type bitWriter struct {
	buf  []byte
	cur  uint32
	nCur uint
}

func (w *bitWriter) writeBit(b uint32) {
	w.cur |= (b & 1) << w.nCur
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nCur = 0, 0
	}
}

// writeCode emits a canonical Huffman code MSB-first (the decoder
// accumulates bits into the code from the top).
func (w *bitWriter) writeCode(code uint32, length byte) {
	for i := int(length) - 1; i >= 0; i-- {
		w.writeBit(code >> uint(i))
	}
}

// writeGamma emits Elias gamma for v >= 1.
func (w *bitWriter) writeGamma(v uint32) {
	n := 0
	for vv := v; vv > 1; vv >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		w.writeBit(0)
	}
	for i := n; i >= 0; i-- {
		w.writeBit(v >> uint(i))
	}
}

func (w *bitWriter) flush() {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nCur = 0, 0
	}
}

// ---------- encoder ----------

// Encode compresses src into the VXB1 format.
func Encode(dst io.Writer, src []byte) error {
	return EncodeBlockSize(dst, src, DefaultBlockSize)
}

// EncodeBlockSize compresses with an explicit block size.
func EncodeBlockSize(dst io.Writer, src []byte, blockSize int) error {
	if blockSize <= 0 || blockSize > MaxBlockSize {
		return fmt.Errorf("bwt: bad block size %d", blockSize)
	}
	var hdr [8]byte
	copy(hdr[:4], "VXB1")
	binary.LittleEndian.PutUint32(hdr[4:], uint32(blockSize))
	if _, err := dst.Write(hdr[:]); err != nil {
		return err
	}
	for len(src) > 0 {
		n := len(src)
		if n > blockSize {
			n = blockSize
		}
		if err := encodeBlock(dst, src[:n]); err != nil {
			return err
		}
		src = src[n:]
	}
	var eos [4]byte
	_, err := dst.Write(eos[:])
	return err
}

// rle0 converts an MTF stream into the symbol/run token stream.
type token struct {
	sym uint16
	run uint32
}

func rle0(mtf []byte) []token {
	var toks []token
	i := 0
	for i < len(mtf) {
		if mtf[i] == 0 {
			j := i
			for j < len(mtf) && mtf[j] == 0 {
				j++
			}
			toks = append(toks, token{sym: symZRun, run: uint32(j - i)})
			i = j
		} else {
			toks = append(toks, token{sym: uint16(mtf[i])})
			i++
		}
	}
	toks = append(toks, token{sym: symEOB})
	return toks
}

func encodeBlock(dst io.Writer, data []byte) error {
	last, index := Transform(data)
	mtf := mtfEncode(last)
	toks := rle0(mtf)

	freq := make([]int, nSyms)
	for _, t := range toks {
		freq[t.sym]++
	}
	lengths := buildLengths(freq)
	codes := canonicalCodes(lengths)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(index))
	if _, err := dst.Write(hdr[:]); err != nil {
		return err
	}
	// 258 nibbles, low nibble first.
	nib := make([]byte, (nSyms+1)/2)
	for s, l := range lengths {
		if s%2 == 0 {
			nib[s/2] |= l & 15
		} else {
			nib[s/2] |= (l & 15) << 4
		}
	}
	if _, err := dst.Write(nib); err != nil {
		return err
	}
	var bw bitWriter
	for _, t := range toks {
		bw.writeCode(codes[t.sym], lengths[t.sym])
		if t.sym == symZRun {
			bw.writeGamma(t.run)
		}
	}
	bw.flush()
	_, err := dst.Write(bw.buf)
	return err
}

// ---------- native decoder ----------

// Decode decompresses a VXB1 stream (the native fast path).
func Decode(dst io.Writer, src io.Reader) error {
	br := &byteBitReader{r: src}
	var magic [8]byte
	if err := br.readFull(magic[:]); err != nil {
		return err
	}
	if string(magic[:4]) != "VXB1" {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	blockSize := binary.LittleEndian.Uint32(magic[4:])
	if blockSize == 0 || blockSize > MaxBlockSize {
		return fmt.Errorf("%w: block size %d", ErrFormat, blockSize)
	}
	for {
		var bh [4]byte
		if err := br.readFull(bh[:]); err != nil {
			return err
		}
		origLen := binary.LittleEndian.Uint32(bh[:])
		if origLen == 0 {
			return nil
		}
		if origLen > blockSize {
			return fmt.Errorf("%w: block larger than declared block size", ErrFormat)
		}
		if err := br.readFull(bh[:]); err != nil {
			return err
		}
		index := binary.LittleEndian.Uint32(bh[:])

		nib := make([]byte, (nSyms+1)/2)
		if err := br.readFull(nib); err != nil {
			return err
		}
		lengths := make([]byte, nSyms)
		for s := range lengths {
			if s%2 == 0 {
				lengths[s] = nib[s/2] & 15
			} else {
				lengths[s] = nib[s/2] >> 4
			}
		}
		counts, symbols, err := buildDecodeTable(lengths)
		if err != nil {
			return err
		}

		mtf := make([]byte, 0, origLen)
		for {
			sym, err := decodeSym(br, counts, symbols)
			if err != nil {
				return err
			}
			if sym == symEOB {
				break
			}
			if sym == symZRun {
				run, err := readGamma(br)
				if err != nil {
					return err
				}
				if uint32(len(mtf))+run > origLen {
					return fmt.Errorf("%w: zero run overflows block", ErrFormat)
				}
				for i := uint32(0); i < run; i++ {
					mtf = append(mtf, 0)
				}
				continue
			}
			if uint32(len(mtf)) >= origLen {
				return fmt.Errorf("%w: block overflow", ErrFormat)
			}
			mtf = append(mtf, byte(sym))
		}
		if uint32(len(mtf)) != origLen {
			return fmt.Errorf("%w: block underflow", ErrFormat)
		}
		br.align()

		last := mtfDecode(mtf)
		out, err := Inverse(last, int(index))
		if err != nil {
			return err
		}
		if _, err := dst.Write(out); err != nil {
			return err
		}
	}
}

// byteBitReader is the Go twin of the VXC bit reader.
type byteBitReader struct {
	r    io.Reader
	one  [1]byte
	bits uint32
	n    uint
}

func (b *byteBitReader) readByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		if err == io.EOF {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteBitReader) readFull(p []byte) error {
	if b.n != 0 {
		return fmt.Errorf("%w: byte read inside bit stream", ErrFormat)
	}
	if _, err := io.ReadFull(b.r, p); err != nil {
		if err == io.EOF && len(p) > 0 {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

func (b *byteBitReader) bit() (uint32, error) {
	if b.n == 0 {
		c, err := b.readByte()
		if err != nil {
			return 0, err
		}
		b.bits = uint32(c)
		b.n = 8
	}
	v := b.bits & 1
	b.bits >>= 1
	b.n--
	return v, nil
}

func (b *byteBitReader) align() { b.bits, b.n = 0, 0 }

func buildDecodeTable(lengths []byte) (counts [16]int, symbols []int, err error) {
	symbols = make([]int, 0, len(lengths))
	for _, l := range lengths {
		counts[l]++
	}
	counts[0] = 0
	left := 1
	for l := 1; l <= 15; l++ {
		left <<= 1
		left -= counts[l]
		if left < 0 {
			return counts, nil, fmt.Errorf("%w: over-subscribed huffman table", ErrFormat)
		}
	}
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + counts[l]
	}
	symbols = make([]int, len(lengths))
	for s, l := range lengths {
		if l != 0 {
			symbols[offs[l]] = s
			offs[l]++
		}
	}
	return counts, symbols, nil
}

func decodeSym(br *byteBitReader, counts [16]int, symbols []int) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l <= 15; l++ {
		b, err := br.bit()
		if err != nil {
			return 0, err
		}
		code |= int(b)
		count := counts[l]
		if code-first < count {
			return symbols[index+code-first], nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, fmt.Errorf("%w: bad huffman code", ErrFormat)
}

func readGamma(br *byteBitReader) (uint32, error) {
	z := 0
	for {
		b, err := br.bit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		z++
		if z > 31 {
			return 0, fmt.Errorf("%w: bad gamma code", ErrFormat)
		}
	}
	v := uint32(1)
	for i := 0; i < z; i++ {
		b, err := br.bit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// ---------- VXA decoder (VXC) ----------

// bwtMain is the VXB1 decoder. Per block it reads the 258 nibble-packed
// code lengths, then decodes Huffman + RLE0 + MTF straight into mtfbuf,
// the last column (a zero run repeats MTF rank 0, the current front
// symbol; getgamma reads its Elias-gamma length, z zero bits and then
// z+1 value bits MSB-first), and inverts the BWT by a counting sort into
// ttbuf and the LF walk. Every byte after the stream header is read
// through the bit reader. Its comments live here rather than in the VXC
// text, for the reason vxcsrc gives.
var bwtMain = vxcc.Source{Name: "vxbwt.vxc", Text: `
// VXB1 decoder: VXA codec "bwt".

enum { NSYMS = 258, ZRUN = 256, EOB = 257, MAXBLOCK = 4194304 };

int hcnt[16];
int hsym[NSYMS];
byte hlen[NSYMS];

byte *mtfbuf;
int *ttbuf;
int blocksize;

byte mtftab[256];
int htab[512];

int getgamma() {
	int z = 0;
	while (getbit() == 0)
		if (++z > 31) die("bad gamma code");
	int v = 1;
	while (z-- > 0) v = (v << 1) | getbit();
	return v;
}

void decode_block(int origlen, int index) {
	int s;
	for (s = 0; s < NSYMS; s += 2) {
		int b = getbits(8);
		hlen[s] = (byte)(b & 15);
		hlen[s + 1] = (byte)(b >> 4);
	}
	huff_build(hlen, NSYMS, hcnt, hsym, htab);

	int i;
	for (i = 0; i < 256; i++) mtftab[i] = (byte)i;
	int n = 0;
	while (1) {
		int sym = huff_decode(hcnt, hsym, htab);
		if (sym == EOB) break;
		if (sym == ZRUN) {
			int run = getgamma();
			if (n + run > origlen) die("zero run overflows block");
			byte front = mtftab[0];
			while (run-- > 0) mtfbuf[n++] = front;
			continue;
		}
		if (n >= origlen) die("block overflow");
		byte c = mtftab[sym];
		int j;
		for (j = sym; j > 0; j--) mtftab[j] = mtftab[j - 1];
		mtftab[0] = c;
		mtfbuf[n++] = c;
	}
	if (n != origlen) die("block underflow");
	alignbyte();

	int counts[256];
	int base[256];
	for (i = 0; i < 256; i++) counts[i] = 0;
	for (i = 0; i < origlen; i++) counts[mtfbuf[i]]++;
	int sum = 0;
	for (i = 0; i < 256; i++) { base[i] = sum; sum += counts[i]; }
	for (i = 0; i < origlen; i++) ttbuf[base[mtfbuf[i]]++] = i;
	if (index < 0 || index >= origlen) die("bad bwt index");
	int p = ttbuf[index];
	for (i = 0; i < origlen; i++) {
		putb(mtfbuf[p]);
		p = ttbuf[p];
	}
}

int main(void) {
	while (1) {
		__stdio_reset();
		bits_reset();
		if (mustgetb() != 'V' || mustgetb() != 'X' || mustgetb() != 'B' || mustgetb() != '1')
			die("not a VXB1 stream");
		blocksize = get4le();
		if (blocksize <= 0 || blocksize > MAXBLOCK) die("bad block size");
		if (!mtfbuf) {
			mtfbuf = vxalloc(MAXBLOCK);
			ttbuf = (int*)vxalloc(MAXBLOCK * 4);
		}
		while (1) {
			int origlen = getbits(32);
			if (origlen == 0) break;
			if (origlen < 0 || origlen > blocksize) die("bad block length");
			int index = getbits(32);
			decode_block(origlen, index);
		}
		vxa_done();
	}
	return 0;
}
`}

func init() {
	codec.Register(&codec.Codec{
		Name:   "bwt",
		Desc:   "Block-sorting compressor (BWT+MTF+RLE+Huffman, bzip2 family)",
		Output: "raw data",
		Kind:   codec.GeneralPurpose,
		Recognize: func(data []byte) bool {
			return len(data) >= 8 && string(data[:4]) == "VXB1"
		},
		Encode:  Encode,
		Decode:  Decode,
		Sources: []vxcc.Source{vxcsrc.Bitio, vxcsrc.Huff, bwtMain},
	})
}
