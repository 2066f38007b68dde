// Package imagec holds the machinery shared by the two lossy image
// codecs (the DCT "jpeg family" codec and the Haar-wavelet "JPEG-2000
// family" codec): integer YCbCr color conversion, the byte-oriented
// coefficient entropy coder, and their VXC twins.
//
// Coefficient token stream (byte-oriented):
//
//	0x00 varint(runLen)      — a run of zero coefficients
//	0x01 varint(zigzag(v))   — one nonzero coefficient
//
// The stream carries exactly the coefficient count implied by the image
// header, so no end marker is needed.
package imagec

import (
	"fmt"

	"vxa/internal/vxcc"
)

// --- integer color transform (identical in Go and VXC) ---

// RGBToYCC converts one pixel to integer YCbCr.
func RGBToYCC(r, g, b int32) (y, cb, cr int32) {
	y = (77*r + 150*g + 29*b) >> 8
	cb = ((-43*r - 85*g + 128*b) >> 8) + 128
	cr = ((128*r - 107*g - 21*b) >> 8) + 128
	return
}

// YCCToRGB inverts RGBToYCC (approximately; the pair is lossy).
func YCCToRGB(y, cb, cr int32) (r, g, b int32) {
	r = clamp255(y + (359*(cr-128))>>8)
	g = clamp255(y - (88*(cb-128)+183*(cr-128))>>8)
	b = clamp255(y + (454*(cb-128))>>8)
	return
}

func clamp255(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// DivRound divides with symmetric round-half-away-from-zero, matching
// the VXC decoders' integer arithmetic exactly.
func DivRound(a, b int32) int32 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// --- coefficient stream ---

// Zigzag maps a signed coefficient to unsigned for varint coding.
func Zigzag(v int32) uint32 { return uint32(v<<1) ^ uint32(v>>31) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// CoeffWriter entropy-codes a coefficient stream.
type CoeffWriter struct {
	buf  []byte
	zrun uint32
}

func (w *CoeffWriter) varint(v uint32) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Put appends one coefficient.
func (w *CoeffWriter) Put(v int32) {
	if v == 0 {
		w.zrun++
		return
	}
	w.flushRun()
	w.buf = append(w.buf, 0x01)
	w.varint(Zigzag(v))
}

func (w *CoeffWriter) flushRun() {
	if w.zrun > 0 {
		w.buf = append(w.buf, 0x00)
		w.varint(w.zrun)
		w.zrun = 0
	}
}

// Bytes finalizes and returns the encoded stream.
func (w *CoeffWriter) Bytes() []byte {
	w.flushRun()
	return w.buf
}

// CoeffReader decodes a coefficient stream produced by CoeffWriter.
type CoeffReader struct {
	data []byte
	pos  int
	zrun uint32
}

// NewCoeffReader wraps an encoded stream.
func NewCoeffReader(data []byte) *CoeffReader { return &CoeffReader{data: data} }

func (r *CoeffReader) byteIn() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("imagec: truncated coefficient stream")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *CoeffReader) varint() (uint32, error) {
	var v uint32
	var shift uint
	for {
		b, err := r.byteIn()
		if err != nil {
			return 0, err
		}
		v |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
		if shift > 31 {
			return 0, fmt.Errorf("imagec: varint too long")
		}
	}
}

// Next returns the next coefficient.
func (r *CoeffReader) Next() (int32, error) {
	if r.zrun > 0 {
		r.zrun--
		return 0, nil
	}
	tok, err := r.byteIn()
	if err != nil {
		return 0, err
	}
	switch tok {
	case 0x00:
		n, err := r.varint()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("imagec: empty zero run")
		}
		r.zrun = n - 1
		return 0, nil
	case 0x01:
		u, err := r.varint()
		if err != nil {
			return 0, err
		}
		return Unzigzag(u), nil
	}
	return 0, fmt.Errorf("imagec: bad token %#x", tok)
}

// VXCSource is the VXC twin of this package: coefficient reader, color
// inverse, clamping, rounding division, and a BMP writer. Image planes
// live on the decoder heap.
//
// coeff_next calls coeff_varint from one site, after checking the token,
// so the varint's return always goes back to the same place (two call
// sites sent every other return through the dispatcher). bmp_write fills
// each BMP row straight into the runtime's output buffer, with one flush
// check per row: a zero word at the row's end is the padding, which the
// row's last pixel then partly overwrites, and every clamp is masked
// (v & ~(v >> 31) zeroes a negative v, v - (d & ~(d >> 31)) with d =
// v - 255 brings a larger one down to 255), so a pixel is straight-line
// code whatever its colour. The arithmetic is YCCToRGB's.
var VXCSource = vxcc.Source{Name: "<imagec>", Text: `
// Shared image decoder machinery: coefficient stream, color, BMP.

int __czrun;

int coeff_byte() {
	if (__inpos < __inlen) return __inbuf[__inpos++];
	return mustgetb();
}

int coeff_varint() {
	int v = 0;
	int shift = 0;
	while (1) {
		int b = coeff_byte();
		v |= (b & 0x7F) << shift;
		if ((b & 0x80) == 0) return v;
		shift += 7;
		if (shift > 31) die("varint too long");
	}
}

void coeff_reset() { __czrun = 0; }

int coeff_next() {
	if (__czrun > 0) { __czrun--; return 0; }
	int tok = coeff_byte();
	if (tok > 1) die("bad coefficient token");
	int u = coeff_varint();
	if (tok) return ((uint)u >> 1) ^ (-(u & 1));
	if (u == 0) die("empty zero run");
	__czrun = u - 1;
	return 0;
}

int clamp255(int v) {
	v &= ~(v >> 31);
	int d = v - 255;
	return v - (d & ~(d >> 31));
}

int divround(int a, int b) {
	if (a >= 0) return (a + b / 2) / b;
	return -((-a + b / 2) / b);
}

// bmp_write emits a bottom-up 24-bit BMP from three full-size planes
// (may be padded to pw x ph; only w x h pixels are emitted).
void bmp_write(int *py, int *pcb, int *pcr, int w, int h, int pw) {
	int stride = (w * 3 + 3) & ~3;
	int datalen = stride * h;
	if (__outpos > IOBUF - 54) flushout();
	byte *o = __outbuf + __outpos;
	__outpos += 54;
	o[0] = 'B';
	o[1] = 'M';
	*(uint*)(o + 2) = 54 + datalen;
	*(uint*)(o + 6) = 0;
	*(uint*)(o + 10) = 54;
	*(uint*)(o + 14) = 40;
	*(uint*)(o + 18) = w;
	*(uint*)(o + 22) = h;        // positive: bottom-up
	*(uint*)(o + 26) = 1 | (24 << 16); // one plane, 24 bits a pixel
	*(uint*)(o + 30) = 0;        // BI_RGB
	*(uint*)(o + 34) = datalen;
	*(uint*)(o + 38) = 0;        // resolution and palette unspecified,
	*(uint*)(o + 42) = 0;        // as the native encoder
	*(uint*)(o + 46) = 0;
	*(uint*)(o + 50) = 0;
	int y;
	for (y = h - 1; y >= 0; y--) {
		if (__outpos > IOBUF - stride) flushout();
		o = __outbuf + __outpos;
		*(uint*)(o + stride - 4) = 0;
		__outpos += stride;
		int i = y * pw;
		int end = i + w;
		for (; i < end; i++) {
			int l = py[i];
			int cb = pcb[i] - 128;
			int cr = pcr[i] - 128;
			o[0] = (byte)clamp255(l + ((454 * cb) >> 8));
			o[1] = (byte)clamp255(l - ((88 * cb + 183 * cr) >> 8));
			o[2] = (byte)clamp255(l + ((359 * cr) >> 8));
			o += 3;
		}
	}
}
`}
