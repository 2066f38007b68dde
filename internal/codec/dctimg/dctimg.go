// Package dctimg implements "vxdct", the reproduction's stand-in for the
// paper's JPEG codec: a lossy still-image coder built from the same
// stages as baseline JPEG — YCbCr color conversion, 8x8 block DCT,
// quality-scaled quantization, zigzag scan with DC prediction, and
// entropy coding. Like the paper's jpeg redec, the decoder outputs
// "uncompressed images in the simple and universally-understood Windows
// BMP file format" (§5.1).
//
// Stream format "VXJ1" (little-endian):
//
//	magic "VXJ1", u16 width, u16 height, u8 quality (1-100)
//	coefficient token stream (package imagec) carrying, for each of
//	Y/Cb/Cr: all 8x8 blocks in raster order, 64 quantized coefficients
//	each in zigzag order, DC delta-coded per channel.
//
// All transforms are fixed-point integer; the Go and VXC decoders are
// bit-exact.
package dctimg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/codec/imagec"
	"vxa/internal/vxcc"
)

// MaxDim bounds accepted image dimensions.
const MaxDim = 4096

// ErrFormat reports a malformed VXJ1 stream.
var ErrFormat = errors.New("dctimg: malformed VXJ1 stream")

// dctTab[u][x] = round(a(u) * cos((2x+1)u*pi/16) * 4096) — the orthonormal
// DCT-II basis in Q12 fixed point, shared (via source generation) with
// the VXC decoder.
var dctTab [8][8]int32

// Standard JPEG Annex K quantization tables.
var lumaQ = [64]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var chromaQ = [64]int32{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// zigzagOrder maps scan position to block position.
var zigzagOrder = [64]int32{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

func init() {
	for u := 0; u < 8; u++ {
		a := math.Sqrt(2.0 / 8.0)
		if u == 0 {
			a = math.Sqrt(1.0 / 8.0)
		}
		for x := 0; x < 8; x++ {
			dctTab[u][x] = int32(math.Round(a * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) * 4096))
		}
	}
	registerCodec()
}

// scaleQ applies IJG-style quality scaling to a base table.
func scaleQ(base *[64]int32, quality int32) [64]int32 {
	var scale int32
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - 2*quality
	}
	var out [64]int32
	for i, b := range base {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		out[i] = v
	}
	return out
}

// fdct2 computes the 2-D DCT of an 8x8 block in place.
func fdct2(blk *[64]int32) {
	var tmp [64]int32
	for r := 0; r < 8; r++ {
		for u := 0; u < 8; u++ {
			var s int32
			for x := 0; x < 8; x++ {
				s += dctTab[u][x] * blk[r*8+x]
			}
			tmp[r*8+u] = (s + 2048) >> 12
		}
	}
	for c := 0; c < 8; c++ {
		for u := 0; u < 8; u++ {
			var s int32
			for y := 0; y < 8; y++ {
				s += dctTab[u][y] * tmp[y*8+c]
			}
			blk[u*8+c] = (s + 2048) >> 12
		}
	}
}

// idct2 computes the 2-D inverse DCT of an 8x8 block in place.
func idct2(blk *[64]int32) {
	var tmp [64]int32
	for c := 0; c < 8; c++ {
		for y := 0; y < 8; y++ {
			var s int32
			for u := 0; u < 8; u++ {
				s += dctTab[u][y] * blk[u*8+c]
			}
			tmp[y*8+c] = (s + 2048) >> 12
		}
	}
	for r := 0; r < 8; r++ {
		for x := 0; x < 8; x++ {
			var s int32
			for u := 0; u < 8; u++ {
				s += dctTab[u][x] * tmp[r*8+u]
			}
			blk[r*8+x] = (s + 2048) >> 12
		}
	}
}

// Encode compresses a 24-bit BMP into VXJ1. Quality 75 is used; use
// EncodeQuality for control.
func Encode(dst io.Writer, src []byte) error {
	return EncodeQuality(dst, src, 75)
}

// EncodeQuality compresses with an explicit quality (1-100).
func EncodeQuality(dst io.Writer, src []byte, quality int) error {
	if quality < 1 || quality > 100 {
		return fmt.Errorf("dctimg: quality %d out of range", quality)
	}
	im, err := bmp.Decode(src)
	if err != nil {
		return err
	}
	if im.W > MaxDim || im.H > MaxDim {
		return fmt.Errorf("dctimg: image too large (%dx%d)", im.W, im.H)
	}
	hdr := make([]byte, 9)
	copy(hdr, "VXJ1")
	binary.LittleEndian.PutUint16(hdr[4:], uint16(im.W))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(im.H))
	hdr[8] = byte(quality)
	if _, err := dst.Write(hdr); err != nil {
		return err
	}

	pw, ph := (im.W+7)&^7, (im.H+7)&^7
	planes := toPlanes(im, pw, ph)
	qY := scaleQ(&lumaQ, int32(quality))
	qC := scaleQ(&chromaQ, int32(quality))

	var cw imagec.CoeffWriter
	for ch := 0; ch < 3; ch++ {
		q := &qY
		if ch > 0 {
			q = &qC
		}
		plane := planes[ch]
		prevDC := int32(0)
		for by := 0; by < ph; by += 8 {
			for bx := 0; bx < pw; bx += 8 {
				var blk [64]int32
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						blk[y*8+x] = plane[(by+y)*pw+bx+x] - 128
					}
				}
				fdct2(&blk)
				var zz [64]int32
				for i, pos := range zigzagOrder {
					zz[i] = imagec.DivRound(blk[pos], q[pos])
				}
				dc := zz[0]
				zz[0] = dc - prevDC
				prevDC = dc
				for _, v := range zz {
					cw.Put(v)
				}
			}
		}
	}
	_, err = dst.Write(cw.Bytes())
	return err
}

// toPlanes converts to edge-replicated YCbCr planes of size pw x ph.
func toPlanes(im *bmp.Image, pw, ph int) [3][]int32 {
	var planes [3][]int32
	for i := range planes {
		planes[i] = make([]int32, pw*ph)
	}
	for y := 0; y < ph; y++ {
		sy := y
		if sy >= im.H {
			sy = im.H - 1
		}
		for x := 0; x < pw; x++ {
			sx := x
			if sx >= im.W {
				sx = im.W - 1
			}
			r, g, b := im.At(sx, sy)
			yy, cb, cr := imagec.RGBToYCC(int32(r), int32(g), int32(b))
			planes[0][y*pw+x] = yy
			planes[1][y*pw+x] = cb
			planes[2][y*pw+x] = cr
		}
	}
	return planes
}

// Decode is the native decoder: VXJ1 in, BMP out.
func Decode(dst io.Writer, src io.Reader) error {
	all, err := io.ReadAll(src)
	if err != nil {
		return err
	}
	if len(all) < 9 || string(all[:4]) != "VXJ1" {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	w := int(binary.LittleEndian.Uint16(all[4:]))
	h := int(binary.LittleEndian.Uint16(all[6:]))
	quality := int32(all[8])
	if w == 0 || h == 0 || w > MaxDim || h > MaxDim || quality < 1 || quality > 100 {
		return fmt.Errorf("%w: bad header", ErrFormat)
	}
	pw, ph := (w+7)&^7, (h+7)&^7
	qY := scaleQ(&lumaQ, quality)
	qC := scaleQ(&chromaQ, quality)
	cr := imagec.NewCoeffReader(all[9:])

	var planes [3][]int32
	for i := range planes {
		planes[i] = make([]int32, pw*ph)
	}
	for ch := 0; ch < 3; ch++ {
		q := &qY
		if ch > 0 {
			q = &qC
		}
		prevDC := int32(0)
		for by := 0; by < ph; by += 8 {
			for bx := 0; bx < pw; bx += 8 {
				var blk [64]int32
				for i := 0; i < 64; i++ {
					v, err := cr.Next()
					if err != nil {
						return err
					}
					if i == 0 {
						v += prevDC
						prevDC = v
					}
					blk[zigzagOrder[i]] = v * q[zigzagOrder[i]]
				}
				idct2(&blk)
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						planes[ch][(by+y)*pw+bx+x] = blk[y*8+x] + 128
					}
				}
			}
		}
	}

	im := bmp.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := imagec.YCCToRGB(planes[0][y*pw+x], planes[1][y*pw+x], planes[2][y*pw+x])
			im.Set(x, y, byte(r), byte(g), byte(b))
		}
	}
	_, err = dst.Write(bmp.Encode(im))
	return err
}

// vxcIntList renders an int32 table as a VXC initializer list.
func vxcIntList(vals []int32) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// dctMain generates the VXC decoder, splicing in the exact tables the
// Go side uses so the two decoders are bit-identical.
//
// Its idct2 loads each column (then each row) of the block into eight
// locals once and sums the eight products of an output over constant
// table offsets, the products idct2 above forms, and its second pass
// writes the block, plus 128, straight into the plane. The block's DC
// term is decoded ahead of the loop over the other 63.
func dctMain() vxcc.Source {
	flat := make([]int32, 64)
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			flat[u*8+x] = dctTab[u][x]
		}
	}
	text := `
// VXJ1 block-DCT image decoder: VXA codec "dct". Output: BMP image.

enum { MAXDIM = 4096, MAXPIX = 1 << 21 };

const int dcttab[64] = {` + vxcIntList(flat) + `};
const int lumaq[64] = {` + vxcIntList(lumaQ[:]) + `};
const int chromaq[64] = {` + vxcIntList(chromaQ[:]) + `};
const int zz[64] = {` + vxcIntList(zigzagOrder[:]) + `};

int qtab[128]; // scaled luma at 0..63, chroma at 64..127

void scaleq(int quality) {
	int scale;
	if (quality < 50) scale = 5000 / quality;
	else scale = 200 - 2 * quality;
	int i;
	for (i = 0; i < 64; i++) {
		int v = (lumaq[i] * scale + 50) / 100;
		if (v < 1) v = 1;
		if (v > 255) v = 255;
		qtab[i] = v;
		v = (chromaq[i] * scale + 50) / 100;
		if (v < 1) v = 1;
		if (v > 255) v = 255;
		qtab[64 + i] = v;
	}
}

int blk[64];
int tmp[64];

void idct2(int *dst, int stride) {
	int c;
	for (c = 0; c < 8; c++) {
		int b0 = blk[c];
		int b1 = blk[8 + c];
		int b2 = blk[16 + c];
		int b3 = blk[24 + c];
		int b4 = blk[32 + c];
		int b5 = blk[40 + c];
		int b6 = blk[48 + c];
		int b7 = blk[56 + c];
		int y;
		for (y = 0; y < 8; y++) {
			int s = dcttab[y] * b0 + dcttab[8 + y] * b1 + dcttab[16 + y] * b2 + dcttab[24 + y] * b3
				+ dcttab[32 + y] * b4 + dcttab[40 + y] * b5 + dcttab[48 + y] * b6 + dcttab[56 + y] * b7;
			tmp[y * 8 + c] = (s + 2048) >> 12;
		}
	}
	int r;
	for (r = 0; r < 8; r++) {
		int *t = tmp + r * 8;
		int t0 = t[0];
		int t1 = t[1];
		int t2 = t[2];
		int t3 = t[3];
		int t4 = t[4];
		int t5 = t[5];
		int t6 = t[6];
		int t7 = t[7];
		int x;
		for (x = 0; x < 8; x++) {
			int s = dcttab[x] * t0 + dcttab[8 + x] * t1 + dcttab[16 + x] * t2 + dcttab[24 + x] * t3
				+ dcttab[32 + x] * t4 + dcttab[40 + x] * t5 + dcttab[48 + x] * t6 + dcttab[56 + x] * t7;
			dst[x] = ((s + 2048) >> 12) + 128;
		}
		dst += stride;
	}
}

int *plane0;
int *plane1;
int *plane2;

int *chplane(int ch) {
	if (ch == 0) return plane0;
	if (ch == 1) return plane1;
	return plane2;
}

int main(void) {
	while (1) {
		__stdio_reset();
		coeff_reset();
		if (mustgetb() != 'V' || mustgetb() != 'X' || mustgetb() != 'J' || mustgetb() != '1')
			die("not a VXJ1 stream");
		int w = get2le();
		int h = get2le();
		int quality = mustgetb();
		if (w <= 0 || h <= 0 || w > MAXDIM || h > MAXDIM) die("bad dimensions");
		if (quality < 1 || quality > 100) die("bad quality");
		int pw = (w + 7) & ~7;
		int ph = (h + 7) & ~7;
		if (pw * ph > MAXPIX) die("image too large for decoder");
		scaleq(quality);
		if (!plane0) {
			plane0 = (int*)vxalloc(MAXPIX * 4);
			plane1 = (int*)vxalloc(MAXPIX * 4);
			plane2 = (int*)vxalloc(MAXPIX * 4);
		}
		int ch;
		for (ch = 0; ch < 3; ch++) {
			int *plane = chplane(ch);
			int qoff = 0;
			if (ch > 0) qoff = 64;
			int prevdc = 0;
			int by;
			for (by = 0; by < ph; by += 8) {
				int bx;
				for (bx = 0; bx < pw; bx += 8) {
					prevdc += coeff_next();
					blk[0] = prevdc * qtab[qoff];
					int i;
					for (i = 1; i < 64; i++) {
						int z = zz[i];
						blk[z] = coeff_next() * qtab[qoff + z];
					}
					idct2(plane + by * pw + bx, pw);
				}
			}
		}
		bmp_write(plane0, plane1, plane2, w, h, pw);
		vxa_done();
	}
	return 0;
}
`
	return vxcc.Source{Name: "vxdct.vxc", Text: text}
}

func registerCodec() {
	codec.Register(&codec.Codec{
		Name:   "dct",
		Desc:   "Lossy still-image coder (8x8 DCT + quantization, JPEG family)",
		Output: "BMP image",
		Kind:   codec.MediaCodec,
		Lossy:  true,
		Recognize: func(data []byte) bool {
			return len(data) >= 9 && string(data[:4]) == "VXJ1"
		},
		CanEncode: func(data []byte) bool {
			if !bmp.Sniff(data) {
				return false
			}
			_, err := bmp.Decode(data)
			return err == nil
		},
		Encode:  Encode,
		Decode:  Decode,
		Sources: []vxcc.Source{imagec.VXCSource, dctMain()},
	})
}
