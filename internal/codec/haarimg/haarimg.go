// Package haarimg implements "vxhaar", the reproduction's stand-in for
// the paper's JPEG-2000 codec: a lossy wavelet image coder using the
// reversible 2-D S-transform (integer Haar) with dead-zone quantization
// of the detail subbands. Like the paper's jp2 redec, the decoder
// outputs BMP.
//
// Stream format "VXW1" (little-endian):
//
//	magic "VXW1", u16 width, u16 height, u8 levels (1-6), u8 q (1-255)
//	coefficient token stream (package imagec) carrying each of Y/Cb/Cr
//	as the full padded transformed plane in row-major order.
//
// Quantization: the final LL band is kept exact (step 1); the detail
// band produced at decomposition level L uses step max(1, q>>L), so
// coarse scales are preserved more precisely than fine ones.
package haarimg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/codec/imagec"
	"vxa/internal/vxcc"
)

// MaxDim bounds accepted image dimensions.
const MaxDim = 4096

// DefaultLevels is the decomposition depth.
const DefaultLevels = 3

// ErrFormat reports a malformed VXW1 stream.
var ErrFormat = errors.New("haarimg: malformed VXW1 stream")

// forward applies one S-transform level to the top-left cw x ch region.
func forward(p []int32, stride, cw, ch int) {
	tmp := make([]int32, max(cw, ch))
	half := cw / 2
	for y := 0; y < ch; y++ {
		row := p[y*stride:]
		for j := 0; j < half; j++ {
			a, b := row[2*j], row[2*j+1]
			tmp[j] = (a + b) >> 1
			tmp[half+j] = a - b
		}
		copy(row[:cw], tmp[:cw])
	}
	half = ch / 2
	for x := 0; x < cw; x++ {
		for j := 0; j < half; j++ {
			a, b := p[(2*j)*stride+x], p[(2*j+1)*stride+x]
			tmp[j] = (a + b) >> 1
			tmp[half+j] = a - b
		}
		for j := 0; j < ch; j++ {
			p[j*stride+x] = tmp[j]
		}
	}
}

// inverse undoes one S-transform level on the top-left cw x ch region.
func inverse(p []int32, stride, cw, ch int) {
	tmp := make([]int32, max(cw, ch))
	half := ch / 2
	for x := 0; x < cw; x++ {
		for j := 0; j < half; j++ {
			s, d := p[j*stride+x], p[(half+j)*stride+x]
			a := s + ((d + 1) >> 1)
			tmp[2*j] = a
			tmp[2*j+1] = a - d
		}
		for j := 0; j < ch; j++ {
			p[j*stride+x] = tmp[j]
		}
	}
	half = cw / 2
	for y := 0; y < ch; y++ {
		row := p[y*stride:]
		for j := 0; j < half; j++ {
			s, d := row[j], row[half+j]
			a := s + ((d + 1) >> 1)
			tmp[2*j] = a
			tmp[2*j+1] = a - d
		}
		copy(row[:cw], tmp[:cw])
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// stepAt returns the quantizer step for coefficient (x, y) of a
// pw x ph plane decomposed `levels` times with base step q.
func stepAt(x, y, pw, ph, levels int, q int32) int32 {
	for lev := 0; lev < levels; lev++ {
		if x < pw>>(lev+1) && y < ph>>(lev+1) {
			continue
		}
		s := q >> lev
		if s < 1 {
			s = 1
		}
		return s
	}
	return 1 // final LL band: exact
}

func padDims(w, h, levels int) (pw, ph int) {
	m := 1 << levels
	return (w + m - 1) &^ (m - 1), (h + m - 1) &^ (m - 1)
}

// Encode compresses a 24-bit BMP into VXW1 with default parameters.
func Encode(dst io.Writer, src []byte) error {
	return EncodeParams(dst, src, DefaultLevels, 16)
}

// EncodeParams compresses with explicit decomposition depth and base
// quantizer step.
func EncodeParams(dst io.Writer, src []byte, levels int, q int32) error {
	if levels < 1 || levels > 6 || q < 1 || q > 255 {
		return fmt.Errorf("haarimg: bad parameters levels=%d q=%d", levels, q)
	}
	im, err := bmp.Decode(src)
	if err != nil {
		return err
	}
	if im.W > MaxDim || im.H > MaxDim {
		return fmt.Errorf("haarimg: image too large (%dx%d)", im.W, im.H)
	}
	hdr := make([]byte, 10)
	copy(hdr, "VXW1")
	binary.LittleEndian.PutUint16(hdr[4:], uint16(im.W))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(im.H))
	hdr[8] = byte(levels)
	hdr[9] = byte(q)
	if _, err := dst.Write(hdr); err != nil {
		return err
	}
	pw, ph := padDims(im.W, im.H, levels)

	var cw imagec.CoeffWriter
	for ch := 0; ch < 3; ch++ {
		plane := make([]int32, pw*ph)
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
				switch ch {
				case 0:
					plane[y*pw+x] = yy
				case 1:
					plane[y*pw+x] = cb
				default:
					plane[y*pw+x] = cr
				}
			}
		}
		for lev := 0; lev < levels; lev++ {
			forward(plane, pw, pw>>lev, ph>>lev)
		}
		for y := 0; y < ph; y++ {
			for x := 0; x < pw; x++ {
				step := stepAt(x, y, pw, ph, levels, q)
				v := plane[y*pw+x]
				if step > 1 {
					v = imagec.DivRound(v, step)
				}
				cw.Put(v)
			}
		}
	}
	_, err = dst.Write(cw.Bytes())
	return err
}

// Decode is the native decoder: VXW1 in, BMP out.
func Decode(dst io.Writer, src io.Reader) error {
	all, err := io.ReadAll(src)
	if err != nil {
		return err
	}
	if len(all) < 10 || string(all[:4]) != "VXW1" {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	w := int(binary.LittleEndian.Uint16(all[4:]))
	h := int(binary.LittleEndian.Uint16(all[6:]))
	levels := int(all[8])
	q := int32(all[9])
	if w == 0 || h == 0 || w > MaxDim || h > MaxDim || levels < 1 || levels > 6 || q < 1 {
		return fmt.Errorf("%w: bad header", ErrFormat)
	}
	pw, ph := padDims(w, h, levels)
	cr := imagec.NewCoeffReader(all[10:])

	var planes [3][]int32
	for ch := 0; ch < 3; ch++ {
		plane := make([]int32, pw*ph)
		for y := 0; y < ph; y++ {
			for x := 0; x < pw; x++ {
				v, err := cr.Next()
				if err != nil {
					return err
				}
				step := stepAt(x, y, pw, ph, levels, q)
				if step > 1 {
					v *= step
				}
				plane[y*pw+x] = v
			}
		}
		for lev := levels - 1; lev >= 0; lev-- {
			inverse(plane, pw, pw>>lev, ph>>lev)
		}
		planes[ch] = plane
	}
	im := bmp.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := imagec.YCCToRGB(
				clamp(planes[0][y*pw+x]), planes[1][y*pw+x], planes[2][y*pw+x])
			im.Set(x, y, byte(r), byte(g), byte(b))
		}
	}
	_, err = dst.Write(bmp.Encode(im))
	return err
}

func clamp(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// haarMain is the VXA decoder in VXC.
//
// Where stepAt searches the levels per coefficient, the decoder fills a
// row of steps once per band of rows (steplev holds each level's step,
// and 1 for the final LL band), and a coefficient is one multiply.
// inverse_level undoes a level in place: each column, then each row,
// copies its detail half aside and writes its output pairs from the last
// to the first, so that no pair overwrites a smooth value still to be
// read, which halves the copying the lbuf round trip did.
var haarMain = vxcc.Source{Name: "vxhaar.vxc", Text: `
// VXW1 wavelet image decoder: VXA codec "haar". Output: BMP image.

enum { MAXDIM = 4096, MAXPIX = 1 << 21 };

int lbuf[2048];    // the detail half of one row or column
int steprow[4096]; // the step of each column in the current row band
int steplev[7];    // the step of each level's detail bands, then the LL band's

// fill_steprow sets the step of every column for the rows of band ly.
void fill_steprow(int pw, int ly) {
	int s = steplev[ly];
	int x;
	for (x = 0; x < pw >> ly; x++) steprow[x] = s;
	int lev;
	for (lev = ly - 1; lev >= 0; lev--) {
		s = steplev[lev];
		for (x = pw >> (lev + 1); x < pw >> lev; x++) steprow[x] = s;
	}
}

void inverse_level(int *p, int stride, int cw, int chh) {
	int half = chh / 2;
	int j;
	int x;
	for (x = 0; x < cw; x++) {
		int *col = p + x;
		int *dp = col + half * stride;
		for (j = 0; j < half; j++) {
			lbuf[j] = *dp;
			dp += stride;
		}
		int *o = col + (chh - 2) * stride;
		for (j = half - 1; j >= 0; j--) {
			int d = lbuf[j];
			int a = col[j * stride] + ((d + 1) >> 1);
			o[0] = a;
			o[stride] = a - d;
			o -= 2 * stride;
		}
	}
	half = cw / 2;
	int y;
	for (y = 0; y < chh; y++) {
		int *row = p + y * stride;
		for (j = 0; j < half; j++) lbuf[j] = row[half + j];
		for (j = half - 1; j >= 0; j--) {
			int d = lbuf[j];
			int a = row[j] + ((d + 1) >> 1);
			row[2 * j] = a;
			row[2 * j + 1] = a - d;
		}
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
		if (mustgetb() != 'V' || mustgetb() != 'X' || mustgetb() != 'W' || mustgetb() != '1')
			die("not a VXW1 stream");
		int w = get2le();
		int h = get2le();
		int levels = mustgetb();
		int q = mustgetb();
		if (w <= 0 || h <= 0 || w > MAXDIM || h > MAXDIM) die("bad dimensions");
		if (levels < 1 || levels > 6 || q < 1) die("bad parameters");
		int m = 1 << levels;
		int pw = (w + m - 1) & ~(m - 1);
		int ph = (h + m - 1) & ~(m - 1);
		if (pw * ph > MAXPIX) die("image too large for decoder");
		if (!plane0) {
			plane0 = (int*)vxalloc(MAXPIX * 4);
			plane1 = (int*)vxalloc(MAXPIX * 4);
			plane2 = (int*)vxalloc(MAXPIX * 4);
		}
		int lev;
		for (lev = 0; lev < levels; lev++) {
			int s = q >> lev;
			if (s < 1) s = 1;
			steplev[lev] = s;
		}
		steplev[levels] = 1;
		int ch;
		for (ch = 0; ch < 3; ch++) {
			int *plane = chplane(ch);
			int *p = plane;
			int y = 0;
			for (lev = levels; lev >= 0; lev--) {
				fill_steprow(pw, lev);
				for (; y < ph >> lev; y++) {
					int x;
					for (x = 0; x < pw; x++) {
						int v = coeff_next();
						p[x] = v * steprow[x];
					}
					p += pw;
				}
			}
			for (lev = levels - 1; lev >= 0; lev--)
				inverse_level(plane, pw, pw >> lev, ph >> lev);
		}
		// The Y plane must be clamped before color conversion, matching
		// the native decoder.
		int i;
		for (i = 0; i < pw * ph; i++) plane0[i] = clamp255(plane0[i]);
		bmp_write(plane0, plane1, plane2, w, h, pw);
		vxa_done();
	}
	return 0;
}
`}

func init() {
	codec.Register(&codec.Codec{
		Name:   "haar",
		Desc:   "Lossy wavelet image coder (integer S-transform, JPEG-2000 family)",
		Output: "BMP image",
		Kind:   codec.MediaCodec,
		Lossy:  true,
		Recognize: func(data []byte) bool {
			return len(data) >= 10 && string(data[:4]) == "VXW1"
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
		Sources: []vxcc.Source{imagec.VXCSource, haarMain},
	})
}
