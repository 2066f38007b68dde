package dctimg

import (
	"bytes"
	"math"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/vm"
)

// testImage builds a deterministic gradient-plus-shapes test card.
func testImage(w, h int) *bmp.Image {
	im := bmp.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := byte(x * 255 / maxi(w-1, 1))
			g := byte(y * 255 / maxi(h-1, 1))
			b := byte((x + y) % 256)
			// A few hard edges to stress the transform.
			if (x/16+y/16)%2 == 0 {
				r, g, b = 255-r, g/2, 255-b
			}
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func psnr(a, b *bmp.Image) float64 {
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestDCTSelfInverse(t *testing.T) {
	var blk [64]int32
	for i := range blk {
		blk[i] = int32((i*37)%256) - 128
	}
	orig := blk
	fdct2(&blk)
	idct2(&blk)
	for i := range blk {
		d := blk[i] - orig[i]
		if d < -2 || d > 2 {
			t.Fatalf("idct(fdct) drift at %d: %d vs %d", i, blk[i], orig[i])
		}
	}
}

func TestEncodeDecodeQuality(t *testing.T) {
	im := testImage(96, 64)
	raw := bmp.Encode(im)
	for _, q := range []int{30, 75, 95} {
		var enc bytes.Buffer
		if err := EncodeQuality(&enc, raw, q); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		var dec bytes.Buffer
		if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("q=%d: decode: %v", q, err)
		}
		got, err := bmp.Decode(dec.Bytes())
		if err != nil {
			t.Fatalf("q=%d: output not BMP: %v", q, err)
		}
		if got.W != im.W || got.H != im.H {
			t.Fatalf("q=%d: dims %dx%d", q, got.W, got.H)
		}
		p := psnr(im, got)
		if p < 20 {
			t.Fatalf("q=%d: PSNR %.1f dB too low", q, p)
		}
		if q >= 95 && p < 30 {
			t.Fatalf("q=%d: PSNR %.1f dB too low for high quality", q, p)
		}
	}
	// Higher quality must cost more bytes.
	var lo, hi bytes.Buffer
	EncodeQuality(&lo, raw, 20)
	EncodeQuality(&hi, raw, 95)
	if hi.Len() <= lo.Len() {
		t.Fatalf("quality 95 (%d bytes) not larger than quality 20 (%d bytes)", hi.Len(), lo.Len())
	}
}

func TestOddDimensions(t *testing.T) {
	for _, d := range []struct{ w, h int }{{1, 1}, {7, 5}, {17, 9}, {8, 8}} {
		im := testImage(d.w, d.h)
		raw := bmp.Encode(im)
		var enc, dec bytes.Buffer
		if err := Encode(&enc, raw); err != nil {
			t.Fatalf("%dx%d: %v", d.w, d.h, err)
		}
		if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("%dx%d: decode: %v", d.w, d.h, err)
		}
		got, err := bmp.Decode(dec.Bytes())
		if err != nil || got.W != d.w || got.H != d.h {
			t.Fatalf("%dx%d: got %v err %v", d.w, d.h, got, err)
		}
	}
}

// TestVXADecoderBitExact: the archived decoder must reproduce the native
// decoder's BMP byte for byte, under a zero vm.Config: RunVXA's default
// decoder memory holds the decoder's three image planes.
func TestVXADecoderBitExact(t *testing.T) {
	c, ok := codec.ByName("dct")
	if !ok {
		t.Fatal("dct codec not registered")
	}
	im := testImage(72, 48)
	raw := bmp.Encode(im)
	var enc bytes.Buffer
	if err := Encode(&enc, raw); err != nil {
		t.Fatal(err)
	}
	var nat bytes.Buffer
	if err := Decode(&nat, bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunVXA(enc.Bytes(), vm.Config{})
	if err != nil {
		t.Fatalf("vxa: %v", err)
	}
	if !bytes.Equal(got, nat.Bytes()) {
		t.Fatalf("vxa BMP (%d bytes) differs from native BMP (%d bytes)", len(got), nat.Len())
	}
}

func TestRejectsGarbage(t *testing.T) {
	var dec bytes.Buffer
	if err := Decode(&dec, bytes.NewReader([]byte("VXJ1 garbage"))); err == nil {
		t.Fatal("garbage decoded")
	}
	if err := Decode(&dec, bytes.NewReader([]byte("not an image"))); err == nil {
		t.Fatal("non-image decoded")
	}
}
