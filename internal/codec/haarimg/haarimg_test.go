package haarimg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/vm"
)

func testImage(w, h int) *bmp.Image {
	im := bmp.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y,
				byte(128+64*math.Sin(float64(x)/9)),
				byte(128+64*math.Sin(float64(y)/7)),
				byte((x*x+y*y)%256))
		}
	}
	return im
}

// TestSTransformRoundTripProperty: the integer S-transform is exactly
// reversible on arbitrary planes.
func TestSTransformRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		cw := (1 + r.Intn(16)) * 2
		ch := (1 + r.Intn(16)) * 2
		stride := cw + r.Intn(8)
		p := make([]int32, stride*ch)
		for i := range p {
			p[i] = int32(r.Intn(2048) - 1024)
		}
		orig := append([]int32(nil), p...)
		forward(p, stride, cw, ch)
		inverse(p, stride, cw, ch)
		for y := 0; y < ch; y++ {
			for x := 0; x < cw; x++ {
				if p[y*stride+x] != orig[y*stride+x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLosslessAtStepOne(t *testing.T) {
	// With q=1 every band has step 1: the codec becomes lossless except
	// for the (lossy) color transform. Verify plane-exact recovery by
	// checking PSNR is very high.
	im := testImage(64, 64)
	raw := bmp.Encode(im)
	var enc, dec bytes.Buffer
	if err := EncodeParams(&enc, raw, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := bmp.Decode(dec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p := psnr(im, got); p < 37 {
		t.Fatalf("q=1 PSNR = %.1f dB; color round trip should dominate", p)
	}
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

func TestQualityVsSize(t *testing.T) {
	im := testImage(128, 96)
	raw := bmp.Encode(im)
	var prevSize int
	for i, q := range []int32{2, 16, 64} {
		var enc, dec bytes.Buffer
		if err := EncodeParams(&enc, raw, 3, q); err != nil {
			t.Fatal(err)
		}
		if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatal(err)
		}
		got, _ := bmp.Decode(dec.Bytes())
		p := psnr(im, got)
		if p < 18 {
			t.Fatalf("q=%d: PSNR %.1f dB too low", q, p)
		}
		if i > 0 && enc.Len() >= prevSize {
			t.Fatalf("coarser q=%d did not shrink the stream (%d vs %d)", q, enc.Len(), prevSize)
		}
		prevSize = enc.Len()
	}
}

func TestOddDimensions(t *testing.T) {
	for _, d := range []struct{ w, h int }{{1, 1}, {13, 27}, {33, 15}} {
		im := testImage(d.w, d.h)
		raw := bmp.Encode(im)
		var enc, dec bytes.Buffer
		if err := Encode(&enc, raw); err != nil {
			t.Fatalf("%dx%d: %v", d.w, d.h, err)
		}
		if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("%dx%d: %v", d.w, d.h, err)
		}
		got, err := bmp.Decode(dec.Bytes())
		if err != nil || got.W != d.w || got.H != d.h {
			t.Fatalf("%dx%d: err %v", d.w, d.h, err)
		}
	}
}

// TestVXADecoderBitExact: the archived decoder must reproduce the native
// decoder's BMP byte for byte, under a zero vm.Config: RunVXA's default
// decoder memory holds the decoder's three image planes.
func TestVXADecoderBitExact(t *testing.T) {
	c, ok := codec.ByName("haar")
	if !ok {
		t.Fatal("haar codec not registered")
	}
	im := testImage(56, 40)
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
		t.Fatal("vxa BMP differs from native BMP")
	}
}
