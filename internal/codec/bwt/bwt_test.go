package bwt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"vxa/internal/codec"
	"vxa/internal/vm"
)

func TestTransformKnown(t *testing.T) {
	// The classic example: BWT("banana") over rotations.
	last, idx := Transform([]byte("banana"))
	got, err := Inverse(last, idx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "banana" {
		t.Fatalf("inverse = %q", got)
	}
}

// TestBWTRoundTripProperty: Inverse(Transform(x)) == x for arbitrary x.
func TestBWTRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		last, idx := Transform(data)
		got, err := Inverse(last, idx)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBWTRepetitive: prefix doubling must handle pathological inputs.
func TestBWTRepetitive(t *testing.T) {
	for _, data := range [][]byte{
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte("ab"), 5000),
		bytes.Repeat([]byte("aaab"), 2500),
	} {
		last, idx := Transform(data)
		got, err := Inverse(last, idx)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip failed on repetitive input (err=%v)", err)
		}
	}
}

func TestMTFRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(mtfDecode(mtfEncode(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func testCorpus() map[string][]byte {
	r := rand.New(rand.NewSource(3))
	random := make([]byte, 50000)
	r.Read(random)
	text := bytes.Repeat([]byte("compression ratios improve when inputs repeat. "), 1500)
	return map[string][]byte{
		"empty":  {},
		"one":    {42},
		"text":   text,
		"random": random,
		"zeros":  make([]byte, 70000),
		"multi":  bytes.Repeat([]byte("block boundary crossing data "), 12000), // > 2 blocks
	}
}

func TestNativeRoundTrip(t *testing.T) {
	for name, data := range testCorpus() {
		var enc bytes.Buffer
		if err := Encode(&enc, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var dec bytes.Buffer
		if err := Decode(&dec, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(dec.Bytes(), data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		if name == "text" && enc.Len() >= len(data)/3 {
			t.Errorf("%s: poor compression: %d -> %d", name, len(data), enc.Len())
		}
	}
}

func TestVXADecoderMatchesNative(t *testing.T) {
	c, ok := codec.ByName("bwt")
	if !ok {
		t.Fatal("bwt codec not registered")
	}
	for name, data := range testCorpus() {
		if len(data) > 80000 {
			data = data[:80000] // keep interpreter time reasonable
		}
		var enc bytes.Buffer
		if err := Encode(&enc, data); err != nil {
			t.Fatal(err)
		}
		got, err := c.RunVXA(enc.Bytes(), vm.Config{})
		if err != nil {
			t.Fatalf("%s: vxa: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: vxa decode mismatch: got %d want %d bytes", name, len(got), len(data))
		}
	}
}

func TestCorruptStreamRejected(t *testing.T) {
	data := bytes.Repeat([]byte("sensitive archive contents "), 400)
	var enc bytes.Buffer
	if err := Encode(&enc, data); err != nil {
		t.Fatal(err)
	}
	stream := enc.Bytes()
	r := rand.New(rand.NewSource(11))
	detected := 0
	for trial := 0; trial < 25; trial++ {
		bad := append([]byte{}, stream...)
		bad[8+r.Intn(len(bad)-8)] ^= 0xFF // keep the magic intact
		var dec bytes.Buffer
		if err := Decode(&dec, bytes.NewReader(bad)); err != nil {
			detected++
			continue
		}
		// Without a checksum some corruptions decode to wrong bytes; the
		// format detects structural damage, the archive CRC catches the rest.
		if !bytes.Equal(dec.Bytes(), data) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no corruption affected the output at all")
	}
}
