package core

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math/rand"
	"os"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/wav"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// testInputs builds a realistic file mix: text, a WAV, a BMP, a .gz, and
// incompressible noise.
func testInputs() map[string][]byte {
	text := bytes.Repeat([]byte("all of it is preserved for the long term. "), 900)

	snd := &wav.Sound{Channels: 1, SampleRate: 8000, Samples: make([]int16, 4000)}
	for i := range snd.Samples {
		snd.Samples[i] = int16((i%200)*300 - 30000)
	}

	im := bmp.New(40, 30)
	for y := 0; y < 30; y++ {
		for x := 0; x < 40; x++ {
			im.Set(x, y, byte(x*6), byte(y*8), byte(x+y))
		}
	}

	var gz bytes.Buffer
	gw := gzip.NewWriter(&gz)
	gw.Write(text[:2000])
	gw.Close()

	r := rand.New(rand.NewSource(1))
	noise := make([]byte, 5000)
	r.Read(noise)

	return map[string][]byte{
		"docs/readme.txt": text,
		"audio/tone.wav":  wav.Encode(snd),
		"img/card.bmp":    bmp.Encode(im),
		"logs/old.gz":     gz.Bytes(),
		"blob.bin":        noise,
	}
}

func buildArchive(t *testing.T, opts WriterOptions) ([]byte, map[string][]byte) {
	t.Helper()
	inputs := testInputs()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts)
	for _, name := range []string{"docs/readme.txt", "audio/tone.wav", "img/card.bmp", "logs/old.gz", "blob.bin"} {
		if err := w.AddFile(name, inputs[name], 0644); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), inputs
}

func findEntry(t *testing.T, r *Reader, name string) *Entry {
	t.Helper()
	for i := range r.Entries() {
		if r.Entries()[i].Name == name {
			return &r.Entries()[i]
		}
	}
	t.Fatalf("entry %s not found", name)
	return nil
}

// TestArchiveRoundTripNative: write an archive, extract everything via
// the native fast path.
func TestArchiveRoundTripNative(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries()) != 5 {
		t.Fatalf("entries = %d, want 5", len(r.Entries()))
	}
	for name, want := range inputs {
		e := findEntry(t, r, name)
		got, err := r.ExtractBytes(context.Background(), e, WithMode(NativeFirst))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip mismatch (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestArchiveRoundTripVXA: the same extraction, forced through the
// archived decoders in the VM.
func TestArchiveRoundTripVXA(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range inputs {
		e := findEntry(t, r, name)
		got, err := r.ExtractBytes(context.Background(), e, WithMode(AlwaysVXA))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: VXA round trip mismatch", name)
		}
	}
}

// TestCodecSelection checks the §2.2 writer flow classifications.
func TestCodecSelection(t *testing.T) {
	arch, _ := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		codec string
		pre   bool
	}{
		"docs/readme.txt": {"deflate", false}, // general-purpose
		"audio/tone.wav":  {"lpc", false},     // lossless media codec
		"logs/old.gz":     {"gzip", true},     // redec: stored pre-compressed
		"blob.bin":        {"", false},        // incompressible: stored
	}
	for name, want := range cases {
		e := findEntry(t, r, name)
		if e.Codec != want.codec || e.PreCompressed != want.pre {
			t.Errorf("%s: codec=%q pre=%v, want %q/%v", name, e.Codec, e.PreCompressed, want.codec, want.pre)
		}
	}
	// Without AllowLossy the BMP goes through the general-purpose codec.
	if e := findEntry(t, r, "img/card.bmp"); e.Codec == "dct" || e.Codec == "haar" {
		t.Errorf("lossless-only archive used lossy codec %q", e.Codec)
	}
}

// TestLossyOptIn: with AllowLossy, BMP input is compressed by a lossy
// image codec and extraction yields a BMP (not the original bytes).
func TestLossyOptIn(t *testing.T) {
	arch, _ := buildArchive(t, WriterOptions{AllowLossy: true})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := findEntry(t, r, "img/card.bmp")
	if e.Codec != "dct" && e.Codec != "haar" {
		t.Fatalf("lossy archive used codec %q for BMP", e.Codec)
	}
	// CRC covers the original, which lossy coding cannot reproduce, so
	// Extract reports a CRC mismatch unless we accept the decoded form.
	got, err := r.ExtractBytes(context.Background(), e, WithMode(NativeFirst))
	if err == nil {
		// If it succeeded, the codec was lossless on this input, which
		// for DCT at default quality would be surprising.
		t.Fatalf("unexpectedly exact lossy round trip (%d bytes)", len(got))
	}
}

// TestDecodeAllUnpacksPreCompressed: DecodeAll turns the .gz entry into
// its fully decoded contents (§2.3 "forced decode").
func TestDecodeAllUnpacksPreCompressed(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	e := findEntry(t, r, "logs/old.gz")
	got, err := r.ExtractBytes(context.Background(), e, WithMode(AlwaysVXA), WithDecodeAll(true))
	if err != nil {
		t.Fatal(err)
	}
	gr, _ := gzip.NewReader(bytes.NewReader(inputs["logs/old.gz"]))
	want, _ := io.ReadAll(gr)
	if !bytes.Equal(got, want) {
		t.Fatalf("forced decode mismatch: %d vs %d bytes", len(got), len(want))
	}
	// Without DecodeAll the compressed form comes back.
	got2, err := r.ExtractBytes(context.Background(), e, WithMode(AlwaysVXA))
	if err != nil || !bytes.Equal(got2, inputs["logs/old.gz"]) {
		t.Fatalf("default extraction should keep the compressed form (err=%v)", err)
	}
}

// TestVerify runs the always-VXA integrity check, then corrupts the
// archive and checks the damage is reported.
func TestVerify(t *testing.T) {
	arch, _ := buildArchive(t, WriterOptions{})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r.Verify(context.Background()); len(errs) != 0 {
		t.Fatalf("verify of intact archive failed: %v", errs)
	}

	// Corrupt one payload byte of the text entry (not its headers).
	bad := append([]byte(nil), arch...)
	e := findEntry(t, r, "docs/readme.txt")
	pos := int(entryOffset(t, r, e)) + 30 + len(e.Name) + 20 // inside payload
	bad[pos] ^= 0xFF
	r2, err := NewReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	if errs := r2.Verify(context.Background()); len(errs) == 0 {
		t.Fatal("verify missed payload corruption")
	}
}

func entryOffset(t *testing.T, r *Reader, e *Entry) uint32 {
	t.Helper()
	return e.LocalOffset()
}

// TestVMReusePolicy: files sharing a decoder and security attributes
// share one VM; an attribute change forces re-initialization.
func TestVMReusePolicy(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	text := bytes.Repeat([]byte("reuse me "), 500)
	if err := w.AddFile("public1.txt", text, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile("public2.txt", text, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile("secret.key", text, 0600); err != nil { // attribute change
		t.Fatal(err)
	}
	if err := w.AddFile("public3.txt", text, 0644); err != nil { // change back
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithMode(AlwaysVXA)}
	for i := range r.Entries() {
		e := &r.Entries()[i]
		got, err := r.ExtractBytes(context.Background(), e, opts...)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !bytes.Equal(got, text) {
			t.Fatalf("%s: mismatch", e.Name)
		}
	}
	// public1 -> init (1); public2 -> reuse; secret -> reinit (2);
	// public3 -> reinit (3).
	if r.ReinitCount != 3 {
		t.Fatalf("ReinitCount = %d, want 3 (reuse only within equal attributes)", r.ReinitCount)
	}

}

// TestZipBackwardCompat: archive/zip (standing in for an old UnZIP)
// must list every real file, see no decoder pseudo-files, and extract
// the traditionally-tagged entries.
func TestZipBackwardCompat(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	zr, err := zip.NewReader(bytes.NewReader(arch), int64(len(arch)))
	if err != nil {
		t.Fatalf("archive/zip rejects vxZIP output: %v", err)
	}
	if len(zr.File) != 5 {
		t.Fatalf("old tool sees %d files, want 5 (pseudo-files must be hidden)", len(zr.File))
	}
	for _, f := range zr.File {
		if f.Name == "" {
			t.Fatal("old tool sees an anonymous decoder pseudo-file")
		}
		switch f.Method {
		case zip.Store, zip.Deflate:
			rc, err := f.Open()
			if err != nil {
				t.Fatalf("%s: old tool cannot open: %v", f.Name, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatalf("%s: old tool cannot read: %v", f.Name, err)
			}
			want := inputs[f.Name]
			if f.Name == "logs/old.gz" || f.Name == "blob.bin" || f.Name == "docs/readme.txt" {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: old tool extracted wrong bytes", f.Name)
				}
			}
		default:
			// VXA-method entries are listed but not extractable — exactly
			// the paper's compatibility contract.
		}
	}
}

// TestOpenFileLazy: the v2 open path — an archive on disk opens through
// lazy section-at-a-time parsing, extracts identically to the in-memory
// path, streams through Extract, and Close releases the file.
func TestOpenFileLazy(t *testing.T) {
	arch, inputs := buildArchive(t, WriterOptions{})
	path := t.TempDir() + "/archive.zip"
	if err := os.WriteFile(path, arch, 0644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries()) != 5 {
		t.Fatalf("entries = %d, want 5", len(r.Entries()))
	}
	// Entries() must be stable: same backing array on every call.
	if &r.Entries()[0] != &r.Entries()[0] {
		t.Fatal("Entries() re-copies per call")
	}
	for name, want := range inputs {
		e := findEntry(t, r, name)
		if e.Size() != int64(len(want)) {
			t.Fatalf("%s: Size() = %d, want %d", name, e.Size(), len(want))
		}
		stream, err := r.Extract(context.Background(), e, WithMode(AlwaysVXA))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(stream)
		stream.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed round trip mismatch", name)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderDedup: many files, one decoder copy.
func TestDecoderDedup(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	for i := 0; i < 20; i++ {
		name := string(rune('a'+i)) + ".txt"
		if err := w.AddFile(name, bytes.Repeat([]byte("dedup "), 300), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.DecoderCount() != 1 {
		t.Fatalf("decoders embedded = %d, want 1", w.DecoderCount())
	}
}
