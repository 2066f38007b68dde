package zipfile

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	decoder := bytes.Repeat([]byte{0x7F, 'E', 'L', 'F', 1, 2, 3}, 500)
	decOff, err := w.AddDecoder(decoder)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("compressed payload bytes")
	orig := []byte("the original uncompressed data")
	hdr := FileHeader{
		Name:   "a/b.txt",
		Method: MethodVXA,
		CRC32:  crc32.ChecksumIEEE(orig),
		USize:  uint32(len(orig)),
		Mode:   0640,
		VXA:    &VXAHeader{Codec: "bwt", DecoderOffset: decOff},
	}
	if err := w.AddFile(hdr, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile(FileHeader{Name: "plain.bin", Method: MethodStore,
		CRC32: crc32.ChecksumIEEE(payload), USize: uint32(len(payload))}, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 2 {
		t.Fatalf("files = %d, want 2 (pseudo-file must be hidden)", len(r.Files))
	}
	f := &r.Files[0]
	if f.Name != "a/b.txt" || f.Method != MethodVXA || f.Mode != 0640 {
		t.Fatalf("header round trip: %+v", f)
	}
	if f.VXA == nil || f.VXA.Codec != "bwt" || f.VXA.DecoderOffset != decOff {
		t.Fatalf("VXA extension round trip: %+v", f.VXA)
	}
	got, err := r.Payload(f)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload: %v", err)
	}
	dec, err := r.Decoder(decOff)
	if err != nil || !bytes.Equal(dec, decoder) {
		t.Fatalf("decoder pseudo-file: %v (%d bytes)", err, len(dec))
	}
}

// TestVXAHeaderProperty round-trips arbitrary VXA extension headers.
func TestVXAHeaderProperty(t *testing.T) {
	f := func(codecName string, off uint32, pre bool) bool {
		if len(codecName) > 255 {
			codecName = codecName[:255]
		}
		h := &VXAHeader{Codec: codecName, DecoderOffset: off, PreCompressed: pre}
		got, err := parseVXAExtra(h.encode())
		if err != nil || got == nil {
			return false
		}
		return got.Codec == codecName && got.DecoderOffset == off && got.PreCompressed == pre
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestForeignExtraFieldsIgnored: VXA headers coexist with other extras.
func TestForeignExtraFieldsIgnored(t *testing.T) {
	h := &VXAHeader{Codec: "zlib", DecoderOffset: 42}
	foreign := []byte{0x55, 0x54, 4, 0, 1, 2, 3, 4} // UT timestamp field
	extra := append(foreign, h.encode()...)
	got, err := parseVXAExtra(extra)
	if err != nil || got == nil || got.Codec != "zlib" {
		t.Fatalf("got %+v err %v", got, err)
	}
	// And no VXA field at all parses to nil, nil.
	got2, err := parseVXAExtra(foreign)
	if err != nil || got2 != nil {
		t.Fatalf("foreign-only extra: %+v %v", got2, err)
	}
}

func TestStdlibInterop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	data := []byte("interop data stored uncompressed")
	w.AddFile(FileHeader{Name: "x.txt", Method: MethodStore,
		CRC32: crc32.ChecksumIEEE(data), USize: uint32(len(data)), Mode: 0644}, data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("archive/zip rejects our output: %v", err)
	}
	rc, err := zr.File[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stdlib extraction: %v", err)
	}
	if zr.File[0].Mode().Perm() != 0644 {
		t.Fatalf("mode = %v", zr.File[0].Mode())
	}
}

func TestReaderRejects(t *testing.T) {
	if _, err := NewReader([]byte("way too short")); !errors.Is(err, ErrFormat) {
		t.Errorf("short: %v", err)
	}
	if _, err := NewReader(make([]byte, 100)); !errors.Is(err, ErrFormat) {
		t.Errorf("no EOCD: %v", err)
	}
	// Valid archive, then truncate the central directory.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.AddFile(FileHeader{Name: "f", Method: MethodStore}, []byte("x"))
	w.Close()
	b := buf.Bytes()
	cut := append([]byte{}, b[:40]...)
	cut = append(cut, b[len(b)-22:]...)
	if _, err := NewReader(cut); err == nil {
		t.Error("truncated central directory accepted")
	}
}

// TestDecoderNotInCentralDirectory: decoders never appear in listings
// even when files reference them.
func TestDecoderNotInCentralDirectory(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if _, err := w.AddDecoder(bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	w.AddFile(FileHeader{Name: "only.txt", Method: MethodStore}, []byte("data"))
	w.Close()
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 1 {
		t.Fatalf("visible files = %d, want 1", len(r.Files))
	}
	zr, err := zip.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(zr.File) != 1 {
		t.Fatalf("archive/zip sees %d files, want 1", len(zr.File))
	}
}

// TestDecoderDeflaterReuse: the deflater a Writer keeps across decoders
// is Reset between them, so each pseudo-file holds exactly what a fresh
// deflater makes of its decoder, and reads back whole.
func TestDecoderDeflaterReuse(t *testing.T) {
	decoders := [][]byte{
		bytes.Repeat([]byte{0x7F, 'E', 'L', 'F', 1, 2, 3}, 700),
		[]byte("a short decoder of a single line"),
		make([]byte, 5000),
	}
	for i := range decoders[2] {
		decoders[2][i] = byte(i * i >> 3)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	offs := make([]uint32, len(decoders))
	for i, d := range decoders {
		off, err := w.AddDecoder(d)
		if err != nil {
			t.Fatal(err)
		}
		offs[i] = off
	}
	if err := w.AddFile(FileHeader{Name: "f", Method: MethodStore}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decoders {
		var fresh bytes.Buffer
		fw, err := flate.NewWriter(&fresh, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(d); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		start, csize, _, _, err := r.sectionAt(offs[i])
		if err != nil {
			t.Fatal(err)
		}
		if stored := buf.Bytes()[start : start+csize]; !bytes.Equal(stored, fresh.Bytes()) {
			t.Errorf("decoder %d: %d compressed bytes stored, a fresh deflater makes %d, or they differ",
				i, len(stored), fresh.Len())
		}
		got, err := r.Decoder(offs[i])
		if err != nil {
			t.Fatalf("decoder %d: %v", i, err)
		}
		if !bytes.Equal(got, d) {
			t.Errorf("decoder %d: read back %d bytes that differ from the %d stored", i, len(got), len(d))
		}
	}
}
