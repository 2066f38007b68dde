package zipfile

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzSeedArchive builds a small valid archive (one stored file, one
// VXA-tagged file, one decoder pseudo-file) so the fuzzer starts from
// structurally interesting bytes.
func fuzzSeedArchive(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	decOff, err := w.AddDecoder(bytes.Repeat([]byte{0x90}, 256))
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.AddFile(FileHeader{
		Name: "stored.txt", Method: MethodStore,
		CRC32: 0x1234, USize: 5, Mode: 0644,
	}, []byte("hello")); err != nil {
		tb.Fatal(err)
	}
	if err := w.AddFile(FileHeader{
		Name: "coded.bin", Method: MethodVXA,
		CRC32: 0x5678, USize: 9, Mode: 0600,
		VXA: &VXAHeader{Codec: "deflate", DecoderOffset: decOff, PreCompressed: false},
	}, []byte{1, 2, 3}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzZipParse feeds arbitrary bytes through the whole container parse
// surface: central directory, VXA extension headers, local headers,
// payload extraction and decoder-pseudo-file decompression. The parser
// must reject garbage with an error — never panic, never over-read.
func FuzzZipParse(f *testing.F) {
	seed := fuzzSeedArchive(f)
	f.Add(seed)
	f.Add([]byte("PK\x05\x06"))
	f.Add(bytes.Repeat([]byte{0}, 22))
	// A seed with the EOCD signature buried in a trailing comment.
	f.Add(append(append([]byte{}, seed...), "comment PK\x05\x06 inside"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return // malformed: rejected, which is the contract
		}
		for i := range r.Files {
			fh := &r.Files[i]
			if _, err := r.Payload(fh); err != nil {
				continue
			}
			if fh.VXA != nil {
				// Decoder offsets come from attacker-controlled extra
				// fields; following them must stay memory-safe.
				_, _ = r.Decoder(fh.VXA.DecoderOffset)
			}
		}
	})
}

// TestDecoderSizeCap pins the decompression-bomb guard: a pseudo-file
// claiming an absurd decompressed size is rejected before inflation.
func TestDecoderSizeCap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	off, err := w.AddDecoder(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile(FileHeader{Name: "f", Method: MethodStore}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The decoder's local header stores usize at offset+22; claim 1 GiB.
	usz := off + 22
	data[usz], data[usz+1], data[usz+2], data[usz+3] = 0, 0, 0, 0x40
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decoder(off); err == nil {
		t.Fatal("decoder pseudo-file over the size cap was not rejected")
	}
}

// decoderArchive is a one-decoder archive (a 1 KiB decoder of varied
// bytes, then one stored file) with the decoder's offset.
func decoderArchive(t *testing.T) ([]byte, uint32) {
	t.Helper()
	elf := make([]byte, 1024)
	for i := range elf {
		elf[i] = byte(i * 7 / 5)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	off, err := w.AddDecoder(elf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFile(FileHeader{Name: "f", Method: MethodStore}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), off
}

// decoderErr rewrites one little-endian field of the decoder's local
// header (offset within the header) and returns what Decoder reports.
func decoderErr(t *testing.T, field int, value uint32) error {
	t.Helper()
	data, off := decoderArchive(t)
	binary.LittleEndian.PutUint32(data[int(off)+field:], value)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Decoder(off)
	return err
}

// TestDecoderSizeUnderstated: a header claiming fewer bytes than the
// stream inflates to, under the cap, is refused; the reader never hands
// out a decoder cut to the claimed size.
func TestDecoderSizeUnderstated(t *testing.T) {
	err := decoderErr(t, 22, 1000)
	if err == nil || !strings.Contains(err.Error(), "decoder size mismatch") {
		t.Fatalf("usize 1000 for a 1024-byte decoder: got %v, want a size mismatch", err)
	}
}

// TestDecoderSizeOverstated: a header claiming more bytes than the
// stream inflates to, under the cap, is refused.
func TestDecoderSizeOverstated(t *testing.T) {
	err := decoderErr(t, 22, 2048)
	if err == nil || !strings.Contains(err.Error(), "decoder size mismatch") {
		t.Fatalf("usize 2048 for a 1024-byte decoder: got %v, want a size mismatch", err)
	}
}

// TestDecoderStreamTruncated: a deflate stream cut short is a
// decompression error, not a size mismatch, even though it too inflates
// to fewer bytes than the header claims.
func TestDecoderStreamTruncated(t *testing.T) {
	data, off := decoderArchive(t)
	csize := binary.LittleEndian.Uint32(data[int(off)+18:])
	err := decoderErr(t, 18, csize/2)
	if err == nil || !strings.Contains(err.Error(), "decoder decompression") {
		t.Fatalf("csize %d of %d: got %v, want a decompression error", csize/2, csize, err)
	}
}
