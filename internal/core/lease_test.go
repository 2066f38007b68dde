package core

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"sync"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// decoderArchive writes an archive that embeds the decoder of each of
// codecs, in order and with no deduplication, and one entry per element
// of decoders: entry i is text encoded by codecs[decoders[i]], points at
// that codec's pseudo-file and carries the codec name tag.
func decoderArchive(t *testing.T, tag string, codecs []string, decoders []int) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	zw := zipfile.NewWriter(&buf)
	offs := make([]uint32, len(codecs))
	for i, name := range codecs {
		c, ok := codec.ByName(name)
		if !ok {
			t.Fatalf("codec %s not registered", name)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		if offs[i], err = zw.AddDecoder(elf); err != nil {
			t.Fatal(err)
		}
	}
	var inputs [][]byte
	for i, d := range decoders {
		c, _ := codec.ByName(codecs[d])
		data := corpus.Text(3<<10, int64(i+1))
		var enc bytes.Buffer
		if err := c.Encode(&enc, data); err != nil {
			t.Fatal(err)
		}
		hdr := zipfile.FileHeader{
			Name: string(rune('a'+i)) + ".txt", Method: zipfile.MethodVXA,
			CRC32: crc32.ChecksumIEEE(data), USize: uint32(len(data)), Mode: 0644,
			VXA: &zipfile.VXAHeader{Codec: tag, DecoderOffset: offs[d]},
		}
		if err := zw.AddFile(hdr, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, data)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), inputs
}

// extractEach decodes every entry with its archived decoder and checks
// the output against want.
func extractEach(t *testing.T, r *Reader, want [][]byte) {
	t.Helper()
	for i := range r.Entries() {
		e := &r.Entries()[i]
		got, err := r.ExtractBytes(context.Background(), e, WithMode(AlwaysVXA))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: decoded %d bytes that differ from the %d archived", e.Name, len(got), len(want[i]))
		}
	}
}

// TestSameDecoderTwoOffsetsOneLine: a Reader addresses decoders by
// content, so one decoder's bytes embedded at two offsets share one
// line — one snapshot built, one VM resumed across both entries.
func TestSameDecoderTwoOffsetsOneLine(t *testing.T) {
	arch, want := decoderArchive(t, "deflate", []string{"deflate", "deflate"}, []int{0, 1, 0, 1})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if a, b := r.Entries()[0].hdr.VXA.DecoderOffset, r.Entries()[1].hdr.VXA.DecoderOffset; a == b {
		t.Fatalf("both entries point at decoder offset %#x", a)
	}
	extractEach(t, r, want)
	if st := r.PoolStats(); st.Snapshots != 1 || st.Resumes != 3 {
		t.Fatalf("pool stats %+v: want one snapshot for one decoder's bytes and every later stream resumed", st)
	}
}

// TestTwoDecodersOneCodecName: two different decoders under one codec
// name run on two lines, each decoding its own entries.
func TestTwoDecodersOneCodecName(t *testing.T) {
	arch, want := decoderArchive(t, "deflate", []string{"deflate", "bwt"}, []int{0, 1, 1, 0})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	extractEach(t, r, want)
	if st := r.PoolStats(); st.Snapshots != 2 {
		t.Fatalf("pool stats %+v: want one snapshot per decoder", st)
	}
}

// oneEntryPerDecoder is an archive with one entry of about 4 KiB for
// each built-in decoder, pre-compressed entries included.
func oneEntryPerDecoder(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	for _, name := range builtinDecoders {
		if err := w.AddFile(name, decoderEntryData(t, name), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOwnAndSharedCacheAgree: a Reader on its own cache and a Reader on
// a shared one run the same lease path, so every entry decodes to the
// same bytes in the same guest instruction count, on the first stream
// of each decoder and on a resumed one.
func TestOwnAndSharedCacheAgree(t *testing.T) {
	arch := oneEntryPerDecoder(t)
	type result struct {
		out   []byte
		steps uint64
	}
	run := func(r *Reader, cache func() *vmpool.SnapCache) []result {
		var res []result
		for pass := 0; pass < 2; pass++ {
			for i := range r.Entries() {
				e := &r.Entries()[i]
				var out bytes.Buffer
				var before uint64
				if c := cache(); c != nil {
					before = c.Stats().VM.Steps
				}
				if _, err := r.ExtractTo(context.Background(), e, &out, WithMode(AlwaysVXA), WithDecodeAll(true)); err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
				res = append(res, result{out.Bytes(), cache().Stats().VM.Steps - before})
			}
		}
		return res
	}
	own, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	got := run(own, own.ownSnapCache)

	shared := vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: DefaultDecoderMemSize}})
	r, err := NewReader(arch)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetSnapCache(shared)
	want := run(r, func() *vmpool.SnapCache { return shared })

	for i := range want {
		name := own.Entries()[i%len(own.Entries())].Name
		if !bytes.Equal(got[i].out, want[i].out) || got[i].steps != want[i].steps || want[i].steps == 0 {
			t.Errorf("%s, stream %d: own cache %d bytes in %d steps, shared %d bytes in %d steps",
				name, i, len(got[i].out), got[i].steps, len(want[i].out), want[i].steps)
		}
	}
}

// countingReaderAt counts the reads that start at one offset: the local
// header of a decoder pseudo-file, which every read of the decoder
// begins with.
type countingReaderAt struct {
	ra  io.ReaderAt
	mu  sync.Mutex
	at  int64
	hit int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	if off == c.at {
		c.hit++
	}
	c.mu.Unlock()
	return c.ra.ReadAt(p, off)
}

// TestDecoderReadOnce: a Reader reads (and inflates) a decoder at most
// once on a cache miss — the bytes it hashed are the bytes the line is
// built from — on its own cache and on a shared one, also when the
// serving layer asked DecoderHash first.
func TestDecoderReadOnce(t *testing.T) {
	arch := firstStreamArchive(t, "deflate")
	for _, tc := range []struct {
		name              string
		shared, hashFirst bool
	}{
		{"own", false, false},
		{"shared", true, false},
		{"shared after DecoderHash", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe, err := NewReader(arch)
			if err != nil {
				t.Fatal(err)
			}
			cr := &countingReaderAt{ra: bytes.NewReader(arch), at: int64(probe.Entries()[0].hdr.VXA.DecoderOffset)}
			r, err := Open(cr, int64(len(arch)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			cr.hit = 0 // a small archive's end-record scan starts at 0 too
			if tc.shared {
				r.SetSnapCache(vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: DefaultDecoderMemSize}}))
			}
			e := &r.Entries()[0]
			if tc.hashFirst {
				if _, ok, err := r.DecoderHash(e); err != nil || !ok {
					t.Fatalf("DecoderHash: ok=%v err=%v", ok, err)
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := r.ExtractTo(context.Background(), e, io.Discard, WithMode(AlwaysVXA)); err != nil {
					t.Fatal(err)
				}
			}
			if cr.hit != 1 {
				t.Fatalf("the decoder was read %d times, want once", cr.hit)
			}
		})
	}
}
