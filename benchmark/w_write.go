package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"time"

	"vxa"
	"vxa/internal/codec"
	"vxa/internal/vxcc"
	"vxa/internal/zipfile"
)

// writeWorkload is archive_write: compile the six decoders with vxcc and
// write one archive that embeds all of them. No guest code runs, so an
// engine change must leave it alone, while a vxcc change that bloats or
// slows the decoders' compilation shows here.
type writeWorkload struct {
	in    *inputSet
	files []archFile
	raw   int64 // bytes handed to AddFile per archive
}

// archFile is one input of the archive with the codec the writer is
// expected to choose for it.
type archFile struct {
	name  string
	data  []byte
	mode  uint32
	codec *codec.Codec
	pre   bool // data is already encoded; the writer stores it as it is
}

func (w *writeWorkload) concurrent() bool { return false }

func (w *writeWorkload) close() {}

func (w *writeWorkload) digests() map[string]string {
	out := map[string]string{}
	for _, f := range w.files {
		h := sha256.Sum256(f.data)
		out[f.name] = hex.EncodeToString(h[:])
	}
	return out
}

func (w *writeWorkload) setup(seed int64) error {
	// 30 small files, five per decoder, 1-16 KiB raw: text and WAV go in
	// raw, the other four decoders' files already encoded — the only way
	// a default (lossless) writer embeds all six decoders.
	in, err := ladderInputs(seed, 5, 1<<10, 16<<10)
	if err != nil {
		return err
	}
	w.in = in
	by := map[string]*decoder{}
	for _, d := range in.decoders {
		by[d.codec.Name] = d
	}
	w.files = []archFile{
		{name: "big/text.txt", data: genRaw("text", 1<<20, subSeed(seed, 1000)), mode: 0644, codec: by["deflate"].codec},
		{name: "big/image.bmp", data: genRaw("image", 3*256*256, subSeed(seed, 1001)), mode: 0644, codec: by["deflate"].codec},
		{name: "big/sound.wav", data: genRaw("audio", 4*88200, subSeed(seed, 1002)), mode: 0644, codec: by["lpc"].codec},
	}
	for _, s := range in.streams {
		f := archFile{name: "small/" + s.id, data: s.enc, mode: s.mode, codec: s.dec.codec, pre: true}
		if name := s.dec.codec.Name; name == "deflate" || name == "lpc" {
			f.data, f.pre = s.raw, false
		}
		w.files = append(w.files, f)
	}
	w.raw = 0
	for _, f := range w.files {
		w.raw += int64(len(f.data))
	}
	// Warm-up: one archive, checked natively and — once per set-up — by
	// running every entry through its archived decoder in the sandbox.
	arch, _, err := w.writeArchive()
	if err != nil {
		return err
	}
	if err := w.verify(arch, true); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// writeArchive is the measured op: six compiles and one archive.
func (w *writeWorkload) writeArchive() ([]byte, time.Duration, error) {
	start := time.Now()
	for _, d := range w.in.decoders {
		if _, err := vxcc.Compile(vxcc.Options{}, d.codec.Sources...); err != nil {
			return nil, 0, err
		}
	}
	var buf bytes.Buffer
	zw := vxa.NewWriter(&buf, vxa.WriterOptions{})
	for _, f := range w.files {
		if err := zw.AddFile(f.name, f.data, f.mode); err != nil {
			return nil, 0, fmt.Errorf("AddFile %s: %w", f.name, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, 0, err
	}
	dur := time.Since(start)
	if n := zw.DecoderCount(); n != len(w.in.decoders) {
		return nil, 0, fmt.Errorf("archive embeds %d decoders, want %d", n, len(w.in.decoders))
	}
	return buf.Bytes(), dur, nil
}

// verify reads the archive back: every entry must carry the expected
// codec and extract (natively) to the bytes that went in. With sandbox
// set, the archived decoders also decode every entry in the VM.
func (w *writeWorkload) verify(arch []byte, sandbox bool) error {
	r, err := vxa.OpenReader(arch)
	if err != nil {
		return err
	}
	defer r.Close()
	if len(r.Entries()) != len(w.files) {
		return fmt.Errorf("archive lists %d entries, want %d", len(r.Entries()), len(w.files))
	}
	ctx := context.Background()
	for i, f := range w.files {
		e := &r.Entries()[i]
		if e.Name != f.name || e.CodecName() != f.codec.Name || e.PreCompressed != f.pre {
			return fmt.Errorf("entry %d is %s/%s pre=%v, want %s/%s pre=%v", i, e.Name, e.CodecName(), e.PreCompressed, f.name, f.codec.Name, f.pre)
		}
		got, err := r.ExtractBytes(ctx, e)
		if err != nil {
			return fmt.Errorf("read back %s: %w", f.name, err)
		}
		if !bytes.Equal(got, f.data) {
			return fmt.Errorf("read back %s: %d bytes differ from the %d archived", f.name, len(got), len(f.data))
		}
	}
	if sandbox {
		if errs := r.Verify(ctx); len(errs) > 0 {
			return fmt.Errorf("sandboxed verify: %w", errs[0])
		}
	}
	return nil
}

// nativeEncode times the bare native encoders on the files the writer
// compresses itself: the denominator of slowdown_x on this workload.
func (w *writeWorkload) nativeEncode() (time.Duration, error) {
	var total time.Duration
	var buf bytes.Buffer
	for _, f := range w.files {
		if f.pre {
			continue
		}
		buf.Reset()
		start := time.Now()
		if err := f.codec.Encode(&buf, f.data); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total, nil
}

func (w *writeWorkload) measure(d time.Duration, rec *recorder) {
	t0 := time.Now()
	for pass := 0; ; pass++ {
		if pass > 0 && time.Since(t0) >= d {
			rec.passes = pass
			return
		}
		start := time.Now()
		arch, dur, err := w.writeArchive()
		if err == nil {
			err = w.verify(arch, false)
		}
		native, nerr := w.nativeEncode()
		if err == nil {
			err = nerr
		}
		rec.add(op{dec: -1, pass: pass, start: start.Sub(t0), dur: dur, native: native, bytes: w.raw}, err)
	}
}

func (w *writeWorkload) traced(d time.Duration, rec *recorder, tr *tracer, acc *layerAcc) {
	if err := setupFacts(acc, w.in); err != nil {
		rec.add(op{}, err)
	}
	want, _, err := w.writeArchive()
	if err != nil {
		rec.add(op{}, err)
		return
	}
	acc.set("archive.bytes", float64(len(want)))
	t0 := time.Now()
	for pass := 0; ; pass++ {
		if pass > 0 && time.Since(t0) >= d {
			rec.passes = pass
			break
		}
		start := time.Now()
		arch, err := w.tracedWrite(pass, tr, acc)
		dur := time.Since(start)
		if err == nil && !bytes.Equal(arch, want) {
			err = fmt.Errorf("the layer-by-layer archive differs from the Writer's")
		}
		rec.add(op{dec: -1, pass: pass, start: start.Sub(t0), dur: dur, bytes: w.raw}, err)
	}
}

// tracedWrite is writeArchive taken apart along the Writer's own steps.
func (w *writeWorkload) tracedWrite(opID int, tr *tracer, acc *layerAcc) ([]byte, error) {
	root := tr.begin(rootSpan, opID, -1)
	defer tr.end(root)
	// The compiles are timed, but the archive embeds the ELF the Writer
	// embeds (Codec.DecoderELF, cached per process): two compiles differ
	// in data layout, and the result must equal the Writer's byte for byte.
	elfs := map[string][]byte{}
	for _, d := range w.in.decoders {
		sp := tr.begin("vxcc.compile", opID, root)
		_, err := vxcc.Compile(vxcc.Options{}, d.codec.Sources...)
		acc.sample("vxcc.compile_ms."+d.codec.Name, ms(tr.end(sp)))
		if err != nil {
			return nil, err
		}
		elfs[d.codec.Name] = d.elf
	}
	var buf bytes.Buffer
	zw := zipfile.NewWriter(&buf)
	offsets := map[string]uint32{}
	var zipNS time.Duration
	for _, f := range w.files {
		name := f.codec.Name
		if _, ok := offsets[name]; !ok {
			sp := tr.begin("zipfile.add_decoder", opID, root)
			off, err := zw.AddDecoder(elfs[name])
			zipNS += tr.end(sp)
			if err != nil {
				return nil, err
			}
			offsets[name] = off
		}
		sp := tr.begin("core.crc32", opID, root)
		hdr := zipfile.FileHeader{
			Name: f.name, CRC32: crc32.ChecksumIEEE(f.data), USize: uint32(len(f.data)), Mode: f.mode,
			VXA: &zipfile.VXAHeader{Codec: name, DecoderOffset: offsets[name], PreCompressed: f.pre},
		}
		tr.end(sp)
		payload := f.data
		if f.pre {
			hdr.Method = zipfile.MethodStore
		} else {
			var enc bytes.Buffer
			sp := tr.begin("codec.encode", opID, root)
			err := f.codec.Encode(&enc, f.data)
			encDur := tr.end(sp)
			if err != nil {
				return nil, err
			}
			acc.ratio("codec.encode_mbps."+name, float64(len(f.data))/1e6, encDur.Seconds())
			payload = enc.Bytes()
			hdr.Method = zipfile.MethodVXA
			if f.codec.ZipMethod != 0 {
				hdr.Method = f.codec.ZipMethod
			}
		}
		sp = tr.begin("zipfile.add_file", opID, root)
		err := zw.AddFile(hdr, payload)
		zipNS += tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := tr.begin("zipfile.close", opID, root)
	err := zw.Close()
	zipNS += tr.end(sp)
	if err != nil {
		return nil, err
	}
	acc.sample("zipfile.write_ms", ms(zipNS))
	return buf.Bytes(), nil
}
