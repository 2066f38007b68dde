package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"vxa"
	"vxa/internal/zipfile"
)

// extractWorkload is bulk_extract and small_streams: one archive, one
// long-lived Reader, ExtractTo(AlwaysVXA, ReuseVM) entry after entry by a
// single caller. They differ only in the input set: six large entries, or
// 120 small ones whose security modes change between streams.
type extractWorkload struct {
	bulk    bool
	in      *inputSet
	archive []byte
	r       *vxa.Reader
	entries map[string]*vxa.Entry
	opts    []vxa.Option
}

func (w *extractWorkload) concurrent() bool { return false }

func (w *extractWorkload) digests() map[string]string { return w.in.digests() }

func (w *extractWorkload) close() {
	if w.r != nil {
		w.r.Close()
	}
}

// buildArchive writes the streams into one archive through the public
// Writer. Text and WAV inputs go in raw (the writer picks deflate and lpc
// itself); the other four decoders' streams go in already encoded, which
// the writer recognizes and stores with the matching decoder attached.
func buildArchive(streams []*stream) ([]byte, error) {
	var buf bytes.Buffer
	zw := vxa.NewWriter(&buf, vxa.WriterOptions{})
	for _, s := range streams {
		data := s.enc
		if name := s.dec.codec.Name; name == "deflate" || name == "lpc" {
			data = s.raw
		}
		if err := zw.AddFile(s.id, data, s.mode); err != nil {
			return nil, fmt.Errorf("archive %s: %w", s.id, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// entriesByName indexes a Reader's entries and checks that each stream
// will really run its decoder (a stored entry would bypass the VM).
func entriesByName(r *vxa.Reader, streams []*stream) (map[string]*vxa.Entry, error) {
	byName := map[string]*vxa.Entry{}
	for i := range r.Entries() {
		e := &r.Entries()[i]
		byName[e.Name] = e
	}
	for _, s := range streams {
		e := byName[s.id]
		if e == nil || e.CodecName() != s.dec.codec.Name {
			return nil, fmt.Errorf("archive entry %s does not carry the %s decoder", s.id, s.dec.codec.Name)
		}
	}
	return byName, nil
}

func (w *extractWorkload) setup(seed int64) error {
	var err error
	if w.bulk {
		w.in, err = bulkInputs(seed)
	} else {
		w.in, err = ladderInputs(seed, 20, 256, 16<<10)
	}
	if err != nil {
		return err
	}
	if w.archive, err = buildArchive(w.in.streams); err != nil {
		return err
	}
	if w.r, err = vxa.OpenReader(w.archive); err != nil {
		return err
	}
	if w.entries, err = entriesByName(w.r, w.in.streams); err != nil {
		return err
	}
	w.opts = []vxa.Option{vxa.WithMode(vxa.AlwaysVXA), vxa.WithReuseVM(true), vxa.WithDecodeAll(true)}
	// Warm-up: one full pass, checked like any other.
	out := newCheckedOutput()
	for _, s := range w.in.streams {
		out.reset()
		if _, err := w.r.ExtractTo(context.Background(), w.entries[s.id], out, w.opts...); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.id, err)
		}
		if err := out.verify(s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// timeNative runs the native Go decoder on the stream's bytes.
func timeNative(s *stream) (time.Duration, error) {
	start := time.Now()
	err := s.dec.codec.Decode(io.Discard, bytes.NewReader(s.enc))
	return time.Since(start), err
}

func (w *extractWorkload) measure(d time.Duration, rec *recorder) {
	ctx := context.Background()
	out := newCheckedOutput()
	t0 := time.Now()
	for pass := 0; ; pass++ {
		for _, s := range w.in.streams {
			// The first pass always completes, however short the window
			// or slow the host; after that the clock decides.
			if pass > 0 && time.Since(t0) >= d {
				rec.passes = pass
				return
			}
			out.reset()
			start := time.Now()
			_, err := w.r.ExtractTo(ctx, w.entries[s.id], out, w.opts...)
			dur := time.Since(start)
			if err == nil {
				err = out.verify(s)
			}
			native, nerr := timeNative(s)
			if err == nil {
				err = nerr
			}
			rec.add(op{dec: s.dec.idx, pass: pass, start: start.Sub(t0), dur: dur, native: native, key: s.id, bytes: int64(s.wantLen)}, err)
		}
	}
}

func (w *extractWorkload) traced(d time.Duration, rec *recorder, tr *tracer, acc *layerAcc) {
	ctx := context.Background()
	fail := func(err error) { rec.add(op{}, err) }
	if err := setupFacts(acc, w.in); err != nil {
		fail(err)
	}
	lr, err := newLayerRunner(w.archive, tr, acc)
	if err != nil {
		fail(err)
		return
	}
	out := newCheckedOutput()
	// Warm-up pass of the traced path's own pool, not recorded.
	for _, s := range w.in.streams {
		out.reset()
		if _, err := lr.extract(ctx, -1, s, out, false); err != nil {
			fail(err)
			return
		}
	}
	pool0 := lr.pool.Stats()
	var passSteps []uint64
	opID := 0
	t0 := time.Now()
	// The traced loop runs whole passes only (the window may overrun by one
	// pass): ratios such as steps per byte are then sums over the same set
	// of streams on every run, and repeat exactly.
	for pass := 0; pass == 0 || time.Since(t0) < d; pass++ {
		rec.passes = pass + 1
		var steps uint64
		for _, s := range w.in.streams {
			out.reset()
			start := time.Now()
			facts, err := lr.extract(ctx, opID, s, out, true)
			dur := time.Since(start)
			opID++
			if err == nil {
				err = out.verify(s)
			}
			steps += facts.steps
			rec.add(op{dec: s.dec.idx, pass: pass, start: start.Sub(t0), dur: dur, bytes: int64(s.wantLen)}, err)
			// Paired with the library's own ExtractTo of the same stream,
			// right away, so host drift cancels: what the library adds
			// around the bare RunStream. The Reader's pool and the traced
			// path's go through the same sequence, hence the same
			// reset/resume pattern.
			out.reset()
			start = time.Now()
			if _, err := w.r.ExtractTo(ctx, w.entries[s.id], out, w.opts...); err != nil {
				fail(err)
			}
			acc.sample("core.extract_overhead_us", us(time.Since(start)-facts.run))
		}
		passSteps = append(passSteps, steps)
		if pass == 0 {
			// One pass is one period of the pool's reset/resume pattern,
			// so its counts repeat exactly for a given seed.
			p := lr.pool.Stats()
			acc.set("vmpool.resets", float64(p.Resets-pool0.Resets))
			acc.set("vmpool.resumes", float64(p.Resumes-pool0.Resumes))
			acc.set("vmpool.builds", float64(p.Builds-pool0.Builds))
			acc.set("vmpool.discards", float64(p.Discards-pool0.Discards))
		}
	}
	for _, s := range passSteps {
		if s != passSteps[0] {
			fail(fmt.Errorf("guest instructions per pass differ between passes: %v", passSteps))
			break
		}
	}
	if len(passSteps) > 0 {
		acc.set("vm.steps_per_pass", float64(passSteps[0]))
	}
	if err := measureReset(ctx, acc, w.in.streams); err != nil {
		fail(err)
	}
	if !w.bulk {
		if err := w.parallelSpeedup(ctx, acc); err != nil {
			fail(err)
		}
	}
}

// parallelSpeedup times ExtractAll over the whole archive with one worker
// and with one worker per processor of the host (the processors this
// single-caller workload otherwise leaves alone are handed back for it),
// each on a fresh Reader so neither sees the other's warm pool.
func (w *extractWorkload) parallelSpeedup(ctx context.Context, acc *layerAcc) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	run := func(parallel int) (time.Duration, error) {
		r, err := vxa.OpenReader(w.archive)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		start := time.Now()
		results := r.ExtractAll(ctx, append([]vxa.Option{vxa.WithParallel(parallel)}, w.opts...)...)
		dur := time.Since(start)
		for _, res := range results {
			if res.Err != nil {
				return 0, fmt.Errorf("ExtractAll %s: %w", res.Entry.Name, res.Err)
			}
		}
		return dur, nil
	}
	serial, err := run(1)
	if err != nil {
		return err
	}
	parallel, err := run(hostProcs)
	if err != nil {
		return err
	}
	acc.set("core.parallel_speedup", float64(serial)/float64(parallel))
	return nil
}

// setupFacts reports compile time and size per decoder, the native
// encoders' and decoders' rates as the last set-up measured them, and the
// bytes the six embedded decoders add to any archive (Table 2's
// "compressed" column, summed).
func setupFacts(acc *layerAcc, in *inputSet) error {
	var buf bytes.Buffer
	zw := zipfile.NewWriter(&buf)
	for _, d := range in.decoders {
		zw.AddDecoder(d.elf) // cannot fail on a bytes.Buffer; the size is what is reported
	}
	acc.set("archive.decoder_kb", float64(buf.Len())/1024)
	for _, d := range in.decoders {
		name := d.codec.Name
		if ns := in.nativeNS[d.idx]; ns > 0 {
			acc.set("codec.native_mbps."+name, float64(in.rawBytes[d.idx])/1e6/ns.Seconds())
		}
		if ns := in.encodeNS[d.idx]; ns > 0 {
			acc.set("codec.encode_mbps."+name, float64(in.rawBytes[d.idx])/1e6/ns.Seconds())
		}
	}
	return compileFacts(acc, in.decoders)
}
