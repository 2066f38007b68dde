package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"vxa"
	"vxa/internal/artifact"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// startWorkload is cold_start and diskwarm_start: what the first stream of
// a decoder costs a process that has nothing in memory. Every op opens
// the archive afresh, extracts one serving-size entry and closes; the
// disk-warm variant goes through a fresh SnapCache over an artifact store
// that set-up populated, as a restarted vxad shard would.
type startWorkload struct {
	diskwarm bool
	in       *inputSet
	archive  []byte
	opts     []vxa.Option
	dir      string // scratch directory holding the artifact store
	storeDir string
}

// Every decoder gets startStreamsPerDecoder entries of startStreamBytes
// raw bytes, each with contents of its own. With one entry per decoder a
// run's figure hung on one draw of contents per decoder (which guest paths
// a stream makes hot decides what the engine translates and compiles for
// it) and the 90th percentile on six distinct values; four draws brought
// cold_start's spread over seeds from 4-7% to 3%.
const (
	startStreamBytes       = 4 << 10
	startStreamsPerDecoder = 4
)

// startPassesPerSecond fixes the amount of work of a start workload: it
// runs this many passes (one op per entry) for every second of window
// asked for, a bit over half of what one core manages today, rather than
// as many as fit. Every op of diskwarm_start leaves its artifact mapped
// for the life of the process (artifact.Store pins what it loads), so peak
// memory follows the op count; a fixed count keeps it a property of the
// product and not of how fast the host happened to run.
const startPassesPerSecond = 2

func startPasses(d time.Duration) int {
	if n := int(d.Seconds() * startPassesPerSecond); n > numSlices {
		return n
	}
	return numSlices
}

func (w *startWorkload) concurrent() bool { return false }

func (w *startWorkload) digests() map[string]string { return w.in.digests() }

func (w *startWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// snapCacheConfig is the cache a Reader is given in the disk-warm path.
func snapCacheConfig(store *artifact.Store) vxa.SnapCacheConfig {
	return vxa.SnapCacheConfig{VM: vm.Config{MemSize: decoderMemSize}, Artifacts: store}
}

func (w *startWorkload) setup(seed int64) error {
	var err error
	if w.in, err = ladderInputs(seed, startStreamsPerDecoder, startStreamBytes, startStreamBytes); err != nil {
		return err
	}
	// One mode for every entry: the snapshot cache keeps a line per
	// (decoder, mode) while the store keeps one artifact per decoder, so
	// with mixed modes the artifact would hold whichever line was flushed
	// last.
	for _, s := range w.in.streams {
		s.mode = 0644
	}
	if w.archive, err = buildArchive(w.in.streams); err != nil {
		return err
	}
	w.opts = []vxa.Option{vxa.WithMode(vxa.AlwaysVXA), vxa.WithReuseVM(true), vxa.WithDecodeAll(true)}
	if w.diskwarm {
		if w.dir, err = scratchDir(); err != nil {
			return err
		}
		w.storeDir = filepath.Join(w.dir, "store")
		if err := w.populateStore(); err != nil {
			return err
		}
	}
	// Warm-up: one pass of the measured op itself, checked.
	out := newCheckedOutput()
	for _, s := range w.in.streams {
		out.reset()
		if err := w.firstStream(context.Background(), s, out); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.id, err)
		}
		if err := out.verify(s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		collect()
	}
	return nil
}

// scratchDir makes a private directory under .bench_build, inside the
// checkout; the benchmark writes nowhere else.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "vxabench-*")
}

// populateStore decodes every entry once through a SnapCache backed by
// the store and flushes it, so each decoder's artifact holds the pristine
// image plus the translation work of its entries.
func (w *startWorkload) populateStore() error {
	store, err := artifact.Open(w.storeDir)
	if err != nil {
		return err
	}
	cache := vxa.NewSnapCache(snapCacheConfig(store))
	r, err := vxa.OpenReader(w.archive)
	if err != nil {
		return err
	}
	defer r.Close()
	r.SetSnapCache(cache)
	for i := range r.Entries() {
		if _, err := r.ExtractTo(context.Background(), &r.Entries()[i], io.Discard, w.opts...); err != nil {
			return fmt.Errorf("populating the artifact store: %w", err)
		}
	}
	cache.FlushArtifacts()
	if st := store.Stats(); st.Saves < int64(len(w.in.decoders)) || st.SaveErrors > 0 {
		return fmt.Errorf("artifact store holds %d of %d decoders (%d save errors)", st.Saves, len(w.in.decoders), st.SaveErrors)
	}
	return nil
}

// firstStream is the measured op: open, find the entry, extract, close.
func (w *startWorkload) firstStream(ctx context.Context, s *stream, out io.Writer) error {
	r, err := vxa.OpenReader(w.archive)
	if err != nil {
		return err
	}
	defer r.Close()
	if w.diskwarm {
		store, err := artifact.Open(w.storeDir)
		if err != nil {
			return err
		}
		r.SetSnapCache(vxa.NewSnapCache(snapCacheConfig(store)))
	}
	for i := range r.Entries() {
		if e := &r.Entries()[i]; e.Name == s.id {
			_, err := r.ExtractTo(ctx, e, out, w.opts...)
			return err
		}
	}
	return fmt.Errorf("%s: not in the archive", s.id)
}

func (w *startWorkload) measure(d time.Duration, rec *recorder) {
	ctx := context.Background()
	out := newCheckedOutput()
	t0 := time.Now()
	rec.passes = startPasses(d)
	for pass := 0; pass < rec.passes; pass++ {
		for _, s := range w.in.streams {
			out.reset()
			start := time.Now()
			err := w.firstStream(ctx, s, out)
			dur := time.Since(start)
			if err == nil {
				err = out.verify(s)
			}
			native, nerr := timeNative(s)
			if err == nil {
				err = nerr
			}
			rec.add(op{dec: s.dec.idx, pass: pass, start: start.Sub(t0), dur: dur, native: native, key: s.id, bytes: int64(s.wantLen)}, err)
			// Every op leaves a 64 MiB guest mapping and a few MiB of
			// garbage behind that only a collection returns. A process
			// that starts once begins with an empty heap and never sees
			// them pile up, so they are collected after every op, outside
			// its time.
			collect()
		}
	}
}

func (w *startWorkload) traced(d time.Duration, rec *recorder, tr *tracer, acc *layerAcc) {
	ctx := context.Background()
	if err := setupFacts(acc, w.in); err != nil {
		rec.add(op{}, err)
	}
	out := newCheckedOutput()
	steps := map[string]uint64{}
	var passSteps uint64
	opID := 0
	t0 := time.Now()
	rec.passes = startPasses(d)
	for pass := 0; pass < rec.passes; pass++ {
		var sum uint64
		for _, s := range w.in.streams {
			out.reset()
			start := time.Now()
			n, err := w.tracedFirstStream(ctx, opID, s, out, tr, acc)
			dur := time.Since(start)
			opID++
			if err == nil {
				err = out.verify(s)
			}
			if prev, ok := steps[s.id]; ok && prev != n && err == nil {
				err = fmt.Errorf("%s: %d guest instructions, %d on an earlier repeat", s.id, n, prev)
			}
			steps[s.id] = n
			sum += n
			rec.add(op{dec: s.dec.idx, pass: pass, start: start.Sub(t0), dur: dur, bytes: int64(s.wantLen)}, err)
			collect()
		}
		passSteps = sum
	}
	acc.set("vm.steps_per_pass", float64(passSteps))
	if err := w.storeFacts(acc); err != nil {
		rec.add(op{}, err)
	}
}

// tracedFirstStream is firstStream taken apart: the same public calls the
// library makes on a first stream, each inside a span.
func (w *startWorkload) tracedFirstStream(ctx context.Context, opID int, s *stream, out io.Writer, tr *tracer, acc *layerAcc) (uint64, error) {
	root := tr.begin(rootSpan, opID, -1)
	defer tr.end(root)
	timed := func(name, metric string, parent int, fn func() error) error {
		sp := tr.begin(name, opID, parent)
		err := fn()
		d := tr.end(sp)
		if metric != "" {
			acc.sampleDur(metric, d)
		}
		return err
	}

	var zr *zipfile.Reader
	if err := timed("zipfile.open", "zipfile.open_us", root, func() (err error) {
		zr, err = zipfile.NewReaderAt(bytes.NewReader(w.archive), int64(len(w.archive)))
		return err
	}); err != nil {
		return 0, err
	}
	var fh *zipfile.FileHeader
	for i := range zr.Files {
		if zr.Files[i].Name == s.id {
			fh = &zr.Files[i]
		}
	}
	if fh == nil || fh.VXA == nil {
		return 0, fmt.Errorf("%s: no archived decoder in the archive", s.id)
	}
	var payload *io.SectionReader
	if err := timed("zipfile.payload_section", "", root, func() (err error) {
		payload, err = zr.PayloadSection(fh)
		return err
	}); err != nil {
		return 0, err
	}
	if fh.VXA.PreCompressed {
		if err := timed("core.payload_crc", "", root, func() error {
			crc := crc32.NewIEEE()
			if _, err := io.Copy(crc, payload); err != nil {
				return err
			}
			if crc.Sum32() != fh.CRC32 {
				return fmt.Errorf("%s: stored payload CRC mismatch", s.id)
			}
			_, err := payload.Seek(0, io.SeekStart)
			return err
		}); err != nil {
			return 0, err
		}
	}
	var elf []byte
	readDecoder := func(parent int) error {
		return timed("zipfile.decoder_read", "zipfile.decoder_read_us", parent, func() (err error) {
			elf, err = zr.Decoder(fh.VXA.DecoderOffset)
			return err
		})
	}

	cfg := vm.Config{MemSize: decoderMemSize}
	var v *vm.VM
	var lease *vmpool.Lease
	if w.diskwarm {
		// The Reader hashes the embedded decoder to address the cache.
		if err := readDecoder(root); err != nil {
			return 0, err
		}
		var hash [32]byte
		_ = timed("core.decoder_hash", "", root, func() error { hash = sha256.Sum256(elf); return nil })
		store, err := artifact.Open(w.storeDir)
		if err != nil {
			return 0, err
		}
		cache := vmpool.NewSnapCache(snapCacheConfig(store))
		if err := timed("vmpool.snapcache_get", "vmpool.snapcache_get_us", root, func() (err error) {
			lease, err = cache.Get(ctx, hash, fh.Mode, vmpool.NextScope(), func() ([]byte, error) { return elf, nil })
			return err
		}); err != nil {
			return 0, err
		}
		if st := store.Stats(); st.Hits != 1 {
			lease.Release(false)
			return 0, fmt.Errorf("%s: the artifact store missed (%+v)", s.id, st)
		}
		v = lease.VM()
	} else {
		if err := readDecoder(root); err != nil {
			return 0, err
		}
		var prog *elf32.Program
		if err := timed("elf32.parse", "elf32.parse_us", root, func() (err error) {
			prog, err = elf32.Parse(elf)
			return err
		}); err != nil {
			return 0, err
		}
		if err := timed("elf32.load", "elf32.load_ms", root, func() (err error) {
			if v, err = vm.New(cfg); err != nil {
				return err
			}
			return elf32.Load(v, prog)
		}); err != nil {
			return 0, err
		}
		// The pool keeps a pristine snapshot of every decoder it builds.
		var snap *vm.Snapshot
		_ = timed("vm.snapshot", "vm.snapshot_ms", root, func() error { snap = v.Snapshot(); return nil })
		defer func() {
			// Outside the op's own path: what one more VM of this
			// decoder would cost a parallel extraction.
			start := time.Now()
			snap.NewVM()
			acc.sample("vm.newvm_ms", ms(time.Since(start)))
		}()
	}

	st0 := v.Stats()
	tw := newTimedWriter(out)
	sp := tr.begin("vm.run_stream", opID, root)
	reusable, err := v.RunStream(ctx, payload, tw, nil, vm.StreamFuel(int(payload.Size())))
	run := tr.end(sp)
	tr.add("core.host_write", opID, sp, tw.ns)
	st1 := v.Stats()
	if lease != nil {
		_ = timed("vmpool.release", "vmpool.release_us", root, func() error { lease.Release(reusable && err == nil); return nil })
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.id, err)
	}
	if !fh.VXA.PreCompressed && tw.crc.Sum32() != fh.CRC32 {
		return 0, fmt.Errorf("%s: decoded data CRC mismatch", s.id)
	}
	acc.sample("core.host_write_us", us(tw.ns))
	acc.sample("vm.translate_ms."+s.dec.codec.Name, float64(st1.TranslateNS-st0.TranslateNS)/1e6)
	observeStream(acc, s.dec.codec.Name, st0, st1, run-tw.ns, int64(s.wantLen))
	return st1.Steps - st0.Steps, nil
}

// storeFacts measures the artifact layer on its own, per decoder: save,
// load, and the snapshot (de)serialization inside them. Cold start has no
// store and reports nothing here.
func (w *startWorkload) storeFacts(acc *layerAcc) error {
	if !w.diskwarm {
		return nil
	}
	cfg := vm.Config{MemSize: decoderMemSize}
	scratch, err := artifact.Open(filepath.Join(w.dir, "scratch-store"))
	if err != nil {
		return err
	}
	var total int64
	for _, d := range w.in.decoders {
		hash := vmpool.HashELF(d.elf)
		store, err := artifact.Open(w.storeDir)
		if err != nil {
			return err
		}
		start := time.Now()
		snap, err := store.Load(hash, cfg)
		if err != nil {
			return fmt.Errorf("artifact load %s: %w", d.codec.Name, err)
		}
		acc.sample("artifact.load_ms", ms(time.Since(start)))
		if fi, err := os.Stat(store.Path(hash, cfg)); err == nil {
			total += fi.Size()
		}
		start = time.Now()
		data, err := snap.Serialize()
		if err != nil {
			return err
		}
		acc.sample("vm.serialize_ms", ms(time.Since(start)))
		start = time.Now()
		if _, err := vm.Deserialize(data); err != nil {
			return err
		}
		acc.sample("vm.deserialize_ms", ms(time.Since(start)))
		start = time.Now()
		if err := scratch.Save(hash, cfg, snap); err != nil {
			return err
		}
		acc.sample("artifact.save_ms", ms(time.Since(start)))
	}
	acc.set("artifact.bytes", float64(total))
	return nil
}
