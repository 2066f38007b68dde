// Package core implements the paper's primary contribution: the VXA
// archive writer and reader (vxZIP/vxUnZIP, §2.2-2.4 and §3).
//
// The writer selects a codec per input file: inputs already compressed
// in a recognized format are stored as-is with a decoder attached
// (recognizer-decoder behaviour, method 0 so older tools extract the
// compressed form); recognized raw media is compressed with a
// specialized codec (lossy ones only when the operator allows); and
// everything else is compressed with a general-purpose codec under its
// traditional ZIP method tag. One copy of each decoder is embedded per
// archive, amortized over all files that use it.
//
// The reader extracts through fast native decoders by default, falls
// back to (or is forced onto) the archived VXA decoders running in the
// sandboxed virtual machine, and always uses the archived decoders for
// integrity verification — the property that guarantees the archive
// remains decodable when native decoders have disappeared (§2.3).
package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/codec"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// DefaultGeneralCodec is the general-purpose codec used for unrecognized
// input (the archiver's "default compressor", §2.2).
const DefaultGeneralCodec = "deflate"

// WriterOptions configure archive creation.
type WriterOptions struct {
	// AllowLossy permits lossy media codecs for raw media inputs; by
	// default only lossless automatic compression is applied (§2.2).
	AllowLossy bool
	// GeneralCodec names the general-purpose codec for unrecognized
	// input. Empty selects DefaultGeneralCodec.
	GeneralCodec string
	// StoreIncompressible stores inputs that the general codec cannot
	// shrink. Enabled by default behaviour of ZIP tools; kept true here.
	StoreIncompressible bool
}

// Writer creates VXA archives.
type Writer struct {
	zw       *zipfile.Writer
	opts     WriterOptions
	decoders map[string]uint32 // codec -> pseudo-file offset (dedup, §2.2)
	closed   bool
}

// NewWriter begins an archive.
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	if opts.GeneralCodec == "" {
		opts.GeneralCodec = DefaultGeneralCodec
	}
	opts.StoreIncompressible = true
	return &Writer{zw: zipfile.NewWriter(w), opts: opts, decoders: make(map[string]uint32)}
}

// decoderOffset embeds the codec's decoder once and returns its offset.
func (w *Writer) decoderOffset(c *codec.Codec) (uint32, error) {
	if off, ok := w.decoders[c.Name]; ok {
		return off, nil
	}
	elf, err := c.DecoderELF()
	if err != nil {
		return 0, err
	}
	off, err := w.zw.AddDecoder(elf)
	if err != nil {
		return 0, err
	}
	w.decoders[c.Name] = off
	return off, nil
}

// pickCodec classifies one input per the §2.2 writer flow.
func (w *Writer) pickCodec(data []byte) (c *codec.Codec, preCompressed bool, err error) {
	// 1. Already compressed in a recognized format?
	for _, cand := range codec.All() {
		if cand.Recognize != nil && cand.Recognize(data) {
			return cand, true, nil
		}
	}
	// 2. Raw media a specialized codec can compress?
	for _, cand := range codec.All() {
		if cand.Kind != codec.MediaCodec || cand.CanEncode == nil {
			continue
		}
		if cand.Lossy && !w.opts.AllowLossy {
			continue
		}
		if cand.CanEncode(data) {
			return cand, false, nil
		}
	}
	// 3. General-purpose default.
	gen, ok := codec.ByName(w.opts.GeneralCodec)
	if !ok {
		return nil, false, fmt.Errorf("core: general codec %q not registered", w.opts.GeneralCodec)
	}
	return gen, false, nil
}

// AddFile archives one file. mode carries the Unix permission bits used
// as the security attributes for VM-reuse decisions on extraction.
func (w *Writer) AddFile(name string, data []byte, mode uint32) error {
	c, pre, err := w.pickCodec(data)
	if err != nil {
		return err
	}
	decOff, err := w.decoderOffset(c)
	if err != nil {
		return err
	}
	hdr := zipfile.FileHeader{
		Name:  name,
		CRC32: crc32.ChecksumIEEE(data),
		USize: uint32(len(data)),
		Mode:  mode,
		VXA: &zipfile.VXAHeader{
			Codec:         c.Name,
			DecoderOffset: decOff,
			PreCompressed: pre,
		},
	}
	if pre {
		// Store the already-compressed input unchanged, method 0: older
		// tools extract it in its original compressed form (§3.1).
		hdr.Method = zipfile.MethodStore
		return w.zw.AddFile(hdr, data)
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, data); err != nil {
		return fmt.Errorf("core: %s encode: %w", c.Name, err)
	}
	if w.opts.StoreIncompressible && enc.Len() >= len(data) && c.Kind == codec.GeneralPurpose {
		// Store raw, but keep the decoder-free store tag. No VXA header
		// needed: stored data is its own "simplest form".
		hdr.VXA = nil
		hdr.Method = zipfile.MethodStore
		return w.zw.AddFile(hdr, data)
	}
	hdr.Method = zipfile.MethodVXA
	if c.ZipMethod != 0 {
		hdr.Method = c.ZipMethod
	}
	return w.zw.AddFile(hdr, enc.Bytes())
}

// Close finalizes the archive.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.zw.Close()
}

// DecoderCount reports how many distinct decoders were embedded.
func (w *Writer) DecoderCount() int { return len(w.decoders) }

// ---------- reader ----------

// ExtractMode selects the decode path (§2.3).
type ExtractMode int

// Extraction modes.
const (
	// NativeFirst uses a fast native decoder when one is available,
	// falling back to the archived VXA decoder.
	NativeFirst ExtractMode = iota
	// AlwaysVXA always runs the archived decoder in the VM — the safest
	// operational model, and the one integrity checks mandate.
	AlwaysVXA
)

// ExtractOptions is the assembled form of the functional options every
// extraction method accepts. Callers normally never build one directly;
// they pass WithMode/WithFuel/... values instead.
type ExtractOptions struct {
	Mode ExtractMode
	// DecodeAll forces decoding of pre-compressed files to their
	// uncompressed form instead of extracting them still compressed.
	DecodeAll bool
	// VM configures decoder virtual machines; zero means defaults. When
	// VM.Fuel is set it becomes the absolute per-stream instruction
	// budget; a stream never inherits leftovers from earlier streams.
	// Fuel is the only per-call field: a Reader's first archived-decoder
	// run fixes the rest (memory size, wall budget, optimization level)
	// for every later call.
	VM vm.Config
	// Verbose streams decoder stderr diagnostics to this writer.
	// ExtractAll and Verify serialize concurrent writes to it; callers
	// running their own goroutines over Extract must pass a
	// concurrency-safe writer.
	Verbose io.Writer
	// Parallel bounds the worker count ExtractAll and Verify fan out
	// to: 0 selects GOMAXPROCS, 1 forces serial operation. Single-entry
	// calls (Extract, ExtractTo) are unaffected.
	Parallel int
	// Limit caps the decoded output size in bytes; crossing it aborts
	// the decode with ErrOutputLimit. 0 means unlimited. The guard
	// against decompression bombs when serving untrusted archives.
	Limit int64
}

// Option configures one extraction call.
type Option func(*ExtractOptions)

// WithMode selects the decode path: NativeFirst (default) or AlwaysVXA.
func WithMode(m ExtractMode) Option { return func(o *ExtractOptions) { o.Mode = m } }

// WithFuel sets the absolute per-stream guest instruction budget,
// overriding the payload-scaled default. Exceeding it surfaces as
// ErrFuelExhausted.
func WithFuel(n int64) Option { return func(o *ExtractOptions) { o.VM.Fuel = n } }

// WithParallel bounds the worker count ExtractAll and Verify fan out
// to: 0 (default) selects GOMAXPROCS, 1 forces serial operation.
func WithParallel(n int) Option { return func(o *ExtractOptions) { o.Parallel = n } }

// WithLimit caps the decoded output size in bytes; crossing it aborts
// the decode with ErrOutputLimit. 0 (default) means unlimited.
func WithLimit(n int64) Option { return func(o *ExtractOptions) { o.Limit = n } }

// WithDecodeAll forces pre-compressed entries to decode to their raw
// form instead of extracting still-compressed.
func WithDecodeAll(on bool) Option { return func(o *ExtractOptions) { o.DecodeAll = on } }

// WithVerbose streams decoder stderr diagnostics to w.
func WithVerbose(w io.Writer) Option { return func(o *ExtractOptions) { o.Verbose = w } }

// WithVM sets the decoder VM configuration (memory size, cache policy,
// ablation knobs). WithFuel after WithVM still overrides the budget.
// Only the budget is per call: the Reader's first archived-decoder run
// fixes the rest of the configuration.
func WithVM(cfg vm.Config) Option { return func(o *ExtractOptions) { o.VM = cfg } }

// WithWallBudget arms the per-stream wall-clock watchdog: a decoder
// stream still running after d of real time is killed at its next
// block boundary and surfaces as ErrDeadline, independent of how much
// instruction fuel remains. 0 (default) disarms the watchdog.
func WithWallBudget(d time.Duration) Option {
	return func(o *ExtractOptions) { o.VM.WallBudget = d }
}

// WithMemSize sets the guest address space given to each decoder VM in
// bytes (default DefaultDecoderMemSize, capped at the 1 GiB sandbox
// limit) — the public-surface knob for memory-hungry decoders that does
// not require naming the internal vm.Config.
func WithMemSize(n uint32) Option { return func(o *ExtractOptions) { o.VM.MemSize = n } }

// buildOpts assembles an option list into the struct form.
func buildOpts(opts []Option) ExtractOptions {
	var o ExtractOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Entry is one archived file as seen by the reader. All fields needed
// by extraction tooling are exported or have accessors; nothing in the
// streaming path requires reaching into Reader internals.
type Entry struct {
	Name          string
	Method        uint16
	Codec         string // empty if the entry has no VXA header
	PreCompressed bool
	USize, CSize  uint32
	Mode          uint32
	hdr           *zipfile.FileHeader
}

// Size returns the entry's original (decoded) size in bytes.
func (e *Entry) Size() int64 { return int64(e.USize) }

// CompressedSize returns the entry's stored (compressed) size in bytes.
func (e *Entry) CompressedSize() int64 { return int64(e.CSize) }

// CodecName returns the archived decoder's codec tag, or "" for plain
// stored entries that need no decoder.
func (e *Entry) CodecName() string { return e.Codec }

// Reader extracts VXA archives. It is safe for concurrent use: any
// number of goroutines may call Extract/ExtractTo/ExtractAll/Verify on
// one Reader, sharing its decoder VMs.
type Reader struct {
	zr      *zipfile.Reader
	entries []Entry
	closer  io.Closer // set by OpenFile; closed by Close

	// VM reuse state (§2.4): every archived decoder runs on a VM leased
	// from a content-addressed snapshot cache, where the decoder's line
	// is keyed by the SHA-256 of its ELF bytes: two offsets that hold
	// the same decoder share one line, two different decoders under one
	// codec name get two. The cache is the one SetSnapCache attached, or
	// else the Reader's own, made by its first archived-decoder run.
	mu         sync.Mutex
	cache      *vmpool.SnapCache
	cacheScope uint64              // this Reader's trust scope within a shared cache; 0 in its own
	decoders   map[uint32]*decoder // by archive offset
	inFlight   int                 // decoder-VM leases this Reader holds

	// ReinitCount is a statistic: how many times a pristine decoder
	// image was loaded (a snapshot's own VM, a VM built from a snapshot,
	// or a reset).
	// It is consistent once extraction calls have returned; do not read
	// it while extractions are in flight.
	ReinitCount int
}

// Open opens an archive from any random-access source. Parsing is lazy
// and section-at-a-time (end record, central directory, then per-access
// local headers and payloads), so archives far larger than memory open
// cheaply and only the entries actually extracted are ever read.
func Open(ra io.ReaderAt, size int64) (*Reader, error) {
	zr, err := zipfile.NewReaderAt(ra, size)
	if err != nil {
		return nil, badArchive("", err)
	}
	r := &Reader{zr: zr}
	for i := range zr.Files {
		f := &zr.Files[i]
		e := Entry{
			Name: f.Name, Method: f.Method, USize: f.USize, CSize: f.CSize,
			Mode: f.Mode, hdr: f,
		}
		if f.VXA != nil {
			e.Codec = f.VXA.Codec
			e.PreCompressed = f.VXA.PreCompressed
		}
		r.entries = append(r.entries, e)
	}
	return r, nil
}

// OpenFile opens an archive on disk. Close releases the file.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens an archive held in memory — a thin adapter over Open
// for callers that already have the whole container as bytes.
func NewReader(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// Close drops the Reader's idle decoder VMs and releases the underlying
// file when the Reader came from OpenFile. The Reader must not be used
// after Close; streams returned by Extract must be closed first.
func (r *Reader) Close() error {
	r.DrainVMs()
	r.mu.Lock()
	c := r.closer
	r.closer = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// Entries lists the archive contents (central directory order; decoder
// pseudo-files are invisible, as in the paper). The returned slice is
// stable: every call returns the same backing array with no per-call
// copying, so iterating Entries() in a loop costs nothing. Callers must
// treat it as read-only and may keep *Entry pointers into it for the
// Reader's lifetime.
func (r *Reader) Entries() []Entry { return r.entries }

// ExtractBytes decodes one entry per the options, verifies its CRC-32,
// and returns the decoded bytes — the convenience form of Extract for
// entries known to fit in memory comfortably.
func (r *Reader) ExtractBytes(ctx context.Context, e *Entry, opts ...Option) ([]byte, error) {
	var out bytes.Buffer
	if _, err := r.extractTo(ctx, e, &out, buildOpts(opts)); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Extract decodes one entry and returns a stream over the decoded
// bytes. The decode runs concurrently on a leased decoder
// VM and is pulled incrementally by Read — output never has to be
// resident. The stream fails with the decode's typed error; a CRC
// mismatch surfaces as ErrBadArchive on the final Read.
//
// Close stops an unfinished decode: the context handed to the decoder
// is canceled, the VM cooperatively halts at its next block boundary,
// is rewound to the pristine decoder snapshot and returned to its line.
// Close blocks until the VM is back; canceling ctx has the same effect
// on an in-flight decode.
func (r *Reader) Extract(ctx context.Context, e *Entry, opts ...Option) (io.ReadCloser, error) {
	o := buildOpts(opts)
	// Parse the container section synchronously so a malformed entry
	// fails here, not on the first Read; the decode goroutine reuses the
	// validated section.
	payload, err := r.zr.PayloadSection(e.hdr)
	if err != nil {
		return nil, badArchive(e.Name, err)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &extractStream{cancel: cancel, done: make(chan struct{})}
	s.pr, s.pw = io.Pipe()
	go func() {
		defer close(s.done)
		_, err := r.extractSection(sctx, e, payload, s.pw, o)
		s.pw.CloseWithError(err) // nil closes with io.EOF
	}()
	// Cancellation watcher: a decoder blocked writing into the pipe
	// cannot reach its cooperative cancellation check, so a canceled
	// context also severs the pipe, unblocking the guest with a virtual
	// EIO. Closing the write side makes pending and future Reads return
	// the typed cancellation error. Without this, canceling ctx while
	// not reading would strand the VM until the stream was closed.
	go func() {
		select {
		case <-sctx.Done():
			s.pw.CloseWithError(&Error{Kind: KindCanceled, Entry: e.Name, Trap: sctx.Err()})
		case <-s.done:
		}
	}()
	return s, nil
}

// extractStream is the io.ReadCloser Extract hands out.
type extractStream struct {
	pr     *io.PipeReader
	pw     *io.PipeWriter
	cancel context.CancelFunc
	done   chan struct{}
}

// Read pulls decoded bytes from the in-flight decoder.
func (s *extractStream) Read(p []byte) (int, error) { return s.pr.Read(p) }

// Close abandons the stream and waits for the decoder VM to be reset
// and returned to its line. Closing an already-drained stream is a
// cheap no-op. Close always returns nil.
func (s *extractStream) Close() error {
	s.cancel()
	// Unblock a decoder mid-Write immediately; the cooperative cancel
	// catches compute-bound guests at the next block boundary.
	s.pr.CloseWithError(ErrCanceled)
	<-s.done
	return nil
}

// ExtractTo decodes one entry, streaming the output to w, and returns
// the number of bytes written. The CRC-32 is checked incrementally as
// the decoder produces output; on a CRC or decode error, partial output
// may already have been written to w (callers extracting to files should
// remove the file on error). ctx cancels the decode cooperatively; the
// error then matches ErrCanceled.
func (r *Reader) ExtractTo(ctx context.Context, e *Entry, w io.Writer, opts ...Option) (int64, error) {
	return r.extractTo(ctx, e, w, buildOpts(opts))
}

// extractTo is the assembled-options core of ExtractTo.
func (r *Reader) extractTo(ctx context.Context, e *Entry, w io.Writer, opts ExtractOptions) (int64, error) {
	payload, err := r.zr.PayloadSection(e.hdr)
	if err != nil {
		return 0, badArchive(e.Name, err)
	}
	return r.extractSection(ctx, e, payload, w, opts)
}

// extractSection decodes one entry from its already-parsed payload
// section.
func (r *Reader) extractSection(ctx context.Context, e *Entry, payload *io.SectionReader, w io.Writer, opts ExtractOptions) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, &Error{Kind: KindCanceled, Entry: e.Name, Trap: err}
	}
	sp := obs.SpanFrom(ctx)
	if opts.Limit > 0 {
		w = &limitWriter{w: w, remaining: opts.Limit, limit: opts.Limit}
	}

	// Stored entries: either plain stored files or pre-compressed media.
	// One pass over the backing source — the payload is CRC-summed as it
	// is delivered, exactly like decoded output, so a lazily-opened
	// archive reads each stored byte once. On a mismatch, partial output
	// has been written (same contract as decoded entries: callers
	// extracting to files remove them on error).
	if e.Method == zipfile.MethodStore && (!e.PreCompressed || !opts.DecodeAll) {
		buf := crcBufs.Get().(*[32 << 10]byte)
		defer crcBufs.Put(buf)
		crc := crc32.NewIEEE()
		cw := &obs.CountWriter{W: io.MultiWriter(crc, w), Span: sp}
		n, err := io.CopyBuffer(cw, &ctxReader{ctx: ctx, r: payload}, buf[:])
		if err != nil {
			return n, classifyDecode(e.Name, err, ctx.Err())
		}
		if crc.Sum32() != e.hdr.CRC32 {
			return n, corruptf(e.Name, "stored data CRC mismatch")
		}
		return n, nil
	}

	// The archive CRC covers the original input. For pre-compressed
	// entries being force-decoded, the CRC covers the compressed form
	// (still at hand), so check that up front; decoding itself is the
	// integrity check for the decoded form.
	if e.PreCompressed {
		if err := r.checkPayloadCRC(ctx, e, payload); err != nil {
			return 0, err
		}
		cw := &obs.CountWriter{W: w, Span: sp}
		if err := r.decodeStream(ctx, e, payload, opts, cw); err != nil {
			return cw.N, classifyDecode(e.Name, firstError(e, cw, err), ctx.Err())
		}
		return cw.N, nil
	}

	crc := crc32.NewIEEE()
	cw := &obs.CountWriter{W: io.MultiWriter(crc, w), Span: sp}
	if err := r.decodeStream(ctx, e, payload, opts, cw); err != nil {
		return cw.N, classifyDecode(e.Name, firstError(e, cw, err), ctx.Err())
	}
	if crc.Sum32() != e.hdr.CRC32 {
		return cw.N, corruptf(e.Name, "decoded data CRC mismatch")
	}
	return cw.N, nil
}

// checkPayloadCRC streams the stored payload through a CRC-32 and
// rewinds it, reporting a mismatch as ErrBadArchive. The pass is
// ctx-aware: host-side reads over a multi-gigabyte stored payload honor
// cancellation just like guest decodes do.
func (r *Reader) checkPayloadCRC(ctx context.Context, e *Entry, payload *io.SectionReader) error {
	buf := crcBufs.Get().(*[32 << 10]byte)
	defer crcBufs.Put(buf)
	crc := crc32.NewIEEE()
	if _, err := io.CopyBuffer(crc, &ctxReader{ctx: ctx, r: payload}, buf[:]); err != nil {
		if ctx.Err() != nil {
			return &Error{Kind: KindCanceled, Entry: e.Name, Trap: ctx.Err()}
		}
		return badArchive(e.Name, err)
	}
	if crc.Sum32() != e.hdr.CRC32 {
		return corruptf(e.Name, "stored data CRC mismatch")
	}
	_, err := payload.Seek(0, io.SeekStart)
	return badArchive(e.Name, err)
}

// crcBufs holds the 32 KiB buffers the passes over a stored payload
// copy through: neither a CRC-32 nor the writers a stored entry goes to
// are an io.ReaderFrom, nor a payload section an io.WriterTo, so
// io.Copy would allocate and clear a fresh one for every entry.
var crcBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// ctxReader makes a host-side payload pass cancelable: each Read (every
// 32 KiB, the size of the pass's buffer) first checks the context, so
// canceling stops a long disk scan promptly even though no guest is
// involved.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, &Error{Kind: KindCanceled, Trap: err}
	}
	return c.r.Read(p)
}

// serializeWriter wraps w so concurrent workers can share it as decoder
// stderr; nil passes through.
func serializeWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	return &lockedWriter{w: w}
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// firstError prefers the host write error cw kept over the decode error
// it triggered: the guest sees only a virtual EIO and aborts with its
// own message, but the user needs the real cause.
func firstError(e *Entry, cw *obs.CountWriter, decodeErr error) error {
	if cw.Err != nil {
		return fmt.Errorf("core: %s: write: %w", e.Name, cw.Err)
	}
	return decodeErr
}

// maxNativeBuffer bounds the buffered native-decode attempt: entries
// whose decoded output would exceed it take the archived-decoder path,
// which streams. Sized to the default decoder address space — a decoded
// form the sandbox could hold, the host can afford to buffer once.
const maxNativeBuffer = int64(DefaultDecoderMemSize)

func (r *Reader) decodeStream(ctx context.Context, e *Entry, payload *io.SectionReader, opts ExtractOptions, out io.Writer) error {
	// Native fast path (§2.3): method tag or codec name identifies a
	// well-known algorithm with a native decoder. The attempt is
	// buffered so a mid-stream native failure leaves out untouched for
	// the archived-decoder fallback — which is why it only runs for
	// entries whose claimed decoded size fits maxNativeBuffer; larger
	// entries go straight to the archived decoder, preserving the
	// streaming contract (output never resident). The buffer itself is
	// capped too, so a lying size field cannot balloon it: overflowing
	// the cap counts as a native failure and falls back, while crossing
	// an explicit WithLimit is final.
	if opts.Mode == NativeFirst && int64(e.USize) <= maxNativeBuffer {
		if c, ok := codec.ByName(e.Codec); ok && c.Decode != nil {
			bound := maxNativeBuffer
			if opts.Limit > 0 && opts.Limit < bound {
				bound = opts.Limit
			}
			var buf bytes.Buffer
			lw := &limitWriter{w: &buf, remaining: bound, limit: bound}
			if err := c.Decode(lw, payload); err == nil {
				_, err := out.Write(buf.Bytes())
				return err
			}
			if lw.err != nil && opts.Limit > 0 && bound == opts.Limit {
				return lw.err
			}
			// Native decoder failed (or outgrew the buffer cap): fall
			// back to the archived decoder, exactly the contingency
			// §2.3 describes.
			if _, err := payload.Seek(0, io.SeekStart); err != nil {
				return badArchive(e.Name, err)
			}
		}
	}
	if e.hdr.VXA == nil {
		return &Error{Kind: KindUnknownCodec, Entry: e.Name}
	}
	return r.runArchivedDecoder(ctx, e, payload, opts, out)
}

// DefaultDecoderMemSize is the guest address space the reader gives
// archived decoders unless ExtractOptions.VM says otherwise.
const DefaultDecoderMemSize = codec.DefaultDecoderMemSize

// snapCache returns the cache the Reader leases decoder VMs from and
// its trust scope there: the one SetSnapCache attached, or else the
// Reader's own, made on first use with that call's VM configuration and
// an idle cap of the larger of its worker count and GOMAXPROCS (so a
// Reader whose first extraction is its most parallel one never churns
// VMs through the discard path). The own cache keeps no circuit
// breaker: quarantine guards a server against a decoder that fails
// across clients.
func (r *Reader) snapCache(opts ExtractOptions) (*vmpool.SnapCache, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		cfg := opts.VM
		if cfg.MemSize == 0 {
			cfg.MemSize = DefaultDecoderMemSize
		}
		r.cache = vmpool.NewSnapCache(vmpool.SnapCacheConfig{
			VM:            cfg,
			MaxIdlePerKey: max(runtime.GOMAXPROCS(0), opts.Parallel),
			Health:        breaker.Config{Threshold: -1},
		})
	}
	return r.cache, r.cacheScope
}

// SetSnapCache routes every archived-decoder run through a shared
// content-addressed snapshot cache in place of the Reader's own, so
// Readers over different archives that embed the same decoder share one
// pristine snapshot, one warm translation cache and one VM line. The
// cache's VM configuration wins over ExtractOptions.VM for everything
// except the per-stream fuel budget. Call it before the first
// extraction.
//
// The Reader takes its own trust scope within the cache: pristine
// snapshots and translation caches are shared with every other Reader,
// but a decoder VM parked with this Reader's stream residue is never
// resumed verbatim for another Reader — it is rewound to the pristine
// snapshot first.
func (r *Reader) SetSnapCache(c *vmpool.SnapCache) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = c
	if r.cacheScope == 0 {
		r.cacheScope = vmpool.NextScope()
	}
}

// decoder is one archived decoder as a Reader knows it: the content
// address of its ELF and, until the decoder's cache line exists, the
// bytes the address was taken from, so a miss builds from them instead
// of reading the decoder a second time.
type decoder struct {
	once sync.Once
	err  error
	hash [32]byte
	elf  []byte                 // guarded by Reader.mu; nil once the line exists
	src  func() ([]byte, error) // the cache's elf callback
}

// decoder returns the decoder pseudo-file at the given archive offset,
// reading and hashing it once per Reader: concurrent first uses wait on
// one read, and a failed read fails every use, as a failed build does.
func (r *Reader) decoder(off uint32) (*decoder, error) {
	r.mu.Lock()
	d := r.decoders[off]
	if d == nil {
		if r.decoders == nil {
			r.decoders = make(map[uint32]*decoder)
		}
		d = &decoder{}
		r.decoders[off] = d
	}
	r.mu.Unlock()
	d.once.Do(func() {
		elf, err := r.zr.Decoder(off)
		if err != nil {
			d.err = err
			return
		}
		d.hash, d.elf = vmpool.HashELF(elf), elf
		// A line evicted from a shared cache is rebuilt from a fresh read.
		d.src = func() ([]byte, error) {
			r.mu.Lock()
			elf := d.elf
			r.mu.Unlock()
			if elf != nil {
				return elf, nil
			}
			return r.zr.Decoder(off)
		}
	})
	return d, d.err
}

// DecoderHash returns the content address (SHA-256 of the ELF bytes)
// of the entry's archived decoder, reading and hashing it once per
// Reader; an extraction that misses the cache afterwards builds from
// the bytes read here. ok is false for entries with no archived decoder
// (plain stored files). Serving layers use it to consult the shared
// cache before admission: whether the decoder's snapshot is already
// resident (warm vs cold path) and whether its circuit breaker is open.
func (r *Reader) DecoderHash(e *Entry) (hash [32]byte, ok bool, err error) {
	if e.hdr.VXA == nil {
		return [32]byte{}, false, nil
	}
	d, err := r.decoder(e.hdr.VXA.DecoderOffset)
	if err != nil {
		return [32]byte{}, false, badArchive(e.Name, err)
	}
	return d.hash, true, nil
}

// ownSnapCache returns the Reader's own cache, or nil when it has none
// yet or leases from a shared one.
func (r *Reader) ownSnapCache() *vmpool.SnapCache {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cacheScope != 0 {
		return nil
	}
	return r.cache
}

// DrainVMs drops the Reader's idle decoder VMs, releasing their guest
// memory, and reports how many were dropped. Decoder snapshots are
// kept, so later extractions stay cheap. Useful on a long-lived Reader
// between bursts of extraction. A shared cache set by SetSnapCache is
// its owner's to drain: there DrainVMs does nothing.
func (r *Reader) DrainVMs() int {
	if c := r.ownSnapCache(); c != nil {
		return c.Drain()
	}
	return 0
}

// PoolStats reports the cumulative counters of the Reader's decoder
// lines (zero before the first archived-decoder run, and on a Reader
// that leases from a shared cache, whose counters are its owner's).
func (r *Reader) PoolStats() vmpool.Stats {
	if c := r.ownSnapCache(); c != nil {
		return c.Stats().Pool
	}
	return vmpool.Stats{}
}

// PoolOutstanding reports how many decoder-VM leases this Reader holds
// in flight, from its own cache or a shared one (zero before the first
// VXA extraction). After every extraction call — including canceled
// ones — has returned, this is 0: cancellation resets and returns VMs,
// it never leaks them.
func (r *Reader) PoolOutstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inFlight
}

// runArchivedDecoder executes the archived VXA decoder over the payload,
// streaming the decoded output to out. The VM comes from the decoder's
// cache line by the §2.4 policy: a parked VM is resumed for equal
// security attributes; an attribute change or a new worker
// re-initializes from the pristine snapshot, so a malicious decoder
// cannot leak data from a protected file into a public one. The lease's
// Run ends the stream: a canceled context stops the guest at its next
// block boundary and the VM is rewound to the pristine snapshot and
// returned to its line, so cancellation never leaks a VM or a slot.
func (r *Reader) runArchivedDecoder(ctx context.Context, e *Entry, payload *io.SectionReader, opts ExtractOptions, out io.Writer) error {
	cache, scope := r.snapCache(opts)
	d, err := r.decoder(e.hdr.VXA.DecoderOffset)
	if err != nil {
		return badArchive(e.Name, err)
	}
	lease, err := cache.Get(ctx, d.hash, e.Mode, scope, d.src)
	if err != nil {
		return classifyDecode(e.Name, err, ctx.Err())
	}
	// Count the lease for the Reader's own outstanding view: a shared
	// cache's lines are not ours to ask. Run ends the lease before the
	// decrement on return, which keeps PoolOutstanding exact. The line
	// exists now, so the decoder's bytes can go.
	r.mu.Lock()
	r.inFlight++
	d.elf = nil
	if lease.Pristine() {
		r.ReinitCount++
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inFlight--
		r.mu.Unlock()
	}()
	// Diagnostics stream to opts.Verbose live rather than being captured.
	// With injection armed, payload reads pass through the ArchiveRead
	// point; Run reports an injected read fault over the guest's EIO.
	var in io.Reader = payload
	if fault.Armed() {
		in = fault.NewReader(payload)
	}
	code, err := lease.Run(ctx, in, out, opts.Verbose, opts.VM.FuelFor(int(payload.Size())))
	return codec.ClassifyDecodeError(e.Codec, err, code, "")
}

// ExtractResult is one entry's outcome from ExtractAll.
type ExtractResult struct {
	Entry *Entry
	Data  []byte
	Err   error
}

// ExtractAll decodes every entry through a bounded worker pipeline
// (WithParallel workers; 0 selects GOMAXPROCS) and returns one result
// per entry, in archive order. Workers draw decoder VMs from the
// Reader's cache, so each worker pays the decoder setup cost at most
// once per (decoder, mode). Canceling ctx stops
// in-flight decodes cooperatively; entries not yet decoded report
// ErrCanceled.
func (r *Reader) ExtractAll(ctx context.Context, opts ...Option) []ExtractResult {
	o := buildOpts(opts)
	o.Verbose = serializeWriter(o.Verbose)
	results := make([]ExtractResult, len(r.entries))
	r.forEachEntry(o.Parallel, func(i int) {
		e := &r.entries[i]
		var out bytes.Buffer
		_, err := r.extractTo(ctx, e, &out, o)
		results[i] = ExtractResult{Entry: e, Data: out.Bytes(), Err: err}
		if err != nil {
			results[i].Data = nil
		}
	})
	return results
}

// forEachEntry runs fn(i) for every entry index across a bounded pool of
// workers. parallel <= 0 selects GOMAXPROCS; 1 degenerates to a serial
// loop.
func (r *Reader) forEachEntry(parallel int, fn func(i int)) {
	n := parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(r.entries) {
		n = len(r.entries)
	}
	if n <= 1 {
		for i := range r.entries {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := range r.entries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Verify runs the §2.3 integrity check over every entry: each is
// extracted to nowhere as ExtractTo does with AlwaysVXA and DecodeAll —
// decoded by its archived VXA decoder (never a native one), or copied
// if stored — and checked against its CRC. Entries are verified by a
// bounded worker pipeline (WithParallel workers; 0 selects GOMAXPROCS).
// It returns one error per failing entry, in archive order.
func (r *Reader) Verify(ctx context.Context, opts ...Option) []error {
	o := buildOpts(opts)
	o.Mode = AlwaysVXA
	// Pre-compressed entries are decoded too: their CRC covers the
	// compressed form, and decoding is the check of the decoded one.
	o.DecodeAll = true
	// Verification measures integrity, not extraction policy: output is
	// CRC-summed and discarded, never delivered, so an output cap would
	// only make intact oversized entries fail verification.
	o.Limit = 0
	o.Verbose = serializeWriter(o.Verbose)
	perEntry := make([]error, len(r.entries))
	r.forEachEntry(o.Parallel, func(i int) {
		_, perEntry[i] = r.extractTo(ctx, &r.entries[i], io.Discard, o)
	})
	var errs []error
	for _, err := range perEntry {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// LocalOffset returns the entry's local file header offset within the
// archive (exposed for tooling and tests).
func (e *Entry) LocalOffset() uint32 { return e.hdr.Offset }

// ExtractDecodedForm decodes an entry's stream and returns the decoder
// output without checking it against the archive CRC. The CRC covers the
// original input, which a lossy codec's decoder does not reproduce
// bit-exactly; this is the accessor for the decoded form of lossy
// entries (the BMP/WAV the archived decoder produces).
func (r *Reader) ExtractDecodedForm(ctx context.Context, e *Entry, opts ...Option) ([]byte, error) {
	o := buildOpts(opts)
	payload, err := r.zr.PayloadSection(e.hdr)
	if err != nil {
		return nil, badArchive(e.Name, err)
	}
	if e.hdr.VXA == nil {
		return nil, &Error{Kind: KindUnknownCodec, Entry: e.Name}
	}
	// WithLimit bounds this buffer too — the bomb guard holds on every
	// decode surface, and the CountWriter preserves the limit error over
	// the decoder abort it provokes.
	var out bytes.Buffer
	dst := io.Writer(&out)
	if o.Limit > 0 {
		dst = &limitWriter{w: &out, remaining: o.Limit, limit: o.Limit}
	}
	cw := &obs.CountWriter{W: dst}
	if err := r.decodeStream(ctx, e, payload, o, cw); err != nil {
		return nil, classifyDecode(e.Name, firstError(e, cw, err), ctx.Err())
	}
	return out.Bytes(), nil
}
