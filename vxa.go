// Package vxa is the public API of the VXA archival storage system, a
// reproduction of Bryan Ford's "VXA: A Virtual Architecture for Durable
// Compressed Archives" (FAST 2005).
//
// VXA archives embed an executable decoder next to every compressed
// stream. Decoders are 32-bit x86 ELF executables produced by the
// bundled VXC compiler and run inside a sandboxed virtual machine with
// exactly five virtual system calls, so archived data remains decodable
// — safely — long after the codecs that produced it are gone.
//
// # Opening archives
//
// Archives open from any random-access source; parsing is lazy and
// section-at-a-time, so a multi-gigabyte archive is never resident:
//
//	r, err := vxa.OpenFile("backup.zip")   // or vxa.Open(readerAt, size)
//	defer r.Close()
//	for i := range r.Entries() {
//	    e := &r.Entries()[i]
//	    ...
//	}
//
// OpenReader remains for archives already held as bytes.
//
// # Extracting
//
// Every operation takes a context.Context and functional options.
// Extract returns a stream that pulls decoded data incrementally from a
// pooled decoder VM; ExtractBytes is the buffered convenience form:
//
//	rc, err := r.Extract(ctx, e, vxa.WithMode(vxa.AlwaysVXA))
//	if err != nil { ... }
//	defer rc.Close()
//	io.Copy(dst, rc)
//
// Canceling ctx — or closing the stream early — stops the decoder at
// its next block boundary; the sandboxed VM is rewound to its pristine
// snapshot and returned to the pool. Nothing leaks, however hostile the
// decoder.
//
// # Errors
//
// Failures carry a typed taxonomy (*vxa.Error with a Kind) instead of
// prose. Match with errors.Is against the sentinels:
//
//	if errors.Is(err, vxa.ErrDecoderTrap) { ... }   // sandbox contained it
//	if errors.Is(err, vxa.ErrFuelExhausted) { ... } // runaway decoder cut off
//	if errors.Is(err, vxa.ErrCanceled) { ... }      // also matches context.Canceled
//
// The underlying pieces — the x86 subset, the vx32-analog VM, the ELF
// tooling, the VXC compiler, and the codec plug-ins — live in internal
// packages; this package re-exports the archive-level operations.
package vxa

import (
	"io"
	"time"

	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/vmpool"

	// Register the standard codec set (Table 1): general-purpose
	// deflate/zlib/bwt, still images dct/haar, audio lpc/adpcm, and the
	// gzip redec.
	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// Re-exported archive types. See package core for full documentation.
type (
	// WriterOptions configure archive creation.
	WriterOptions = core.WriterOptions
	// Writer creates VXA archives.
	Writer = core.Writer
	// Reader extracts VXA archives. A Reader is safe for concurrent
	// use; Reader.ExtractAll and Reader.Verify fan out across a bounded
	// worker pipeline (WithParallel), drawing sandboxed decoder VMs
	// from a shared snapshot/reset pool.
	Reader = core.Reader
	// Entry is one archived file.
	Entry = core.Entry
	// Option configures one extraction call; build values with
	// WithMode, WithFuel, WithParallel, WithLimit, ...
	Option = core.Option
	// ExtractOptions is the assembled form the functional options
	// produce. No public method accepts it directly — it is re-exported
	// only so documentation and tooling can name the struct the options
	// write into.
	ExtractOptions = core.ExtractOptions
	// ExtractMode selects native-first or always-VXA decoding.
	ExtractMode = core.ExtractMode
	// ExtractResult is one entry's outcome from Reader.ExtractAll.
	ExtractResult = core.ExtractResult
	// Error is the typed error archive operations return; branch on its
	// Kind or match the Err* sentinels with errors.Is.
	Error = core.Error
	// ErrorKind classifies an Error.
	ErrorKind = core.ErrorKind
	// PoolStats are the cumulative counters of a Reader's decoder lines
	// (snapshots built, VMs built, reset, resumed and dropped), from
	// Reader.PoolStats; zero on a Reader attached to a shared SnapCache,
	// whose counters are in the cache's Stats.
	PoolStats = vmpool.Stats
	// SnapCache is a content-addressed decoder snapshot cache shared
	// across Readers (and by the vxad daemon): decoders are keyed by
	// the SHA-256 of their ELF bytes, so identical decoders embedded in
	// different archives share one snapshot, one warm translation
	// cache and one VM line. Attach to a Reader with SetSnapCache; a
	// Reader without one makes its own.
	SnapCache = vmpool.SnapCache
	// SnapCacheConfig configures a SnapCache.
	SnapCacheConfig = vmpool.SnapCacheConfig
)

// Extraction modes.
const (
	// NativeFirst prefers fast native decoders, with VXA fallback.
	NativeFirst = core.NativeFirst
	// AlwaysVXA always runs the archived decoder in the sandbox.
	AlwaysVXA = core.AlwaysVXA
)

// Error kinds, for branching on (*Error).Kind.
const (
	KindBadArchive    = core.KindBadArchive
	KindUnknownCodec  = core.KindUnknownCodec
	KindDecoderTrap   = core.KindDecoderTrap
	KindFuelExhausted = core.KindFuelExhausted
	KindOutputLimit   = core.KindOutputLimit
	KindCanceled      = core.KindCanceled
	KindIO            = core.KindIO
	KindUnavailable   = core.KindUnavailable
	KindQuarantined   = core.KindQuarantined
	KindDeadline      = core.KindDeadline
)

// Error sentinels for errors.Is; each matches every *Error of its kind.
var (
	// ErrBadArchive: malformed container or failed integrity check.
	ErrBadArchive = core.ErrBadArchive
	// ErrUnknownCodec: no archived or native decoder can handle the entry.
	ErrUnknownCodec = core.ErrUnknownCodec
	// ErrDecoderTrap: the archived decoder trapped or exited nonzero in
	// the sandbox.
	ErrDecoderTrap = core.ErrDecoderTrap
	// ErrFuelExhausted: the decoder exceeded its per-stream instruction
	// budget.
	ErrFuelExhausted = core.ErrFuelExhausted
	// ErrOutputLimit: the decoded output exceeded the WithLimit bound.
	ErrOutputLimit = core.ErrOutputLimit
	// ErrCanceled: the caller's context canceled the operation; also
	// matches context.Canceled / context.DeadlineExceeded via Unwrap.
	ErrCanceled = core.ErrCanceled
	// ErrIO: a host-side I/O failure (backing store, snapshot build) —
	// a server fault, not the archive's; retryable.
	ErrIO = core.ErrIO
	// ErrUnavailable: the service could not take the request (lease
	// machinery failed or load was shed); retryable after backoff.
	ErrUnavailable = core.ErrUnavailable
	// ErrQuarantined: the entry's decoder is under circuit-breaker
	// quarantine after repeated sandbox failures; requests fail fast
	// until a half-open probe succeeds.
	ErrQuarantined = core.ErrQuarantined
	// ErrDeadline: the wall-clock watchdog killed the stream — the
	// decoder exceeded its real-time budget with instruction fuel left.
	ErrDeadline = core.ErrDeadline
)

// Extraction options.

// WithMode selects the decode path: NativeFirst (default) or AlwaysVXA.
func WithMode(m ExtractMode) Option { return core.WithMode(m) }

// WithFuel sets the absolute per-stream guest instruction budget,
// overriding the payload-scaled default; exceeding it surfaces as
// ErrFuelExhausted.
func WithFuel(n int64) Option { return core.WithFuel(n) }

// WithParallel bounds the worker count ExtractAll and Verify fan out
// to: 0 (default) selects GOMAXPROCS, 1 forces serial operation.
func WithParallel(n int) Option { return core.WithParallel(n) }

// WithLimit caps the decoded output size in bytes; crossing it aborts
// the decode with ErrOutputLimit (the decompression-bomb guard).
func WithLimit(n int64) Option { return core.WithLimit(n) }

// WithDecodeAll forces pre-compressed entries to decode to their raw
// form instead of extracting still-compressed.
func WithDecodeAll(on bool) Option { return core.WithDecodeAll(on) }

// WithReuseVM does nothing. Every Reader now runs archived decoders on
// VMs leased from a content-addressed snapshot cache by the paper's
// §2.4 reuse policy, so there is no fresh-VM-per-stream mode left to
// turn off; the option is kept so existing callers still compile.
func WithReuseVM(on bool) Option { return func(*core.ExtractOptions) {} }

// WithVerbose streams decoder stderr diagnostics to w.
func WithVerbose(w io.Writer) Option { return core.WithVerbose(w) }

// WithWallBudget arms the per-stream wall-clock watchdog: a stream
// still running after d of real time is killed at its next block
// boundary and surfaces as ErrDeadline, independent of remaining
// instruction fuel. 0 (default) disarms it. Like the memory size, it
// is fixed by the Reader's first archived-decoder run.
func WithWallBudget(d time.Duration) Option { return core.WithWallBudget(d) }

// WithMemSize sets the guest address space per decoder VM in bytes
// (default 64 MiB, capped at the paper's 1 GiB sandbox limit) — for
// decoders that hold whole image/audio planes. The Reader's first
// archived-decoder run fixes it for every later call.
func WithMemSize(n uint32) Option { return core.WithMemSize(n) }

// NewWriter begins writing an archive to w.
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	return core.NewWriter(w, opts)
}

// Open opens an archive from any random-access source. Parsing is lazy
// and section-at-a-time, so only the end record, the central directory
// and the entries actually extracted are ever read.
func Open(ra io.ReaderAt, size int64) (*Reader, error) {
	return core.Open(ra, size)
}

// OpenFile opens an archive on disk; Reader.Close releases the file.
func OpenFile(path string) (*Reader, error) {
	return core.OpenFile(path)
}

// OpenReader opens an archive held in memory (a thin adapter over Open).
func OpenReader(data []byte) (*Reader, error) {
	return core.NewReader(data)
}

// Codecs returns the registered codec set (Table 1 of the paper).
func Codecs() []*codec.Codec {
	return codec.All()
}

// NewSnapCache creates a content-addressed decoder snapshot cache to
// share across Readers via Reader.SetSnapCache.
func NewSnapCache(cfg SnapCacheConfig) *SnapCache {
	return vmpool.NewSnapCache(cfg)
}
