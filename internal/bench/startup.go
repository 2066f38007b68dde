package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/wav"
	"vxa/internal/zipfile"
)

// The stages of a first stream, in the order they happen. Block build,
// superblock formation and the two tier-2 stages are interleaved with
// execution inside the run; the engine's own counters tell them apart.
const (
	StageZipOpen     = iota // central directory parse, entry lookup, payload section
	StageDecoderRead        // inflating the decoder pseudo-file
	StageELFLoad            // elf32.Parse, vm.New (the guest mapping), elf32.Load
	StageSnapshot           // VM.Snapshot of the pristine image
	StageBlockBuild         // decode+lower+optimize of fragments
	StageSuperblock         // superblock formation
	StageTier2Emit          // trace compilation up to the finished code
	StageTier2Seal          // placing that code in executable memory
	StageExecute            // running translated code, guest system calls included
	StageTeardown           // folding the VM's translations into the snapshot, as a lease release does
	numStartupStages
)

// StartupStageNames labels a first-stream LedgerRow's Stages.
var StartupStageNames = [numStartupStages]string{
	"zip open", "decoder read", "ELF parse+load", "snapshot", "block build",
	"superblock formation", "tier-2 emit", "tier-2 seal", "execution", "teardown",
}

// LedgerRow is one decoder's row of a stage ledger: what one stream
// costs it, stage by stage. Every figure is a mean over Reps operations,
// so Stages and Remainder add up to Wall exactly.
//
// The stages are clocked on the operation taken apart — the calls the
// library makes for the stream, made one after another — and Wall is
// that operation's own wall time, so Remainder is what falls between the
// clocks: RunStream outside the engine's own counters, and the clock
// reads. Library is the same stream through the public path (ExtractTo)
// on alternate operations, for comparison: it adds the pool, the span
// plumbing and the payload CRC to the same work.
type LedgerRow struct {
	Codec string `json:"codec"`
	// Path is the pooled ledger's "reset" or "resume"; the first-stream
	// ledger has one path.
	Path string `json:"path,omitempty"`
	Reps int    `json:"reps"`

	Wall      time.Duration   `json:"wall_ns"`
	Library   time.Duration   `json:"library_ns"`
	Stages    []time.Duration `json:"stages_ns"` // indexed by the ledger's stage constants
	Remainder time.Duration   `json:"remainder_ns"`

	// First stream: CodeBytes is the executable memory the stream's
	// traces fill (whole pages), Traces how many it compiled, Translated
	// the guest instructions its block build decoded and Compiled the
	// micro-ops it handed the trace compiler (vm.Stats.GuestTranslated,
	// UopsCompiled).
	CodeBytes  int64  `json:"code_bytes,omitempty"`
	Traces     uint64 `json:"traces,omitempty"`
	Translated uint64 `json:"guest_translated,omitempty"`
	Compiled   uint64 `json:"uops_compiled,omitempty"`
	// Pooled stream: Tier2Share is the share of the stream's
	// instructions compiled traces retired, MinorFaults the minor page
	// faults its thread took from the lease to the release.
	Tier2Share  float64 `json:"tier2_share,omitempty"`
	MinorFaults float64 `json:"minor_faults,omitempty"`
}

// PerUnit is stage i's mean time per unit of n: per guest instruction
// translated for block build, per micro-op compiled for emit and seal.
func (r LedgerRow) PerUnit(i int, n uint64) float64 {
	return float64(r.Stages[i]) / float64(max(n, 1))
}

// RemainderShare is the part of Wall no stage accounts for.
func (r LedgerRow) RemainderShare() float64 {
	return float64(r.Remainder) / float64(r.Wall)
}

// add accumulates one operation and its library twin into r.
func (r *LedgerRow) add(o LedgerRow, lib time.Duration) {
	r.Wall += o.Wall
	r.Library += lib
	if r.Stages == nil {
		r.Stages = make([]time.Duration, len(o.Stages))
	}
	for i, d := range o.Stages {
		r.Stages[i] += d
	}
	r.CodeBytes, r.Traces, r.Translated, r.Compiled = o.CodeBytes, o.Traces, o.Translated, o.Compiled
	r.Tier2Share += o.Tier2Share
	r.MinorFaults += o.MinorFaults
}

// div turns the sums of Reps operations into means and takes the
// remainder.
func (r *LedgerRow) div() {
	d := time.Duration(r.Reps)
	r.Wall /= d
	r.Library /= d
	r.Remainder = r.Wall
	for i := range r.Stages {
		r.Stages[i] /= d
		r.Remainder -= r.Stages[i]
	}
	r.Tier2Share /= float64(r.Reps)
	r.MinorFaults /= float64(r.Reps)
}

// startupEntry builds a one-entry archive whose entry decodes to about
// 4 KiB through codec name's decoder.
func startupEntry(name string) ([]byte, error) {
	c, ok := codec.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: codec %s not registered", name)
	}
	var raw []byte
	switch c.Output {
	case "BMP image":
		raw = bmp.Encode(corpus.Image(36, 36, 2))
	case "WAV audio":
		raw = wav.Encode(corpus.Audio(1024, 2, 3))
	default:
		raw = corpus.Text(4<<10, 1)
	}
	return codecArchive(c, raw, archiveEntry{"entry", 0644})
}

// archiveEntry names one entry of codecArchive's archive.
type archiveEntry struct {
	name string
	mode uint32
}

// codecArchive builds an archive holding raw, in the form c's decoder
// turns it back from, once per entry.
func codecArchive(c *codec.Codec, raw []byte, entries ...archiveEntry) ([]byte, error) {
	// The writer picks deflate and lpc for raw text and audio by itself;
	// the other four are recognized from their encoded form.
	data := raw
	if c.Name != "deflate" && c.Name != "lpc" {
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			return nil, fmt.Errorf("bench: %s encode: %w", c.Name, err)
		}
		data = enc.Bytes()
	}
	var buf bytes.Buffer
	w := core.NewWriter(&buf, core.WriterOptions{})
	for _, e := range entries {
		if err := w.AddFile(e.name, data, e.mode); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Startup measures the first-stream ledger of every Table 1 decoder over
// reps cold operations each: what a process with nothing cached spends,
// stage by stage, to decode one small entry through its archived
// decoder.
func Startup(reps int) ([]LedgerRow, error) {
	if reps < 1 {
		return nil, fmt.Errorf("bench: startup reps must be >= 1 (got %d)", reps)
	}
	var rows []LedgerRow
	for _, name := range paperCodecs {
		archive, err := startupEntry(name)
		if err != nil {
			return nil, err
		}
		row := LedgerRow{Codec: name, Reps: reps}
		// One unrecorded operation of each kind first: the process's own
		// first-use costs are not the decoder's.
		for i := -1; i < reps; i++ {
			var one LedgerRow
			if err := startupOp(archive, name, &one); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			// Each operation leaves a guest mapping and its garbage
			// behind; a process that starts once never sees them pile up.
			runtime.GC()
			lib, err := startupLibraryOp(archive)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			runtime.GC()
			if i >= 0 {
				row.add(one, lib)
			}
		}
		row.div()
		rows = append(rows, row)
	}
	return rows, nil
}

// startupOp is one cold first stream, taken apart and clocked.
func startupOp(archive []byte, name string, row *LedgerRow) error {
	t0 := time.Now()
	zr, err := zipfile.NewReaderAt(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		return err
	}
	var fh *zipfile.FileHeader
	for i := range zr.Files {
		if zr.Files[i].Name == "entry" {
			fh = &zr.Files[i]
		}
	}
	if fh == nil || fh.VXA == nil {
		return fmt.Errorf("the archive's entry carries no decoder")
	}
	payload, err := zr.PayloadSection(fh)
	if err != nil {
		return err
	}
	t1 := time.Now()
	elf, err := zr.Decoder(fh.VXA.DecoderOffset)
	if err != nil {
		return err
	}
	t2 := time.Now()
	prog, err := elf32.Parse(elf)
	if err != nil {
		return err
	}
	v, err := vm.New(vm.Config{MemSize: codec.DefaultDecoderMemSize})
	if err != nil {
		return err
	}
	if err := elf32.Load(v, prog); err != nil {
		return err
	}
	t3 := time.Now()
	snap := v.Snapshot()
	t4 := time.Now()
	reusable, err := v.RunStream(context.Background(), payload, io.Discard, nil, vm.StreamFuel(int(payload.Size())))
	if err != nil || !reusable {
		return fmt.Errorf("%s decoder: reusable=%v: %v", name, reusable, err)
	}
	t5 := time.Now()
	snap.AbsorbBlocks(v)
	t6 := time.Now()

	st := v.Stats()
	emit, seal, sb := time.Duration(st.Tier2EmitNS), time.Duration(st.Tier2SealNS), time.Duration(st.SuperblockNS)
	row.Wall = t6.Sub(t0)
	row.Stages = []time.Duration{
		StageZipOpen:     t1.Sub(t0),
		StageDecoderRead: t2.Sub(t1),
		StageELFLoad:     t3.Sub(t2),
		StageSnapshot:    t4.Sub(t3),
		StageBlockBuild:  time.Duration(st.TranslateNS) - emit - seal,
		StageSuperblock:  sb,
		StageTier2Emit:   emit,
		StageTier2Seal:   seal,
		// ExecuteNS is the run less TranslateNS, which does not cover
		// superblock formation.
		StageExecute:  time.Duration(st.ExecuteNS) - sb,
		StageTeardown: t6.Sub(t5),
	}
	row.CodeBytes, row.Traces = snap.CodeBytes(), st.Tier2Compiled
	row.Translated, row.Compiled = st.GuestTranslated, st.UopsCompiled
	return nil
}

// startupLibraryOp is the same first stream through the public path.
func startupLibraryOp(archive []byte) (time.Duration, error) {
	start := time.Now()
	r, err := core.NewReader(archive)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for i := range r.Entries() {
		if e := &r.Entries()[i]; e.Name == "entry" {
			if _, err := r.ExtractTo(context.Background(), e, io.Discard,
				core.WithMode(core.AlwaysVXA), core.WithDecodeAll(true)); err != nil {
				return 0, err
			}
		}
	}
	if err := r.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
