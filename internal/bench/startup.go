package bench

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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
	StageClock              // the clock reads around the run that no other stage covers (clockReadsPerRun)
	numStartupStages
)

// StartupStageNames labels a first-stream LedgerRow's Stages.
var StartupStageNames = [numStartupStages]string{
	"zip open", "decoder read", "ELF parse+load", "snapshot", "block build",
	"superblock formation", "tier-2 emit", "tier-2 seal", "execution", "teardown",
	"clock reads",
}

// clockReadsPerRun is how many clock reads' worth of time a ledger's
// bracket around RunStream holds outside every stage. The ledgers time
// the run by the engine's own counters, which RunContext reads the clock
// around, and between stamps of their own taken before and after it: of
// those four reads, the second half of the first, the first half of the
// second, the second half of the third and the first half of the fourth
// fall outside both windows. Every other interval of a ledger starts on
// the stamp the one before it ended on. At 70-100 ns a read, on a
// two-vCPU x86 VM, that is 5% of a 3-6 µs pooled stream; RunStream's own
// work outside RunContext's window is a tenth of it.
const clockReadsPerRun = 2

// clockRead measures what one time.Now costs this process: the least
// mean over five batches of reads.
func clockRead() time.Duration {
	const n = 4096
	best := time.Duration(math.MaxInt64)
	for range 5 {
		start := time.Now()
		for range n {
			time.Now()
		}
		best = min(best, time.Since(start)/n)
	}
	return best
}

// LedgerRow is one decoder's row of a stage ledger: what one stream
// costs it, stage by stage. Every figure is a mean over the operations
// Reps counts less the slowest of them (ledgerTrim), so Stages and
// Remainder add up to Wall exactly.
//
// The stages are clocked on the operation taken apart — the calls the
// library makes for the stream, made one after another — and Wall is
// that operation's own wall time, so Remainder is what falls between the
// clocks and no stage estimates: RunStream outside the engine's own
// counters and the clock reads there, less the clock-read stage's
// estimate of the latter (clockReadsPerRun). Library is the same stream
// through the public path (ExtractTo) on alternate operations, for
// comparison: it adds the pool, the span plumbing and the payload CRC to
// the same work.
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

// ledgerTrim is the share of a row's operations, the slowest by wall
// time, that its means leave out; its library operations are trimmed
// alike by their own times. On a shared host a stream now and then loses
// tens of microseconds to the host — an interrupt, a descheduled vCPU —
// and where that falls between the clocks it lands in the remainder: one
// such stream among fifty 4 µs ones is 5% of the mean. The slowest tenth
// holds those streams, and a cost every stream pays stays in the means.
const ledgerTrim = 0.1

// ledgerOps collects a row's operations and their library twins.
type ledgerOps struct {
	ops  []LedgerRow
	libs []time.Duration
}

func (l *ledgerOps) add(o LedgerRow, lib time.Duration) {
	l.ops = append(l.ops, o)
	l.libs = append(l.libs, lib)
}

// fold sets r's figures to the means of the operations l holds, less the
// slowest ledgerTrim of them, and takes the remainder.
func (l *ledgerOps) fold(r *LedgerRow) {
	slices.SortFunc(l.ops, func(a, b LedgerRow) int { return cmp.Compare(a.Wall, b.Wall) })
	slices.Sort(l.libs)
	keep := len(l.ops) - int(ledgerTrim*float64(len(l.ops)))
	ops, libs := l.ops[:keep], l.libs[:keep]
	r.Stages = make([]time.Duration, len(ops[0].Stages))
	for _, o := range ops {
		r.Wall += o.Wall
		for i, d := range o.Stages {
			r.Stages[i] += d
		}
		r.Tier2Share += o.Tier2Share
		r.MinorFaults += o.MinorFaults
	}
	for _, d := range libs {
		r.Library += d
	}
	o := l.ops[0]
	r.CodeBytes, r.Traces, r.Translated, r.Compiled = o.CodeBytes, o.Traces, o.Translated, o.Compiled
	n := time.Duration(keep)
	r.Wall /= n
	r.Library /= n
	r.Remainder = r.Wall
	for i := range r.Stages {
		r.Stages[i] /= n
		r.Remainder -= r.Stages[i]
	}
	r.Tier2Share /= float64(keep)
	r.MinorFaults /= float64(keep)
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
		var ops ledgerOps
		clk := clockRead()
		// One unrecorded operation of each kind first: the process's own
		// first-use costs are not the decoder's.
		for i := -1; i < reps; i++ {
			var one LedgerRow
			if err := startupOp(archive, name, clk, &one); err != nil {
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
				ops.add(one, lib)
			}
		}
		ops.fold(&row)
		rows = append(rows, row)
	}
	return rows, nil
}

// startupOp is one cold first stream, taken apart and clocked; clk is
// what a clock read costs.
func startupOp(archive []byte, name string, clk time.Duration, row *LedgerRow) error {
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
		StageClock:    clockReadsPerRun * clk,
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
