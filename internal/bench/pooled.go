package bench

import (
	"context"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"runtime"
	"time"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/wav"
	"vxa/internal/zipfile"
)

// The stages of a pooled stream, in the order they happen. Translation
// is interleaved with execution inside the run; the engine's own
// counters tell them apart.
const (
	PooledLease     = iota // vmpool.Get picking the parked VM up
	PooledReset            // VM.Reset onto the pristine snapshot: a lease after a mode change only
	PooledTranslate        // fragments, superblocks and traces built during the stream
	PooledExecute          // running translated code on either tier, less the guest I/O
	PooledGuestIO          // the guest's reads of the payload and writes of its output (the decoded-data CRC included)
	PooledRelease          // Lease.Release, the absorb into the snapshot included
	PooledClock            // clock reads no other stage covers: clockReadsPerRun around the run, and one per timed guest read or write
	numPooledStages
)

// PooledStageNames labels a pooled LedgerRow's Stages.
var PooledStageNames = [numPooledStages]string{
	"lease", "reset", "translation", "execution", "guest I/O", "release",
	"clock reads",
}

// pooledWarmup is how many streams of each path run before the recorded
// ones: more than a VM takes to form and compile what a stream of every
// built-in decoder runs.
const pooledWarmup = 200

// pooledEntry builds an archive of two entries of the same content in
// two security modes, "a" 0644 and "b" 0600, which decodes to about
// 256 B through codec name's decoder.
func pooledEntry(name string) ([]byte, error) {
	c, ok := codec.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: codec %s not registered", name)
	}
	var raw []byte
	switch c.Output {
	case "BMP image":
		raw = bmp.Encode(corpus.Image(9, 9, 2))
	case "WAV audio":
		raw = wav.Encode(corpus.Audio(53, 2, 3))
	default:
		raw = corpus.Text(256, 1)
	}
	return codecArchive(c, raw, archiveEntry{"a", 0644}, archiveEntry{"b", 0600})
}

// Pooled measures the pooled-stream ledger of every Table 1 decoder:
// what a warm pool spends on one small entry, on two paths, over reps
// streams each. On "reset" the stream follows a change of security mode,
// and its VM is rewound to the pristine snapshot (§2.4); on "resume" it
// follows a stream of the same mode, and its VM resumes in place. The
// two paths run on pools of their own, one stream of each in turn, so
// that the host's noise falls on both alike. The VMs taken apart run at
// vm.OptTier2, the default, whatever VXA_OPT says; the library op runs
// at the process's level. Each decoder's streams run on one OS thread,
// whose minor page faults (getrusage RUSAGE_THREAD) are counted around
// every stream taken apart: what the reset path's page handling costs
// beside the resume path's.
func Pooled(reps int) ([]LedgerRow, error) {
	if reps < 1 {
		return nil, fmt.Errorf("bench: pooled reps must be >= 1 (got %d)", reps)
	}
	var rows []LedgerRow
	for _, name := range paperCodecs {
		two, err := pooledRows(name, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		rows = append(rows, two[:]...)
	}
	return rows, nil
}

// pooledRows measures one decoder's reset and resume rows.
func pooledRows(name string, reps int) (rows [2]LedgerRow, err error) {
	archive, err := pooledEntry(name)
	if err != nil {
		return rows, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var runs [2]*pooledRun
	for k, path := range []string{"reset", "resume"} {
		if runs[k], err = newPooledRun(archive, name, path, reps); err != nil {
			return rows, err
		}
		defer runs[k].lib.Close()
	}
	for i := -pooledWarmup; i < reps; i++ {
		for _, r := range runs {
			if err := r.step(i); err != nil {
				return rows, err
			}
		}
	}
	for k, r := range runs {
		r.ops.fold(&r.row)
		rows[k] = r.row
	}
	return rows, nil
}

// pooledRun is one decoder's archive on one path, opened twice: taken
// apart (its zip reader, a pool seeded with the decoder's snapshot) and
// through the library. ops collects its recorded streams, which fold
// into row.
type pooledRun struct {
	zr     *zipfile.Reader
	fh     *zipfile.FileHeader // entry a
	key    string
	pool   *vmpool.Pool
	snap   *vm.Snapshot
	lib    *core.Reader
	libEnt [2]*core.Entry // a and b
	row    LedgerRow
	ops    ledgerOps
	clk    time.Duration // what a clock read costs
}

func newPooledRun(archive []byte, name, path string, reps int) (*pooledRun, error) {
	zr, err := zipfile.NewReader(archive)
	if err != nil {
		return nil, err
	}
	if len(zr.Files) != 2 || zr.Files[0].VXA == nil {
		return nil, fmt.Errorf("the archive's entries carry no decoder")
	}
	p := &pooledRun{zr: zr, fh: &zr.Files[0], row: LedgerRow{Codec: name, Path: path, Reps: reps}, clk: clockRead()}
	elf, err := zr.Decoder(p.fh.VXA.DecoderOffset)
	if err != nil {
		return nil, err
	}
	// The VM configuration archive readers use (core.runArchivedDecoder),
	// at the default level.
	cfg := vm.Config{MemSize: codec.DefaultDecoderMemSize, OptLevel: vm.OptTier2}
	v, err := elf32.NewVM(elf, cfg)
	if err != nil {
		return nil, err
	}
	p.key, p.snap = p.fh.VXA.Codec, v.Snapshot()
	p.pool = vmpool.New(vmpool.Options{VM: cfg})
	p.pool.Seed(p.key, p.snap, v)
	if p.lib, err = core.NewReader(archive); err != nil {
		return nil, err
	}
	for i := range p.libEnt {
		p.libEnt[i] = &p.lib.Entries()[i]
	}
	return p, nil
}

// step runs stream i of the path taken apart, then through the library,
// and adds both to the row when i >= 0.
func (p *pooledRun) step(i int) error {
	reset := p.row.Path == "reset"
	one, err := p.op(reset)
	if err != nil {
		return err
	}
	// The library op leases the other entry after a mode change, the same
	// one otherwise.
	e := p.libEnt[0]
	if reset {
		e = p.libEnt[(i+pooledWarmup)%2]
	}
	start := time.Now()
	if _, err := p.lib.ExtractTo(context.Background(), e, io.Discard,
		core.WithMode(core.AlwaysVXA), core.WithDecodeAll(true)); err != nil {
		return err
	}
	lib := time.Since(start)
	if i >= 0 {
		p.ops.add(one, lib)
	}
	return nil
}

// op is one pooled stream of entry a, taken apart and clocked; reset
// rewinds the VM to the pristine snapshot first, as a lease after a
// mode change does.
func (p *pooledRun) op(reset bool) (LedgerRow, error) {
	ctx := context.Background()
	fh := p.fh
	// A section over the archive in memory: no I/O, so it stays off the
	// clock.
	payload, err := p.zr.PayloadSection(fh)
	if err != nil {
		return LedgerRow{}, err
	}
	in, out := &timedIO{r: payload}, &timedIO{w: io.Discard}
	if !fh.VXA.PreCompressed {
		// Decoded output is summed as it is written, as ExtractTo does.
		out.crc = crc32.NewIEEE()
	}
	faults := threadMinorFaults()
	t0 := time.Now()
	lease, err := p.pool.Get(ctx, p.key, fh.Mode, nil)
	if err != nil {
		return LedgerRow{}, err
	}
	t1 := time.Now()
	v := lease.VM()
	if reset {
		if err := v.Reset(p.snap); err != nil {
			lease.Release(false)
			return LedgerRow{}, err
		}
	}
	t2 := time.Now()
	st0 := v.Stats()
	reusable, err := v.RunStream(ctx, in, out, nil, vm.StreamFuel(int(payload.Size())))
	st1 := v.Stats()
	if err != nil || !reusable {
		lease.Release(false)
		return LedgerRow{}, fmt.Errorf("reusable=%v: %v", reusable, err)
	}
	t3 := time.Now()
	lease.Release(true)
	t4 := time.Now()
	faults = threadMinorFaults() - faults
	if out.crc != nil && out.crc.Sum32() != fh.CRC32 {
		return LedgerRow{}, fmt.Errorf("decoded data CRC mismatch")
	}

	sb := time.Duration(st1.SuperblockNS - st0.SuperblockNS)
	guestIO := in.ns + out.ns
	// A timed read or write leaves one clock read's worth outside its own
	// window, inside the run's.
	ioClock := time.Duration(in.calls+out.calls) * p.clk
	steps := float64(st1.Steps - st0.Steps)
	return LedgerRow{
		Wall: t4.Sub(t0),
		Stages: []time.Duration{
			PooledLease:     t1.Sub(t0),
			PooledReset:     t2.Sub(t1),
			PooledTranslate: time.Duration(st1.TranslateNS-st0.TranslateNS) + sb,
			// ExecuteNS is the run less TranslateNS, which does not
			// cover superblock formation; the guest's host I/O runs
			// inside it, and so do the clock reads that time it.
			PooledExecute: time.Duration(st1.ExecuteNS-st0.ExecuteNS) - sb - guestIO - ioClock,
			PooledGuestIO: guestIO,
			PooledRelease: t4.Sub(t3),
			PooledClock:   clockReadsPerRun*p.clk + ioClock,
		},
		Tier2Share:  float64(st1.Tier2Steps-st0.Tier2Steps) / steps,
		MinorFaults: float64(faults),
	}, nil
}

// timedIO is a guest stream's host side, clocked: reads from r or writes
// to w (and crc, when set), calls of them in all.
type timedIO struct {
	r     io.Reader
	w     io.Writer
	crc   hash.Hash32
	ns    time.Duration
	calls int
}

func (t *timedIO) Read(p []byte) (int, error) {
	t.calls++
	start := time.Now()
	n, err := t.r.Read(p)
	t.ns += time.Since(start)
	return n, err
}

func (t *timedIO) Write(p []byte) (int, error) {
	t.calls++
	start := time.Now()
	if t.crc != nil {
		t.crc.Write(p)
	}
	n, err := t.w.Write(p)
	t.ns += time.Since(start)
	return n, err
}
