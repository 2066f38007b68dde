package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/zipfile"
)

// decoderMemSize is the guest address space the library gives archived
// decoders (core.DefaultDecoderMemSize); the traced path must match it or
// it would measure a different machine.
const decoderMemSize = 64 << 20

// layerRunner drives one archive's streams through the layers' public
// functions in the order the library does — payload section, pool lease,
// RunStream into a CRC-summing writer, release — with a span around each
// call and the engine's counters read at the same boundaries.
type layerRunner struct {
	zr    *zipfile.Reader
	files map[string]*zipfile.FileHeader
	pool  *vmpool.Pool
	tr    *tracer
	acc   *layerAcc
	// steps remembers the guest instruction count of every (stream,
	// pristine-or-resumed) pair: the same stream on the same starting
	// state must retire the same number of instructions every time.
	steps map[string]uint64
}

func newLayerRunner(archive []byte, tr *tracer, acc *layerAcc) (*layerRunner, error) {
	zr, err := zipfile.NewReader(archive)
	if err != nil {
		return nil, err
	}
	lr := &layerRunner{
		zr: zr, files: map[string]*zipfile.FileHeader{}, tr: tr, acc: acc, steps: map[string]uint64{},
		pool: vmpool.New(vmpool.Options{VM: vm.Config{MemSize: decoderMemSize}}),
	}
	for i := range zr.Files {
		lr.files[zr.Files[i].Name] = &zr.Files[i]
	}
	return lr, nil
}

// streamFacts is what one traced stream reports back.
type streamFacts struct {
	steps uint64
	run   time.Duration // the bare vm.RunStream span
}

// extract decodes one entry layer by layer. record is false during the
// warm-up pass: spans and counters are then discarded.
func (lr *layerRunner) extract(ctx context.Context, opID int, s *stream, out io.Writer, record bool) (streamFacts, error) {
	tr := lr.tr
	if !record {
		tr = newTracer()
	}
	fh := lr.files[s.id]
	if fh == nil || fh.VXA == nil {
		return streamFacts{}, fmt.Errorf("%s: no archived decoder in the archive", s.id)
	}
	root := tr.begin(rootSpan, opID, -1)
	defer tr.end(root)

	sp := tr.begin("zipfile.payload_section", opID, root)
	payload, err := lr.zr.PayloadSection(fh)
	tr.end(sp)
	if err != nil {
		return streamFacts{}, err
	}
	if fh.VXA.PreCompressed {
		// A pre-compressed entry's CRC covers the stored form; the
		// library checks it before a forced decode.
		sp = tr.begin("core.payload_crc", opID, root)
		crc := crc32.NewIEEE()
		_, err := io.Copy(crc, payload)
		if err == nil {
			_, err = payload.Seek(0, io.SeekStart)
		}
		tr.end(sp)
		if err != nil {
			return streamFacts{}, err
		}
		if crc.Sum32() != fh.CRC32 {
			return streamFacts{}, fmt.Errorf("%s: stored payload CRC mismatch", s.id)
		}
	}

	before := lr.pool.Stats()
	sp = tr.begin("vmpool.get", opID, root)
	key := fmt.Sprintf("%s@%#x", fh.VXA.Codec, fh.VXA.DecoderOffset)
	lease, err := lr.pool.Get(ctx, key, fh.Mode, func() ([]byte, error) {
		rd := tr.begin("zipfile.decoder_read", opID, sp)
		defer tr.end(rd)
		return lr.zr.Decoder(fh.VXA.DecoderOffset)
	})
	getDur := tr.end(sp)
	if err != nil {
		return streamFacts{}, err
	}
	after := lr.pool.Stats()

	v := lease.VM()
	st0 := v.Stats()
	tw := newTimedWriter(out)
	sp = tr.begin("vm.run_stream", opID, root)
	reusable, err := v.RunStream(ctx, payload, tw, nil, vm.StreamFuel(int(payload.Size())))
	runDur := tr.end(sp)
	tr.add("core.host_write", opID, sp, tw.ns)
	st1 := v.Stats()
	pristine := lease.Pristine()

	sp = tr.begin("vmpool.release", opID, root)
	lease.Release(reusable && err == nil)
	relDur := tr.end(sp)
	if err != nil {
		return streamFacts{}, fmt.Errorf("%s: %w", s.id, err)
	}
	if !fh.VXA.PreCompressed && tw.crc.Sum32() != fh.CRC32 {
		return streamFacts{}, fmt.Errorf("%s: decoded data CRC mismatch", s.id)
	}

	facts := streamFacts{steps: st1.Steps - st0.Steps, run: runDur}
	stepKey := fmt.Sprintf("%s pristine=%v", s.id, pristine)
	if prev, ok := lr.steps[stepKey]; ok && prev != facts.steps {
		return facts, fmt.Errorf("%s: %d guest instructions, %d on an earlier repeat from the same state", stepKey, facts.steps, prev)
	}
	lr.steps[stepKey] = facts.steps
	if !record {
		return facts, nil
	}

	switch {
	case after.Resumes > before.Resumes:
		lr.acc.sample("vmpool.lease_resume_us", us(getDur))
	case after.Resets > before.Resets:
		lr.acc.sample("vmpool.lease_reset_us", us(getDur))
	}
	lr.acc.sample("vmpool.release_us", us(relDur))
	lr.acc.sample("core.host_write_us", us(tw.ns))
	observeStream(lr.acc, s.dec.codec.Name, st0, st1, runDur-tw.ns, int64(s.wantLen))
	return facts, nil
}

// observeStream folds one stream's engine-counter deltas into the
// per-decoder and per-stream vm metrics. run is the guest's own time:
// the RunStream span less the host writes inside it.
func observeStream(acc *layerAcc, dec string, st0, st1 vm.Stats, run time.Duration, outBytes int64) {
	steps := float64(st1.Steps - st0.Steps)
	acc.ratio("vxcc.steps_per_byte."+dec, steps, float64(outBytes))
	acc.sample("vm.run_ms."+dec, ms(run))
	acc.ratio("vm.ns_per_step."+dec, float64(st1.ExecuteNS-st0.ExecuteNS), steps)
	acc.ratio("vm.tier2_step_share."+dec, float64(st1.Tier2Steps-st0.Tier2Steps), steps)
	acc.ratio("vm.tier2_step_share", float64(st1.Tier2Steps-st0.Tier2Steps), steps)
	acc.ratio("vm.tier2_compiled_per_stream", float64(st1.Tier2Compiled-st0.Tier2Compiled), 1)
	acc.ratio("vm.translate_us_per_stream", float64(st1.TranslateNS-st0.TranslateNS)/1e3, 1)
	acc.ratio("vm.blocks_built_per_op", float64(st1.BlocksBuilt-st0.BlocksBuilt), 1)
	acc.ratio("vm.superblocks_formed_per_op", float64(st1.SuperblocksFormed-st0.SuperblocksFormed), 1)
	acc.ratio("vm.syscalls_per_kb", float64(st1.Syscalls-st0.Syscalls), float64(outBytes)/1024)
	acc.ratio("vm.flags_materialized_per_kuop", float64(st1.FlagsMaterialized-st0.FlagsMaterialized), float64(st1.UopsExecuted-st0.UopsExecuted)/1000)
}

// measureReset times VM.Reset on a VM dirtied by one stream of each
// decoder, the cost the pool pays on every change of security mode.
func measureReset(ctx context.Context, acc *layerAcc, streams []*stream) error {
	seen := map[string]bool{}
	for _, s := range streams {
		if seen[s.dec.codec.Name] {
			continue
		}
		seen[s.dec.codec.Name] = true
		v, err := elf32.NewVM(s.dec.elf, vm.Config{MemSize: decoderMemSize})
		if err != nil {
			return err
		}
		snap := v.Snapshot()
		for rep := 0; rep < 5; rep++ {
			if _, err := v.RunStream(ctx, bytes.NewReader(s.enc), io.Discard, nil, vm.StreamFuel(len(s.enc))); err != nil {
				return fmt.Errorf("%s: %w", s.id, err)
			}
			start := time.Now()
			if err := v.Reset(snap); err != nil {
				return err
			}
			acc.sample("vm.reset_us", us(time.Since(start)))
		}
	}
	return nil
}
