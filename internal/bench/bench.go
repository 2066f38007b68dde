// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's §5 against this reproduction's codecs and
// virtual machine, keeps two ledgers (the optimization ladder and a first
// stream's stages), and drives vxad for CI's chaos and fleet smokes. The
// cmd/vxbench tool prints the results; the repository-root benchmarks
// time the same workloads under testing.B. Serving-path performance is
// measured by the benchmark of record in benchmark/, not here.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/wav"
)

// Workload is one codec's benchmark input: raw data plus encoded stream.
type Workload struct {
	Codec   *codec.Codec
	Raw     []byte
	Encoded []byte
}

// paperCodecs lists the six decoders of Table 1 in paper order.
var paperCodecs = []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"}

// Workloads builds the Figure 7 corpus for every Table 1 codec:
// text for the general-purpose codecs, images for the image codecs,
// audio for the audio codecs. Sizes are scaled to interpreter speed and
// recorded in EXPERIMENTS.md.
func Workloads() ([]Workload, error) {
	text := corpus.Text(1<<18, 1)
	img := bmp.Encode(corpus.Image(256, 256, 2))
	aud := wav.Encode(corpus.Audio(88200, 2, 3))
	return encodeEach(func(c *codec.Codec) []byte {
		switch c.Output {
		case "BMP image":
			return img
		case "WAV audio":
			return aud
		}
		return text
	})
}

// encodeEach encodes input(c) with every Table 1 codec c.
func encodeEach(input func(c *codec.Codec) []byte) ([]Workload, error) {
	var out []Workload
	for _, name := range paperCodecs {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: codec %s not registered", name)
		}
		raw := input(c)
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			return nil, fmt.Errorf("bench: %s encode: %w", name, err)
		}
		out = append(out, Workload{Codec: c, Raw: raw, Encoded: enc.Bytes()})
	}
	return out, nil
}

// Fig7Row is one decoder's virtualization-cost measurement. The VX32
// time splits into the translate phase (decoding + lowering fragments to
// micro-ops) and the execute phase (running them); the translation
// engine's counters expose how the speedup mechanisms behaved.
type Fig7Row struct {
	Codec           string        `json:"codec"`
	InputBytes      int           `json:"input_bytes"`
	Native          time.Duration `json:"native_ns"`
	VX32            time.Duration `json:"vx32_ns"`
	Translate       time.Duration `json:"translate_ns"`      // decode+lower phase of the VX32 run
	Execute         time.Duration `json:"execute_ns"`        // VX32 minus the translate phase
	Slowdown        float64       `json:"slowdown"`          // VX32 / Native
	SpeedupVsNative float64       `json:"speedup_vs_native"` // Native / VX32 (< 1 while the VM is slower than native)
	GuestMIPS       float64       `json:"guest_mips"`        // guest instructions per second under VX32
	UopsExecuted    uint64        `json:"uops_executed"`
	BlocksChained   uint64        `json:"blocks_chained"`
	FlagsPerKuop    float64       `json:"flags_materialized_per_kuop"` // lazily materialized flag bits per 1000 uops
	Tier2Compiled   uint64        `json:"tier2_compiled"`              // superblock traces promoted to compiled form
	Tier2StepShare  float64       `json:"tier2_step_share"`            // fraction of guest instructions retired in tier-2 traces
}

// Fig7 measures native vs virtualized decode time for every codec. The
// §4.2 fragment-cache ablation is the reference rung of Ladder.
func Fig7() ([]Fig7Row, error) {
	ws, err := Workloads()
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, w := range ws {
		row := Fig7Row{Codec: w.Codec.Name, InputBytes: len(w.Raw)}

		start := time.Now()
		if err := w.Codec.Decode(io.Discard, bytes.NewReader(w.Encoded)); err != nil {
			return nil, fmt.Errorf("%s native: %w", w.Codec.Name, err)
		}
		row.Native = time.Since(start)

		stats, dur, err := runVX(w, vm.Config{MemSize: codec.DefaultDecoderMemSize})
		if err != nil {
			return nil, err
		}
		row.VX32 = dur
		row.Translate = time.Duration(stats.TranslateNS)
		row.Execute = dur - row.Translate
		row.GuestMIPS = float64(stats.Steps) / dur.Seconds() / 1e6
		row.UopsExecuted = stats.UopsExecuted
		row.BlocksChained = stats.BlocksChained
		if stats.UopsExecuted > 0 {
			row.FlagsPerKuop = 1000 * float64(stats.FlagsMaterialized) / float64(stats.UopsExecuted)
		}
		row.Tier2Compiled = stats.Tier2Compiled
		if stats.Steps > 0 {
			row.Tier2StepShare = float64(stats.Tier2Steps) / float64(stats.Steps)
		}
		row.Slowdown = float64(row.VX32) / float64(row.Native)
		row.SpeedupVsNative = float64(row.Native) / float64(row.VX32)
		rows = append(rows, row)
	}
	return rows, nil
}

func runVX(w Workload, cfg vm.Config) (stats vm.Stats, dur time.Duration, err error) {
	elf, err := w.Codec.DecoderELF()
	if err != nil {
		return vm.Stats{}, 0, err
	}
	v, err := elf32.NewVM(elf, cfg)
	if err != nil {
		return vm.Stats{}, 0, err
	}
	v.Stdin = bytes.NewReader(w.Encoded)
	v.Stdout = io.Discard
	start := time.Now()
	st, err := v.Run()
	dur = time.Since(start)
	if err != nil {
		return vm.Stats{}, 0, fmt.Errorf("%s vx32: %w", w.Codec.Name, err)
	}
	if st == vm.StatusExit && v.ExitCode() != 0 {
		return vm.Stats{}, 0, fmt.Errorf("%s vx32: exit %d", w.Codec.Name, v.ExitCode())
	}
	return v.Stats(), dur, nil
}

// LadderRow is one codec's decode time at every step of the engine's
// optimization ladder (vm.OptLevels, lowest first): reference, then
// tier 1 (the fragment cache, the optimizer and superblocks), then tier
// 2, so each step's ratio to the one below it is what that step adds.
// Output correctness at every level is pinned separately by the
// differential test wall (TestOptLadder); this measures only speed.
type LadderRow struct {
	Codec string       `json:"codec"`
	Steps []LadderStep `json:"steps"`
	// Translation counters of the default (tier2) run.
	FlagsElided       uint64 `json:"flags_elided"`
	UopsFused         uint64 `json:"uops_fused"`
	SuperblocksFormed uint64 `json:"superblocks_formed"`
	Tier2Compiled     uint64 `json:"tier2_compiled"`
	Tier2Executed     uint64 `json:"tier2_executed"`
}

// LadderStep is one level's decode time.
type LadderStep struct {
	Level string        `json:"level"`
	VX32  time.Duration `json:"vx32_ns"`
}

// Ladder measures every codec at each optimization level.
func Ladder() ([]LadderRow, error) {
	ws, err := Workloads()
	if err != nil {
		return nil, err
	}
	var rows []LadderRow
	for _, w := range ws {
		row := LadderRow{Codec: w.Codec.Name}
		for _, level := range vm.OptLevels() {
			stats, dur, err := runVX(w, vm.Config{MemSize: codec.DefaultDecoderMemSize, OptLevel: level})
			if err != nil {
				return nil, fmt.Errorf("%s at %v: %w", w.Codec.Name, level, err)
			}
			row.Steps = append(row.Steps, LadderStep{Level: level.String(), VX32: dur})
			if level == vm.OptTier2 {
				row.FlagsElided = stats.FlagsElided
				row.UopsFused = stats.UopsFused
				row.SuperblocksFormed = stats.SuperblocksFormed
				row.Tier2Compiled = stats.Tier2Compiled
				row.Tier2Executed = stats.Tier2Executed
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Regression is one codec's comparison against a baseline run.
type Regression struct {
	Codec    string        `json:"codec"`
	Baseline time.Duration `json:"baseline_vx32_ns"`
	Current  time.Duration `json:"vx32_ns"`
	Ratio    float64       `json:"ratio"` // Current / Baseline; > 1 is a regression
}

// CompareFig7 matches the current Figure-7 rows against a baseline run
// by codec name and returns the per-codec time ratios plus their
// geometric mean (1.0 = unchanged, above 1 = slower than the baseline).
// Codecs present on only one side are skipped.
func CompareFig7(baseline, current []Fig7Row) ([]Regression, float64) {
	base := make(map[string]Fig7Row, len(baseline))
	for _, r := range baseline {
		base[r.Codec] = r
	}
	var regs []Regression
	logSum, matched := 0.0, 0
	for _, r := range current {
		b, ok := base[r.Codec]
		if !ok || b.VX32 <= 0 || r.VX32 <= 0 {
			continue
		}
		ratio := float64(r.VX32) / float64(b.VX32)
		regs = append(regs, Regression{Codec: r.Codec, Baseline: b.VX32, Current: r.VX32, Ratio: ratio})
		logSum += math.Log(ratio)
		matched++
	}
	if matched == 0 {
		return regs, 1
	}
	return regs, math.Exp(logSum / float64(matched))
}

// Table1Row is one line of the decoder inventory.
type Table1Row struct {
	Codec  string `json:"codec"`
	Desc   string `json:"desc"`
	Output string `json:"output"`
	Kind   string `json:"kind"`
}

// Table1 reproduces the decoder inventory table.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, c := range codec.All() {
		kind := "full codec"
		switch c.Kind {
		case codec.Redec:
			kind = "redec"
		case codec.GeneralPurpose:
			kind = "general-purpose"
		}
		rows = append(rows, Table1Row{c.Name, c.Desc, c.Output, kind})
	}
	return rows
}

// Table2Row is one decoder's code-size accounting.
type Table2Row struct {
	Codec          string  `json:"codec"`
	Total          int     `json:"total_bytes"`      // ELF executable bytes
	DecoderBytes   int     `json:"decoder_bytes"`    // text attributable to the decoder proper
	RuntimeBytes   int     `json:"runtime_bytes"`    // text attributable to the libvx runtime ("C library")
	Compressed     int     `json:"compressed_bytes"` // deflate-compressed size, as stored in archives
	DecoderPercent float64 `json:"decoder_percent"`
	RuntimePercent float64 `json:"runtime_percent"`
}

// Table2 reproduces the decoder code-size table.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range paperCodecs {
		c, _ := codec.ByName(name)
		b, err := c.Build()
		if err != nil {
			return nil, err
		}
		text := float64(b.UserTextBytes + b.RuntimeTextBytes)
		rows = append(rows, Table2Row{
			Codec:          name,
			Total:          len(b.ELF),
			DecoderBytes:   int(b.UserTextBytes),
			RuntimeBytes:   int(b.RuntimeTextBytes),
			Compressed:     deflatedSize(b.ELF),
			DecoderPercent: 100 * float64(b.UserTextBytes) / text,
			RuntimePercent: 100 * float64(b.RuntimeTextBytes) / text,
		})
	}
	return rows, nil
}

// OverheadRow is one §5.3 storage-overhead scenario.
type OverheadRow struct {
	Scenario     string  `json:"scenario"`
	PayloadBytes int     `json:"payload_bytes"`
	DecoderBytes int     `json:"decoder_bytes"`
	ArchiveBytes int     `json:"archive_bytes"`
	OverheadPct  float64 `json:"overhead_pct"`
}

// Overhead reproduces the §5.3 analysis: decoder storage cost amortized
// over archives of one and ten audio tracks, lossy and lossless.
func Overhead() ([]OverheadRow, error) {
	var rows []OverheadRow
	scenarios := []struct {
		name  string
		songs int
		lossy bool
	}{
		{"1 track, lossy (adpcm)", 1, true},
		{"10 tracks, lossy (adpcm)", 10, true},
		{"1 track, lossless (lpc)", 1, false},
		{"10 tracks, lossless (lpc)", 10, false},
	}
	for _, sc := range scenarios {
		var buf bytes.Buffer
		w := core.NewWriter(&buf, core.WriterOptions{AllowLossy: sc.lossy})
		payload := 0
		for i := 0; i < sc.songs; i++ {
			song := corpus.Song(150, int64(10+i)) // 2.5-minute track (scaled)
			if err := w.AddFile(fmt.Sprintf("track%02d.wav", i+1), song, 0644); err != nil {
				return nil, err
			}
			payload += len(song)
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		// Decoder cost: size of the embedded pseudo-files = archive size
		// minus entries and directory; measure directly by rebuilding
		// without decoders is invasive, so approximate with the
		// compressed decoder size Table 2 reports.
		codecName := "lpc"
		if sc.lossy {
			codecName = "adpcm"
		}
		c, _ := codec.ByName(codecName)
		b, err := c.Build()
		if err != nil {
			return nil, err
		}
		dec := deflatedSize(b.ELF)
		rows = append(rows, OverheadRow{
			Scenario:     sc.name,
			PayloadBytes: payload,
			DecoderBytes: dec,
			ArchiveBytes: buf.Len(),
			OverheadPct:  100 * float64(dec) / float64(buf.Len()),
		})
	}
	return rows, nil
}

// ServerWorkloads builds the serving-regime corpus: one small request
// per codec, sized so the per-request decoder setup cost — the thing
// the snapshot cache amortizes — is visible next to the decode itself.
// Sizes differ per codec because setup costs differ: deflate's
// translation footprint only shows on a stream big enough to touch the
// whole decoder, while the audio codecs' image-copy cost shows against
// sub-second clips. cmd/vxwarm primes artifact stores with it, and the
// chaos and load drivers send it to vxad.
func ServerWorkloads() ([]Workload, error) {
	text4k := corpus.Text(1<<12, 1)
	text1k := corpus.Text(1<<10, 1)
	img := bmp.Encode(corpus.Image(16, 16, 2))
	aud := wav.Encode(corpus.Audio(220, 2, 3))

	inputs := map[string][]byte{
		"deflate": text4k, "bwt": text1k,
		"dct": img, "haar": img,
		"lpc": aud, "adpcm": aud,
	}
	return encodeEach(func(c *codec.Codec) []byte { return inputs[c.Name] })
}
