// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's §5 against this reproduction's codecs and
// virtual machine. The cmd/vxbench tool prints the results; the
// repository-root benchmarks time the same workloads under testing.B.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"vxa/internal/artifact"
	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/corpus"
	"vxa/internal/server"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/vxcc"
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

	var out []Workload
	for _, name := range paperCodecs {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: codec %s not registered", name)
		}
		var raw []byte
		switch c.Output {
		case "BMP image":
			raw = img
		case "WAV audio":
			raw = aud
		default:
			raw = text
		}
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
	VX32NoCache     time.Duration `json:"vx32_nocache_ns,omitempty"` // §4.2 ablation: fragment cache disabled; omitted when not measured
	Translate       time.Duration `json:"translate_ns"`              // decode+lower phase of the VX32 run
	Execute         time.Duration `json:"execute_ns"`                // VX32 minus the translate phase
	Slowdown        float64       `json:"slowdown"`                  // VX32 / Native
	SpeedupVsNative float64       `json:"speedup_vs_native"`         // Native / VX32 (< 1 while the VM is slower than native)
	GuestMIPS       float64       `json:"guest_mips"`                // guest instructions per second under VX32
	UopsExecuted    uint64        `json:"uops_executed"`
	BlocksChained   uint64        `json:"blocks_chained"`
	FlagsPerKuop    float64       `json:"flags_materialized_per_kuop"` // lazily materialized flag bits per 1000 uops
	Tier2Compiled   uint64        `json:"tier2_compiled"`              // superblock traces promoted to compiled form
	Tier2StepShare  float64       `json:"tier2_step_share"`            // fraction of guest instructions retired in tier-2 traces
}

// Fig7 measures native vs virtualized decode time for every codec.
func Fig7(withAblation bool) ([]Fig7Row, error) {
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

		stats, dur, err := runVX(w, vm.Config{MemSize: 64 << 20})
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
		if withAblation {
			_, durNC, err := runVX(w, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptReference})
			if err != nil {
				return nil, err
			}
			row.VX32NoCache = durNC
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
	v, err := newVM(elf, cfg)
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
// optimization ladder (vm.OptLevels, lowest first). Adjacent levels
// differ by exactly one layer — the fragment cache, the optimizer,
// superblocks, tier 2, first-entry promotion — so each step's ratio to
// the one below it is what that layer buys. Output correctness at every
// level is pinned separately by the differential test wall
// (TestOptLadder); this measures only speed.
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
			stats, dur, err := runVX(w, vm.Config{MemSize: 64 << 20, OptLevel: level})
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
		var comp bytes.Buffer
		zw := newFlateWriter(&comp)
		zw.Write(b.ELF)
		zw.Close()
		text := float64(b.UserTextBytes + b.RuntimeTextBytes)
		rows = append(rows, Table2Row{
			Codec:          name,
			Total:          len(b.ELF),
			DecoderBytes:   int(b.UserTextBytes),
			RuntimeBytes:   int(b.RuntimeTextBytes),
			Compressed:     comp.Len(),
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
		var comp bytes.Buffer
		zw := newFlateWriter(&comp)
		zw.Write(b.ELF)
		zw.Close()
		rows = append(rows, OverheadRow{
			Scenario:     sc.name,
			PayloadBytes: payload,
			DecoderBytes: comp.Len(),
			ArchiveBytes: buf.Len(),
			OverheadPct:  100 * float64(comp.Len()) / float64(buf.Len()),
		})
	}
	return rows, nil
}

// smallWorkloads builds a reduced corpus for the per-stream pool
// benchmark: inputs small enough that decoder setup is a visible
// fraction of each stream.
func smallWorkloads() ([]Workload, error) {
	text := corpus.Text(1<<13, 1)
	img := bmp.Encode(corpus.Image(48, 48, 2))
	aud := wav.Encode(corpus.Audio(8820, 2, 3))

	var out []Workload
	for _, name := range paperCodecs {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: codec %s not registered", name)
		}
		var raw []byte
		switch c.Output {
		case "BMP image":
			raw = img
		case "WAV audio":
			raw = aud
		default:
			raw = text
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			return nil, fmt.Errorf("bench: %s encode: %w", name, err)
		}
		out = append(out, Workload{Codec: c, Raw: raw, Encoded: enc.Bytes()})
	}
	return out, nil
}

// PoolRow is one codec's per-stream decoder-setup measurement: a cold VM
// constructed from the ELF for every stream versus a pooled VM restored
// from the pristine snapshot.
type PoolRow struct {
	Codec           string        `json:"codec"`
	Streams         int           `json:"streams"`
	InputBytes      int           `json:"input_bytes"`
	ColdPerStream   time.Duration `json:"cold_per_stream_ns"`
	PooledPerStream time.Duration `json:"pooled_per_stream_ns"`
	Speedup         float64       `json:"speedup"` // Cold / Pooled
}

// PoolBench measures snapshot/reset amortization: the same short stream
// decoded `streams` times per codec, once with a fresh VM per stream
// (re-parsing the decoder ELF each time) and once drawing VMs from a
// vmpool. Alternating security modes forces the pool through its reset
// path on every stream, so the pooled figure includes the copy-on-reset
// cost, not just parked-VM resumes.
func PoolBench(streams int) ([]PoolRow, error) {
	if streams < 1 {
		return nil, fmt.Errorf("bench: streams must be >= 1 (got %d)", streams)
	}
	ws, err := smallWorkloads()
	if err != nil {
		return nil, err
	}
	cfg := vm.Config{MemSize: 64 << 20}
	var rows []PoolRow
	for _, w := range ws {
		elf, err := w.Codec.DecoderELF()
		if err != nil {
			return nil, err
		}
		runStream := func(v *vm.VM) (bool, error) {
			reusable, err := v.RunStream(context.Background(), bytes.NewReader(w.Encoded), io.Discard, nil, vm.StreamFuel(len(w.Encoded)))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Codec.Name, err)
			}
			return reusable, nil
		}

		start := time.Now()
		for i := 0; i < streams; i++ {
			v, err := newVM(elf, cfg)
			if err != nil {
				return nil, err
			}
			if _, err := runStream(v); err != nil {
				return nil, err
			}
		}
		cold := time.Since(start)

		pool := vmpool.New(vmpool.Options{VM: cfg})
		elfFn := func() ([]byte, error) { return elf, nil }
		start = time.Now()
		for i := 0; i < streams; i++ {
			lease, err := pool.Get(context.Background(), w.Codec.Name, uint32(0600+i%2), elfFn)
			if err != nil {
				return nil, err
			}
			reusable, err := runStream(lease.VM())
			if err != nil {
				lease.Release(false)
				return nil, err
			}
			lease.Release(reusable)
		}
		pooled := time.Since(start)

		rows = append(rows, PoolRow{
			Codec:           w.Codec.Name,
			Streams:         streams,
			InputBytes:      len(w.Raw),
			ColdPerStream:   cold / time.Duration(streams),
			PooledPerStream: pooled / time.Duration(streams),
			Speedup:         float64(cold) / float64(pooled),
		})
	}
	return rows, nil
}

// ServerRow is one codec's vxad request-latency measurement: the first
// request (content-addressed snapshot cache miss: ELF parse, image
// build, translation from scratch) versus steady-state requests served
// from the warm cache (parked-VM resume with an absorbed block cache).
type ServerRow struct {
	Codec        string        `json:"codec"`
	InputBytes   int           `json:"input_bytes"`
	ColdNS       time.Duration `json:"cold_ns"`
	WarmNS       time.Duration `json:"warm_ns"` // per request, averaged
	WarmRequests int           `json:"warm_requests"`
	Speedup      float64       `json:"speedup"` // Cold / Warm
	CacheHits    uint64        `json:"cache_hits"`
	CacheMisses  uint64        `json:"cache_misses"`
}

// serverWorkloads builds the serving-regime corpus: one small request
// per codec, sized so the per-request decoder setup cost — the thing
// the snapshot cache amortizes — is visible next to the decode itself.
// Sizes differ per codec because setup costs differ: deflate's
// translation footprint only shows on a stream big enough to touch the
// whole decoder, while the audio codecs' image-copy cost shows against
// sub-second clips.
func serverWorkloads() ([]Workload, error) {
	text4k := corpus.Text(1<<12, 1)
	text1k := corpus.Text(1<<10, 1)
	img := bmp.Encode(corpus.Image(16, 16, 2))
	aud := wav.Encode(corpus.Audio(220, 2, 3))

	inputs := map[string][]byte{
		"deflate": text4k, "bwt": text1k,
		"dct": img, "haar": img,
		"lpc": aud, "adpcm": aud,
	}
	var out []Workload
	for _, name := range paperCodecs {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: codec %s not registered", name)
		}
		raw := inputs[name]
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			return nil, fmt.Errorf("bench: %s encode: %w", name, err)
		}
		out = append(out, Workload{Codec: c, Raw: raw, Encoded: enc.Bytes()})
	}
	return out, nil
}

// ServerWorkloads exposes the serving-regime corpus: the same
// per-codec streams the server benchmarks measure, so cmd/vxwarm
// primes artifact stores with representative traffic.
func ServerWorkloads() ([]Workload, error) { return serverWorkloads() }

// serverColdRounds is how many fresh-server miss-path samples the cold
// figure averages over (snapshot build cost is noisy at the
// millisecond scale).
const serverColdRounds = 5

// postDecode sends one workload through a server's /v1/decode and
// returns the request's wall time, verifying status and output length.
func postDecode(url string, w Workload) (time.Duration, error) {
	start := time.Now()
	resp, err := http.Post(url+"/v1/decode?codec="+w.Codec.Name, "application/octet-stream", bytes.NewReader(w.Encoded))
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != 200 {
		return 0, fmt.Errorf("bench: %s: status %d", w.Codec.Name, resp.StatusCode)
	}
	if int(n) != len(w.Raw) {
		return 0, fmt.Errorf("bench: %s: decoded %d bytes, want %d", w.Codec.Name, n, len(w.Raw))
	}
	return dur, nil
}

// ServerBench measures the extraction service end to end over HTTP
// loopback: every Table 1 codec's stream is decoded through vxad's
// /v1/decode, cold (content-addressed snapshot cache miss: ELF parse,
// image build, translation from scratch; averaged over fresh servers)
// and warm (warmReqs cache-hit requests against one server). Decoder
// ELFs are compiled before timing starts, so the cold figure is the
// serving stack's own miss path, not the VXC compiler.
func ServerBench(warmReqs int) ([]ServerRow, error) {
	if warmReqs < 1 {
		return nil, fmt.Errorf("bench: warm requests must be >= 1 (got %d)", warmReqs)
	}
	ws, err := serverWorkloads()
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if _, err := w.Codec.DecoderELF(); err != nil {
			return nil, err
		}
	}
	post := postDecode

	// Cold: every request on a fresh server is that decoder line's miss.
	cold := make(map[string]time.Duration, len(ws))
	for round := 0; round < serverColdRounds; round++ {
		srv := server.New(server.Config{MemSize: 64 << 20})
		ts := httptest.NewServer(srv.Handler())
		for _, w := range ws {
			d, err := post(ts.URL, w)
			if err != nil {
				ts.Close()
				return nil, err
			}
			cold[w.Codec.Name] += d
		}
		ts.Close()
	}

	// Warm: one long-lived server; skip each codec's priming miss.
	srv := server.New(server.Config{MemSize: 64 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var rows []ServerRow
	for _, w := range ws {
		before := srv.Cache().Stats()
		if _, err := post(ts.URL, w); err != nil {
			return nil, err
		}
		var warm time.Duration
		for i := 0; i < warmReqs; i++ {
			d, err := post(ts.URL, w)
			if err != nil {
				return nil, err
			}
			warm += d
		}
		warm /= time.Duration(warmReqs)
		after := srv.Cache().Stats()
		coldAvg := cold[w.Codec.Name] / serverColdRounds
		rows = append(rows, ServerRow{
			Codec:        w.Codec.Name,
			InputBytes:   len(w.Raw),
			ColdNS:       coldAvg,
			WarmNS:       warm,
			WarmRequests: warmReqs,
			Speedup:      float64(coldAvg) / float64(warm),
			CacheHits:    after.Hits - before.Hits,
			CacheMisses:  after.Misses - before.Misses,
		})
	}
	return rows, nil
}

// serverArtifactWorkloads builds the restart-benchmark corpus. The
// restart benchmark is a time-to-first-byte figure — how quickly a
// freshly exec'd daemon answers its first request — so the requests are
// serving-scale probes sized so setup cost (compile, image build,
// translation) is what the columns compare rather than bulk decode
// throughput; the image codecs get a single 8x8 block for the same
// reason. This regime only became honest once the VM stopped paying a
// fixed multi-megabyte heap re-zero on every fresh first stream (see
// vm.sysSetPerm's dirty high-water mark); before that fix the fixed
// warm-up drowned the store's effect at this scale.
func serverArtifactWorkloads() ([]Workload, error) {
	text4k := corpus.Text(1<<12, 1)
	text1k := corpus.Text(1<<10, 1)
	img := bmp.Encode(corpus.Image(8, 8, 2))
	aud := wav.Encode(corpus.Audio(220, 2, 3))

	inputs := map[string][]byte{
		"deflate": text4k, "bwt": text1k,
		"dct": img, "haar": img,
		"lpc": aud, "adpcm": aud,
	}
	var out []Workload
	for _, name := range paperCodecs {
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: codec %s not registered", name)
		}
		raw := inputs[name]
		var enc bytes.Buffer
		if err := c.Encode(&enc, raw); err != nil {
			return nil, fmt.Errorf("bench: %s encode: %w", name, err)
		}
		out = append(out, Workload{Codec: c, Raw: raw, Encoded: enc.Bytes()})
	}
	return out, nil
}

// serverArtifactRounds is how many fresh-restart samples the artifact
// benchmark averages: first-request latencies sit at single-digit
// milliseconds where scheduler and allocator jitter is visible, so the
// restart ratios need the larger sample.
const serverArtifactRounds = 5

// touchServer performs one untimed /healthz round trip so a fresh
// test server's TCP connection setup and first-request allocations are
// not misattributed to the first timed decode. Both the cold and the
// disk-warm servers get the same treatment — the benchmark compares
// decode paths, not socket setup.
func touchServer(url string) error {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// ServerArtifactRow is one codec's persistent-artifact measurement:
// first-request latency on a fresh server restored from a pre-populated
// artifact store (disk-warm), against the same server's true cold start
// (compile the decoder, then serve the miss with no store) and its
// in-process steady state (warm cache hits).
type ServerArtifactRow struct {
	Codec      string        `json:"codec"`
	InputBytes int           `json:"input_bytes"`
	ColdNS     time.Duration `json:"cold_ns"` // compile + miss request, no store
	// CompileNS is the decoder-compile share of ColdNS — the part a
	// restart skips via the store's ELF-hash index.
	CompileNS time.Duration `json:"compile_ns"`
	// PrewarmNS is this codec's share of the daemon's startup prewarm —
	// index lookup, artifact load, spare VM materialization — paid once
	// per restart before traffic, never on the request path (vxad does
	// the same at boot). The storeless daemon has no equivalent: with no
	// index it cannot know what to rebuild, so its first request eats
	// the whole ColdNS inline.
	PrewarmNS    time.Duration `json:"prewarm_ns"`
	DiskWarmNS   time.Duration `json:"disk_warm_ns"` // first request, prewarmed fresh server
	WarmNS       time.Duration `json:"warm_ns"`      // steady state, per request
	WarmRequests int           `json:"warm_requests"`
	// SpeedupVsCold is Cold / DiskWarm — what the store saves a restart.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
	// RatioVsWarm is DiskWarm / Warm — how close a disk-warm first
	// request comes to a resident cache hit (1.0 = indistinguishable).
	RatioVsWarm float64 `json:"ratio_vs_warm"`
	// StoreHits / StoreFallbacks / IndexHits are the store's counters
	// attributed to this codec across the disk-warm rounds.
	StoreHits      int64 `json:"store_hits"`
	StoreFallbacks int64 `json:"store_fallbacks"`
	IndexHits      int64 `json:"index_hits"`
}

// ServerArtifactBench measures the restart story the artifact store
// exists for: a populated store is carried across fresh server
// processes-worth of state (new Server, new SnapCache, new Store handle
// over the same directory), and the first request per codec is timed
// against the true cold start and the in-process warm path.
//
// Cold here is what a storeless restart actually pays before its first
// byte of output: compiling the decoder (timed as a fresh, uncached
// vxcc.Compile — in-process the registry caches builds, but a new
// process has no such cache) plus the serving stack's own miss path
// (ELF parse, image build, translation), all inline on the request. The
// disk-warm side restarts the way vxad restarts: the store's ELF-hash
// index says which decoder lines have history, each is prewarmed off
// the request path (PrewarmNS — artifact load plus spare-VM
// materialization, no compiler, no ELF), and then the first request is
// timed. The warm figure is measured on the final disk-warm server, so
// it is the steady state a disk-warm line converges to.
func ServerArtifactBench(warmReqs int) ([]ServerArtifactRow, error) {
	if warmReqs < 1 {
		return nil, fmt.Errorf("bench: warm requests must be >= 1 (got %d)", warmReqs)
	}
	ws, err := serverArtifactWorkloads()
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if _, err := w.Codec.DecoderELF(); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp("", "vxa-bench-artifacts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Populate: one server takes real decode traffic over the store,
	// then shuts down cleanly — the close-time flush persists the
	// absorbed (post-translation) block caches, which is exactly what a
	// drained production vxad leaves behind.
	store, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{MemSize: 64 << 20, Artifacts: store})
	ts := httptest.NewServer(srv.Handler())
	for _, w := range ws {
		if _, err := postDecode(ts.URL, w); err != nil {
			ts.Close()
			return nil, err
		}
	}
	ts.Close()
	srv.Close()
	if st := store.Stats(); st.Saves == 0 {
		return nil, fmt.Errorf("bench: populate pass wrote no artifacts (store stats %+v)", st)
	}

	// Cold: fresh server, no store — every request pays a decoder
	// compile (timed directly: the in-process registry cache would
	// otherwise hide what a new process must do) plus the full miss.
	cold := make(map[string]time.Duration, len(ws))
	compile := make(map[string]time.Duration, len(ws))
	for round := 0; round < serverArtifactRounds; round++ {
		csrv := server.New(server.Config{MemSize: 64 << 20})
		cts := httptest.NewServer(csrv.Handler())
		if err := touchServer(cts.URL); err != nil {
			cts.Close()
			return nil, err
		}
		for _, w := range ws {
			start := time.Now()
			if _, err := vxcc.Compile(vxcc.Options{}, w.Codec.Sources...); err != nil {
				cts.Close()
				return nil, err
			}
			comp := time.Since(start)
			d, err := postDecode(cts.URL, w)
			if err != nil {
				cts.Close()
				return nil, err
			}
			compile[w.Codec.Name] += comp
			cold[w.Codec.Name] += comp + d
		}
		cts.Close()
	}

	// Disk-warm: fresh server and store handle per round over the
	// populated directory. Each codec's line is prewarmed the way a
	// restarted vxad prewarms at startup — artifact load, spare VM
	// materialized, off the request path — with the prewarm timed as its
	// own column, then the first request is the restart path the serving
	// fleet sees. Operations are serial, so per-codec store counters
	// fall out of Stats() deltas spanning each prewarm+request pair.
	disk := make(map[string]time.Duration, len(ws))
	prewarm := make(map[string]time.Duration, len(ws))
	hits := make(map[string]int64, len(ws))
	fallbacks := make(map[string]int64, len(ws))
	indexHits := make(map[string]int64, len(ws))
	warm := make(map[string]time.Duration, len(ws))
	for round := 0; round < serverArtifactRounds; round++ {
		rstore, err := artifact.Open(dir)
		if err != nil {
			return nil, err
		}
		rsrv := server.New(server.Config{MemSize: 64 << 20, Artifacts: rstore})
		rts := httptest.NewServer(rsrv.Handler())
		fail := func(err error) ([]ServerArtifactRow, error) {
			rts.Close()
			rsrv.Close()
			return nil, err
		}
		if err := touchServer(rts.URL); err != nil {
			return fail(err)
		}
		for _, w := range ws {
			before := rstore.Stats()
			pw := time.Now()
			if !rsrv.PrewarmCodec(context.Background(), w.Codec.Name) {
				return fail(fmt.Errorf("bench: %s: prewarm found no indexed artifact", w.Codec.Name))
			}
			prewarm[w.Codec.Name] += time.Since(pw)
			d, err := postDecode(rts.URL, w)
			if err != nil {
				return fail(err)
			}
			after := rstore.Stats()
			disk[w.Codec.Name] += d
			hits[w.Codec.Name] += after.Hits - before.Hits
			fallbacks[w.Codec.Name] += after.Fallbacks - before.Fallbacks
			indexHits[w.Codec.Name] += after.IndexHits - before.IndexHits
		}
		if round == serverArtifactRounds-1 {
			// Steady state on the same (now resident) server.
			for _, w := range ws {
				var total time.Duration
				for i := 0; i < warmReqs; i++ {
					d, err := postDecode(rts.URL, w)
					if err != nil {
						return fail(err)
					}
					total += d
				}
				warm[w.Codec.Name] = total / time.Duration(warmReqs)
			}
		}
		rts.Close()
		rsrv.Close()
	}

	var rows []ServerArtifactRow
	for _, w := range ws {
		name := w.Codec.Name
		coldAvg := cold[name] / serverArtifactRounds
		diskAvg := disk[name] / serverArtifactRounds
		rows = append(rows, ServerArtifactRow{
			Codec:          name,
			InputBytes:     len(w.Raw),
			ColdNS:         coldAvg,
			CompileNS:      compile[name] / serverArtifactRounds,
			PrewarmNS:      prewarm[name] / serverArtifactRounds,
			DiskWarmNS:     diskAvg,
			WarmNS:         warm[name],
			WarmRequests:   warmReqs,
			SpeedupVsCold:  float64(coldAvg) / float64(diskAvg),
			RatioVsWarm:    float64(diskAvg) / float64(warm[name]),
			StoreHits:      hits[name],
			StoreFallbacks: fallbacks[name],
			IndexHits:      indexHits[name],
		})
	}
	return rows, nil
}

// ParallelRow is the ExtractAll serial-vs-parallel measurement.
type ParallelRow struct {
	Entries  int           `json:"entries"`
	Workers  int           `json:"workers"`
	Serial   time.Duration `json:"serial_ns"`
	Parallel time.Duration `json:"parallel_ns"`
	Speedup  float64       `json:"speedup"` // Serial / Parallel
	Reinits  int           `json:"reinits"` // pristine VM loads in the parallel run
}

// ParallelExtract builds an archive of `entries` deflate-coded text
// files and times Reader.ExtractAll through the archived decoders,
// serial versus `workers` workers (0 = GOMAXPROCS). Each run uses a
// fresh Reader so neither sees the other's warm pool.
func ParallelExtract(entries, workers int) (ParallelRow, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var buf bytes.Buffer
	w := core.NewWriter(&buf, core.WriterOptions{})
	for i := 0; i < entries; i++ {
		data := corpus.Text(1<<14, int64(i+1))
		if err := w.AddFile(fmt.Sprintf("doc%03d.txt", i), data, 0644); err != nil {
			return ParallelRow{}, err
		}
	}
	if err := w.Close(); err != nil {
		return ParallelRow{}, err
	}

	run := func(parallel int) (time.Duration, int, error) {
		r, err := core.NewReader(buf.Bytes())
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for _, res := range r.ExtractAll(context.Background(),
			core.WithMode(core.AlwaysVXA), core.WithReuseVM(true), core.WithParallel(parallel)) {
			if res.Err != nil {
				return 0, 0, fmt.Errorf("%s: %w", res.Entry.Name, res.Err)
			}
		}
		return time.Since(start), r.ReinitCount, nil
	}

	serial, _, err := run(1)
	if err != nil {
		return ParallelRow{}, err
	}
	parallel, reinits, err := run(workers)
	if err != nil {
		return ParallelRow{}, err
	}
	return ParallelRow{
		Entries:  entries,
		Workers:  workers,
		Serial:   serial,
		Parallel: parallel,
		Speedup:  float64(serial) / float64(parallel),
		Reinits:  reinits,
	}, nil
}
