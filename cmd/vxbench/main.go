// Command vxbench regenerates the paper's evaluation tables and figures
// (§5) against this reproduction, plus the concurrent-engine benchmarks
// (snapshot/reset pool, parallel extraction). Each flag prints one
// artifact; the default prints everything. EXPERIMENTS.md records the
// interpretation.
//
// With -json FILE, every computed artifact is also written as one JSON
// document (BENCH_*.json style), so the performance trajectory can be
// tracked machine-readably across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vxa"
	"vxa/internal/bench"
)

// report is the -json document: every artifact that was computed in this
// run, plus enough host context to compare runs.
type report struct {
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Table1     []bench.Table1Row   `json:"table1,omitempty"`
	Table2     []bench.Table2Row   `json:"table2,omitempty"`
	Overhead   []bench.OverheadRow `json:"overhead,omitempty"`
	Fig7       []bench.Fig7Row     `json:"fig7,omitempty"`
	Ladder     []bench.LadderRow   `json:"ladder,omitempty"`
	Startup    []bench.StartupRow  `json:"startup,omitempty"`
	Pool       []bench.PoolRow     `json:"pool,omitempty"`
	Parallel   *bench.ParallelRow  `json:"parallel,omitempty"`
	Server     []bench.ServerRow   `json:"server,omitempty"`
	// ServerArtifact is the persistent-store restart measurement: a
	// fresh server's first request served disk-warm from a populated
	// artifact store, vs true cold and in-process warm.
	ServerArtifact []bench.ServerArtifactRow `json:"server_artifact,omitempty"`
	ServerLoad     []bench.LoadRow           `json:"server_load,omitempty"`
	// ServerFleet is the vxrouter overhead measurement: the same
	// open-loop schedule direct to one shard vs through the router
	// fronting a small fleet, on the warm loopback path.
	ServerFleet []bench.FleetRow `json:"server_fleet,omitempty"`
	// ServerChaos is populated by -chaos only: the pass arms the
	// process-global fault registry, so it never rides the default run
	// (the clean figures must stay clean).
	ServerChaos *bench.ChaosRow `json:"server_chaos,omitempty"`
}

func main() {
	t1 := flag.Bool("table1", false, "print the decoder inventory (Table 1)")
	t2 := flag.Bool("table2", false, "print decoder code sizes (Table 2)")
	f7 := flag.Bool("fig7", false, "measure native vs virtualized decode time (Figure 7)")
	ov := flag.Bool("overhead", false, "print decoder storage overhead (section 5.3)")
	pl := flag.Bool("pool", false, "measure cold vs pooled per-stream decoder setup")
	par := flag.Bool("parallel", false, "measure serial vs parallel ExtractAll throughput")
	sv := flag.Bool("server", false, "measure vxad cold vs warm snapshot-cache request latency")
	load := flag.Bool("load", false, "drive vxad with open-loop Poisson load and report latency percentiles")
	fleet := flag.Bool("fleet", false, "measure vxrouter proxy overhead: open-loop load direct vs through a router-fronted fleet")
	target := flag.String("target", "", "drive an already-running vxad/vxrouter at this URL for -load instead of an in-process server")
	fleetShards := flag.Int("shards", 3, "fleet size for -fleet")
	chaos := flag.Bool("chaos", false, "drive vxad with fault injection armed and report containment/recovery figures")
	ablate := flag.Bool("ablate", false, "include the fragment-cache ablation in -fig7")
	ablateOpt := flag.Bool("ablate-opt", false, "measure each engine layer's contribution: decode time at every vm.OptLevel (fragment cache, optimizer, superblocks, tier 2, eager promotion)")
	startup := flag.Bool("startup", false, "print the first-stream ledger: one cold 4 KiB stream per decoder, split into stages that sum to its wall time; exit nonzero if any decoder leaves more than 5% unaccounted")
	startupReps := flag.Int("startup-reps", 200, "cold operations per decoder for -startup")
	streams := flag.Int("streams", 16, "streams per codec for -pool")
	entries := flag.Int("entries", 16, "archive entries for -parallel")
	warm := flag.Int("warm", 16, "warm requests per codec for -server")
	rate := flag.Float64("rate", 50, "offered request rate per second for -load")
	duration := flag.Duration("duration", 2*time.Second, "load duration per codec for -load")
	conc := flag.Int("conc", 8, "max in-flight client requests for -load and -chaos")
	chaosRate := flag.Float64("chaos-rate", 0.05, "fault-injection probability per point for -chaos")
	chaosReqs := flag.Int("chaos-reqs", 2000, "requests for -chaos")
	workers := flag.Int("p", 0, "workers for -parallel (0 = all cores)")
	jsonPath := flag.String("json", "", "also write the results to this file as JSON (e.g. BENCH_results.json)")
	baseline := flag.String("baseline", "", "compare -fig7 against a previous -json file; exit nonzero on >10% geomean regression")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	_ = vxa.Codecs()
	// -chaos, -ablate-opt and -startup are opt-in only: chaos arms the
	// global fault registry and must never contaminate the clean figures.
	all := !*t1 && !*t2 && !*f7 && !*ov && !*pl && !*par && !*sv && !*load && !*fleet && !*ablateOpt && !*chaos && !*startup
	if *baseline != "" && !*load {
		*f7 = true // the compare mode needs a fresh Figure 7 run
	}

	// Load the baseline up front: it must be the *previous* run even
	// when -json later overwrites the same file, and a bad path should
	// fail before minutes of benchmarking.
	var base *report
	if *baseline != "" {
		var err error
		if base, err = loadBaseline(*baseline, *f7 || all, *load); err != nil {
			fatal(err)
		}
	}

	rep := report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	if *t1 || all {
		rep.Table1 = bench.Table1()
		fmt.Println("Table 1: Decoders Implemented in vxZIP/vxUnZIP")
		fmt.Printf("  %-8s %-14s %-16s %s\n", "codec", "role", "output", "description")
		for _, r := range rep.Table1 {
			fmt.Printf("  %-8s %-14s %-16s %s\n", r.Codec, r.Kind, r.Output, r.Desc)
		}
		fmt.Println()
	}
	if *t2 || all {
		rows, err := bench.Table2()
		if err != nil {
			fatal(err)
		}
		rep.Table2 = rows
		fmt.Println("Table 2: Code Size of Virtualized Decoders")
		fmt.Printf("  %-8s %9s %18s %18s %11s\n", "decoder", "total", "decoder", "runtime lib", "compressed")
		for _, r := range rows {
			fmt.Printf("  %-8s %8.1fKB %10.1fKB (%2.0f%%) %10.1fKB (%2.0f%%) %9.1fKB\n",
				r.Codec, kb(r.Total), kb(r.DecoderBytes), r.DecoderPercent,
				kb(r.RuntimeBytes), r.RuntimePercent, kb(r.Compressed))
		}
		fmt.Println()
	}
	if *ov || all {
		rows, err := bench.Overhead()
		if err != nil {
			fatal(err)
		}
		rep.Overhead = rows
		fmt.Println("Section 5.3: Decoder Storage Overhead")
		fmt.Printf("  %-26s %12s %12s %12s %9s\n", "scenario", "payload", "decoder", "archive", "overhead")
		for _, r := range rows {
			fmt.Printf("  %-26s %10.1fKB %10.1fKB %10.1fKB %8.2f%%\n",
				r.Scenario, kb(r.PayloadBytes), kb(r.DecoderBytes), kb(r.ArchiveBytes), r.OverheadPct)
		}
		fmt.Println()
	}
	if *pl || all {
		rows, err := bench.PoolBench(*streams)
		if err != nil {
			fatal(err)
		}
		rep.Pool = rows
		fmt.Println("Pool: per-stream decoder setup, cold VM vs snapshot/reset pool")
		fmt.Printf("  %-8s %8s %14s %14s %9s\n", "decoder", "streams", "cold/stream", "pooled/stream", "speedup")
		for _, r := range rows {
			fmt.Printf("  %-8s %8d %14v %14v %8.1fx\n",
				r.Codec, r.Streams, r.ColdPerStream.Round(10e3), r.PooledPerStream.Round(10e3), r.Speedup)
		}
		fmt.Println()
	}
	if *sv || all {
		rows, err := bench.ServerBench(*warm)
		if err != nil {
			fatal(err)
		}
		rep.Server = rows
		fmt.Println("Server: vxad /v1/decode request latency, snapshot-cache miss vs hit")
		fmt.Printf("  %-8s %8s %14s %14s %9s\n", "decoder", "input", "cold", "warm", "speedup")
		for _, r := range rows {
			fmt.Printf("  %-8s %6.0fKB %14v %14v %8.1fx\n",
				r.Codec, kb(r.InputBytes), r.ColdNS.Round(10e3), r.WarmNS.Round(10e3), r.Speedup)
		}
		fmt.Println()

		arows, err := bench.ServerArtifactBench(*warm)
		if err != nil {
			fatal(err)
		}
		rep.ServerArtifact = arows
		fmt.Println("Server artifacts: restart latency with a populated persistent store")
		fmt.Println("  (cold = compile + storeless miss, inline on the first request; prewarm =")
		fmt.Println("   the store-restored daemon's per-codec startup cost, off the request path;")
		fmt.Println("   disk-warm = that daemon's first request)")
		fmt.Printf("  %-8s %8s %12s %12s %12s %12s %12s %9s %9s %6s\n",
			"decoder", "input", "cold", "compile", "prewarm", "disk-warm", "warm", "vs-cold", "vs-warm", "hits")
		for _, r := range arows {
			fmt.Printf("  %-8s %6.0fKB %12v %12v %12v %12v %12v %8.1fx %8.2fx %6d\n",
				r.Codec, kb(r.InputBytes), r.ColdNS.Round(10e3), r.CompileNS.Round(10e3),
				r.PrewarmNS.Round(10e3), r.DiskWarmNS.Round(10e3), r.WarmNS.Round(10e3),
				r.SpeedupVsCold, r.RatioVsWarm, r.StoreHits)
		}
		fmt.Println()
	}
	if *load || all {
		var rows []bench.LoadRow
		var err error
		if *target != "" {
			rows, err = bench.LoadBenchTarget(*target, *rate, *duration, *conc)
			fmt.Printf("Server load against %s: open-loop Poisson arrivals, %v req/s for %v per codec, %d client slots\n",
				*target, *rate, *duration, *conc)
		} else {
			rows, err = bench.LoadBench(*rate, *duration, *conc)
			fmt.Printf("Server load: open-loop Poisson arrivals, %v req/s for %v per codec, %d client slots\n",
				*rate, *duration, *conc)
		}
		if err != nil {
			fatal(err)
		}
		rep.ServerLoad = rows
		fmt.Printf("  %-8s %6s %5s %5s %5s %6s %12s %12s %12s %12s %11s\n",
			"decoder", "reqs", "errs", "shed", "held", "trunc", "p50", "p90", "p99", "max", "allocs/op")
		for _, r := range rows {
			fmt.Printf("  %-8s %6d %5d %5d %5d %6d %12v %12v %12v %12v %11.0f\n",
				r.Codec, r.Requests, r.Errors, r.Sheds, r.Held, r.Truncated,
				r.P50.Round(10e3), r.P90.Round(10e3),
				r.P99.Round(10e3), r.Max.Round(10e3), r.AllocsPerOp)
		}
		fmt.Println()
	}
	if *fleet || all {
		rows, err := bench.FleetBench(*rate, *duration, *conc, *fleetShards)
		if err != nil {
			fatal(err)
		}
		rep.ServerFleet = rows
		fmt.Printf("Fleet: vxrouter overhead, direct shard vs routed fleet of %d (%v req/s for %v per codec)\n",
			*fleetShards, *rate, *duration)
		fmt.Printf("  %-8s %6s %5s %12s %12s %12s %12s %9s\n",
			"decoder", "reqs", "errs", "direct p50", "routed p50", "direct p99", "routed p99", "overhead")
		for _, r := range rows {
			fmt.Printf("  %-8s %6d %5d %12v %12v %12v %12v %8.1f%%\n",
				r.Codec, r.Requests, r.Errors, r.DirectP50.Round(10e3), r.RouterP50.Round(10e3),
				r.DirectP99.Round(10e3), r.RouterP99.Round(10e3), 100*r.OverheadP50)
		}
		fmt.Println()
	}
	if *chaos {
		row, err := bench.ChaosBench(*chaosRate, *chaosReqs, *conc)
		if err != nil {
			fatal(err)
		}
		rep.ServerChaos = &row
		fmt.Printf("Server chaos: %d mixed requests, %d workers, %.0f%% injection across all points (seed %d)\n",
			row.Requests, row.Concurrency, row.InjectionRate*100, row.Seed)
		fmt.Printf("  outcomes: %d ok, %d truncated, %d decode-err (422), %d canceled (499), %d io-err (500), %d shed (503/504), %d quarantined (521), %d conn-cut\n",
			row.OK, row.Truncated, row.DecodeErrors, row.Canceled, row.ServerErrors, row.Shed, row.Quarantined, row.TransportErrors)
		fmt.Printf("  injected %d faults; breaker: %d trips, %d probes; shed rate %.2f%%\n",
			row.InjectedFaults, row.BreakerTrips, row.BreakerProbes, row.ShedRate*100)
		fmt.Printf("  latency p50 %v  p90 %v  p99 %v  max %v; recovery after disarm %v\n\n",
			row.P50.Round(10e3), row.P90.Round(10e3), row.P99.Round(10e3),
			row.Max.Round(10e3), row.Recovery.Round(10e3))
	}
	if *par || all {
		row, err := bench.ParallelExtract(*entries, *workers)
		if err != nil {
			fatal(err)
		}
		rep.Parallel = &row
		fmt.Println("ExtractAll: serial vs parallel archived-decoder extraction")
		fmt.Printf("  %d entries, %d workers: serial %v, parallel %v, %.1fx speedup (%d VM re-inits)\n\n",
			row.Entries, row.Workers, row.Serial.Round(10e3), row.Parallel.Round(10e3), row.Speedup, row.Reinits)
	}
	if *ablateOpt {
		rows, err := bench.Ladder()
		if err != nil {
			fatal(err)
		}
		rep.Ladder = rows
		fmt.Println("Optimization ladder: vx32 decode time at each OptLevel, and (second line) the speedup")
		fmt.Println("over the level below — what the one layer that level adds is worth")
		fmt.Printf("  %-8s", "decoder")
		for _, st := range rows[0].Steps {
			fmt.Printf(" %12s", st.Level)
		}
		fmt.Printf(" %9s %8s %5s %5s\n", "elided", "fused", "sb", "t2")
		for _, r := range rows {
			fmt.Printf("  %-8s", r.Codec)
			for _, st := range r.Steps {
				fmt.Printf(" %12v", st.VX32.Round(10e3))
			}
			fmt.Printf(" %9d %8d %5d %5d\n  %-8s %12s", r.FlagsElided, r.UopsFused, r.SuperblocksFormed, r.Tier2Compiled, "", "")
			for i := 1; i < len(r.Steps); i++ {
				fmt.Printf(" %11.2fx", float64(r.Steps[i-1].VX32)/float64(r.Steps[i].VX32))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	var startupErr error // reported once the results are written
	if *startup {
		rows, err := bench.Startup(*startupReps)
		if err != nil {
			fatal(err)
		}
		rep.Startup = rows
		printStartup(rows)
		for _, r := range rows {
			if sh := r.RemainderShare(); sh > 0.05 || sh < -0.05 {
				startupErr = fmt.Errorf("-startup: %s leaves %.1f%% of its first stream unaccounted", r.Codec, 100*sh)
			}
		}
	}
	if *f7 || all {
		fmt.Println("Figure 7: Performance of Virtualized Decoders")
		fmt.Println("  (interpreted VM; see EXPERIMENTS.md for the shape comparison)")
		rows, err := bench.Fig7(*ablate)
		if err != nil {
			fatal(err)
		}
		rep.Fig7 = rows
		fmt.Printf("  %-8s %10s %12s %12s %12s %10s %9s %9s %11s %6s\n",
			"decoder", "input", "native", "vx32", "translate", "slowdown", "vs-nat", "MIPS", "flags/kuop", "t2")
		for _, r := range rows {
			line := fmt.Sprintf("  %-8s %8.0fKB %12v %12v %12v %9.1fx %8.4fx %9.1f %11.1f %5.0f%%",
				r.Codec, kb(r.InputBytes), r.Native.Round(10e3), r.VX32.Round(10e3),
				r.Translate.Round(10e3), r.Slowdown, r.SpeedupVsNative, r.GuestMIPS, r.FlagsPerKuop,
				100*r.Tier2StepShare)
			if r.VX32NoCache > 0 {
				line += fmt.Sprintf("   (no-cache %v, %.1fx vs cached)",
					r.VX32NoCache.Round(10e3), float64(r.VX32NoCache)/float64(r.VX32))
			}
			fmt.Println(line)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vxbench: wrote %s\n", *jsonPath)
	}
	if startupErr != nil {
		fatal(startupErr)
	}

	if base != nil {
		if rep.Fig7 != nil && len(base.Fig7) > 0 {
			if err := compareBaseline(*baseline, base.Fig7, rep.Fig7); err != nil {
				fatal(err)
			}
		}
		if rep.ServerLoad != nil && len(base.ServerLoad) > 0 {
			if err := compareLoadBaseline(*baseline, base.ServerLoad, rep.ServerLoad); err != nil {
				fatal(err)
			}
		}
	}
}

// maxGeomeanRegression is the compare-mode failure threshold: a >10%
// geometric-mean slowdown across the Figure 7 codecs fails the run.
const maxGeomeanRegression = 1.10

// maxLoadP99Regression is the load-compare threshold. Tail latency on a
// loaded loopback server is far noisier than a straight-line decode, so
// the gate is correspondingly looser: it exists to catch an
// order-of-magnitude queueing pathology, not a few percent.
const maxLoadP99Regression = 1.5

// loadBaseline reads a previously written -json report and checks it
// carries the sections this run wants to compare.
func loadBaseline(path string, wantFig7, wantLoad bool) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if wantFig7 && len(base.Fig7) == 0 {
		return nil, fmt.Errorf("%s: no fig7 rows to compare against", path)
	}
	if wantLoad && len(base.ServerLoad) == 0 {
		return nil, fmt.Errorf("%s: no server_load rows to compare against (regenerate the baseline with -load)", path)
	}
	return &base, nil
}

// compareBaseline diffs the fresh Figure 7 rows against the baseline and
// enforces the regression gate.
func compareBaseline(path string, baseRows, current []bench.Fig7Row) error {
	regs, geomean := bench.CompareFig7(baseRows, current)
	if len(regs) == 0 {
		return fmt.Errorf("%s: no codecs in common with the current fig7 run", path)
	}
	fmt.Printf("\nBaseline comparison vs %s (vx32 decode time; <1.00x is faster)\n", path)
	fmt.Printf("  %-8s %14s %14s %9s\n", "decoder", "baseline", "current", "ratio")
	for _, r := range regs {
		note := ""
		if r.Ratio > maxGeomeanRegression {
			note = "  <-- regression"
		}
		fmt.Printf("  %-8s %14v %14v %8.2fx%s\n",
			r.Codec, r.Baseline.Round(10e3), r.Current.Round(10e3), r.Ratio, note)
	}
	fmt.Printf("  geomean %.3fx\n", geomean)
	if geomean > maxGeomeanRegression {
		return fmt.Errorf("geomean regression %.1f%% exceeds the %.0f%% gate",
			(geomean-1)*100, (maxGeomeanRegression-1)*100)
	}
	return nil
}

// compareLoadBaseline diffs the fresh load percentiles against the
// baseline's server_load section and enforces the p99 gate.
func compareLoadBaseline(path string, baseRows, current []bench.LoadRow) error {
	regs, geomean := bench.CompareLoad(baseRows, current)
	if len(regs) == 0 {
		return fmt.Errorf("%s: no codecs in common with the current load run", path)
	}
	fmt.Printf("\nLoad baseline comparison vs %s (p99 latency; <1.00x is faster)\n", path)
	fmt.Printf("  %-8s %14s %14s %9s\n", "decoder", "baseline", "current", "ratio")
	for _, r := range regs {
		note := ""
		if r.Ratio > maxLoadP99Regression {
			note = "  <-- regression"
		}
		fmt.Printf("  %-8s %14v %14v %8.2fx%s\n",
			r.Codec, r.Baseline.Round(10e3), r.Current.Round(10e3), r.Ratio, note)
	}
	fmt.Printf("  geomean %.3fx\n", geomean)
	if geomean > maxLoadP99Regression {
		return fmt.Errorf("load p99 geomean regression %.0f%% exceeds the %.0f%% gate",
			(geomean-1)*100, (maxLoadP99Regression-1)*100)
	}
	return nil
}

func kb(n int) float64 { return float64(n) / 1024 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxbench:", err)
	os.Exit(1)
}

// printStartup prints the first-stream ledger, one column per decoder,
// every stage in microseconds and as a share of the wall time.
func printStartup(rows []bench.StartupRow) {
	fmt.Printf("First stream: one cold 4 KiB entry per decoder, mean of %d operations, microseconds (share of wall)\n", rows[0].Reps)
	fmt.Printf("  %-20s", "stage")
	for _, r := range rows {
		fmt.Printf(" %14s", r.Codec)
	}
	fmt.Println()
	line := func(name string, get func(bench.StartupRow) time.Duration) {
		fmt.Printf("  %-20s", name)
		for _, r := range rows {
			fmt.Printf(" %7.1f (%3.0f%%)", float64(get(r))/1e3, 100*float64(get(r))/float64(r.Wall))
		}
		fmt.Println()
	}
	for i, name := range bench.StartupStageNames {
		line(name, func(r bench.StartupRow) time.Duration { return r.Stages[i] })
	}
	line("remainder", func(r bench.StartupRow) time.Duration { return r.Remainder })
	line("wall", func(r bench.StartupRow) time.Duration { return r.Wall })
	line("library op", func(r bench.StartupRow) time.Duration { return r.Library })
	fmt.Printf("  %-20s", "traces, code KiB")
	for _, r := range rows {
		fmt.Printf(" %8d, %4d", r.Traces, r.CodeBytes>>10)
	}
	fmt.Println()
	fmt.Println()
}
