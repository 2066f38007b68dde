// Command vxbench regenerates the paper's evaluation tables and figures
// (§5) against this reproduction: Tables 1 and 2, the §5.3 storage
// overhead and Figure 7, which is what it prints by default. Two ledgers
// are opt-in: -ablate-opt (decode time at every engine optimization
// level) and -startup (a cold first stream and a warm pooled one, split
// into stages). -chaos and -load URL drive a vxad for CI's chaos and
// fleet smokes. Every figure here is single-shot; serving-path
// performance is measured by the benchmark of record in benchmark/.
// EXPERIMENTS.md records the interpretation.
//
// With -json FILE, every computed artifact is also written as one JSON
// document (BENCH_*.json style).
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
	Startup    []bench.LedgerRow   `json:"startup,omitempty"`
	Pooled     []bench.LedgerRow   `json:"pooled,omitempty"`
	ServerLoad []bench.LoadRow     `json:"server_load,omitempty"`
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
	load := flag.String("load", "", "drive the running vxad or vxrouter at this URL (e.g. http://127.0.0.1:7787) with open-loop Poisson load and report outcomes and latency percentiles")
	chaos := flag.Bool("chaos", false, "drive vxad with fault injection armed and report containment/recovery figures")
	ablateOpt := flag.Bool("ablate-opt", false, "measure each engine layer's contribution: decode time at every vm.OptLevel (reference, superblocks, tier 2)")
	startup := flag.Bool("startup", false, "print the first-stream ledger, one cold 4 KiB stream per decoder, and the pooled-stream ledger, one warm 256 B stream per decoder after a reset and after a resume, each split into stages that sum to its wall time; exit nonzero if any stream leaves more than 5% unaccounted")
	startupReps := flag.Int("startup-reps", 200, "cold operations per decoder, and pooled streams per decoder and path, for -startup")
	rate := flag.Float64("rate", 50, "offered request rate per second for -load")
	duration := flag.Duration("duration", 2*time.Second, "load duration per codec for -load")
	conc := flag.Int("conc", 8, "max in-flight client requests for -load and -chaos")
	chaosRate := flag.Float64("chaos-rate", 0.05, "fault-injection probability per point for -chaos")
	chaosReqs := flag.Int("chaos-reqs", 2000, "requests for -chaos")
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
	// -load, -chaos, -ablate-opt and -startup are opt-in only: chaos arms
	// the global fault registry and must never contaminate the clean figures.
	all := !*t1 && !*t2 && !*f7 && !*ov && *load == "" && !*ablateOpt && !*chaos && !*startup

	// Load the baseline up front: it must be the *previous* run even
	// when -json later overwrites the same file, and a bad path should
	// fail before minutes of benchmarking.
	var base *report
	if *baseline != "" {
		*f7 = true // the compare mode needs a fresh Figure 7 run
		var err error
		if base, err = loadBaseline(*baseline); err != nil {
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
	if *load != "" {
		rows, err := bench.LoadBenchTarget(*load, *rate, *duration, *conc)
		if err != nil {
			fatal(err)
		}
		rep.ServerLoad = rows
		fmt.Printf("Server load against %s: open-loop Poisson arrivals, %v req/s for %v per codec, %d client slots\n",
			*load, *rate, *duration, *conc)
		fmt.Printf("  %-8s %6s %5s %5s %5s %6s %12s %12s %12s %12s\n",
			"decoder", "reqs", "errs", "shed", "held", "trunc", "p50", "p90", "p99", "max")
		for _, r := range rows {
			fmt.Printf("  %-8s %6d %5d %5d %5d %6d %12v %12v %12v %12v\n",
				r.Codec, r.Requests, r.Errors, r.Sheds, r.Held, r.Truncated,
				r.P50.Round(10e3), r.P90.Round(10e3), r.P99.Round(10e3), r.Max.Round(10e3))
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
	if *ablateOpt {
		rows, err := bench.Ladder()
		if err != nil {
			fatal(err)
		}
		rep.Ladder = rows
		fmt.Println("Optimization ladder: vx32 decode time at each OptLevel, and (second line) the speedup")
		fmt.Println("over the level below — what the layers that level adds are worth")
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
		printLedger(fmt.Sprintf("First stream: one cold 4 KiB entry per decoder, mean of %d operations less the slowest tenth, microseconds (share of wall)", rows[0].Reps),
			bench.StartupStageNames[:], rows, ledgerExtra{"traces, code KiB",
				func(r bench.LedgerRow) string { return fmt.Sprintf("%d, %d", r.Traces, r.CodeBytes>>10) }},
			ledgerExtra{"guest insts, uops", func(r bench.LedgerRow) string { return fmt.Sprintf("%d, %d", r.Translated, r.Compiled) }},
			ledgerExtra{"build ns/guest inst", func(r bench.LedgerRow) string {
				return fmt.Sprintf("%.0f", r.PerUnit(bench.StageBlockBuild, r.Translated))
			}},
			ledgerExtra{"emit ns/uop", func(r bench.LedgerRow) string {
				return fmt.Sprintf("%.0f", r.PerUnit(bench.StageTier2Emit, r.Compiled))
			}},
			ledgerExtra{"seal ns/uop", func(r bench.LedgerRow) string {
				return fmt.Sprintf("%.0f", r.PerUnit(bench.StageTier2Seal, r.Compiled))
			}})
		for _, r := range rows {
			if sh := r.RemainderShare(); sh > 0.05 || sh < -0.05 {
				startupErr = fmt.Errorf("-startup: %s leaves %.1f%% of its first stream unaccounted", r.Codec, 100*sh)
			}
		}
		pooled, err := bench.Pooled(*startupReps)
		if err != nil {
			fatal(err)
		}
		rep.Pooled = pooled
		extras := []ledgerExtra{{"tier-2 share", func(r bench.LedgerRow) string { return fmt.Sprintf("%.5f", r.Tier2Share) }}}
		if bench.CountsMinorFaults {
			extras = append(extras, ledgerExtra{"minor faults", func(r bench.LedgerRow) string { return fmt.Sprintf("%.1f", r.MinorFaults) }})
		}
		printLedger(fmt.Sprintf("Pooled stream: one warm 256 B entry per decoder after a mode change (reset) and after a resume, mean of %d streams less the slowest tenth, microseconds (share of wall)", pooled[0].Reps),
			bench.PooledStageNames[:], pooled, extras...)
		for _, r := range pooled {
			if sh := r.RemainderShare(); sh > 0.05 || sh < -0.05 {
				startupErr = fmt.Errorf("-startup: %s leaves %.1f%% of its pooled %s stream unaccounted", r.Codec, 100*sh, r.Path)
			}
		}
	}
	if *f7 || all {
		fmt.Println("Figure 7: Performance of Virtualized Decoders")
		fmt.Println("  (see EXPERIMENTS.md for the shape comparison)")
		rows, err := bench.Fig7()
		if err != nil {
			fatal(err)
		}
		rep.Fig7 = rows
		fmt.Printf("  %-8s %10s %12s %12s %12s %10s %9s %9s %11s %6s\n",
			"decoder", "input", "native", "vx32", "translate", "slowdown", "vs-nat", "MIPS", "flags/kuop", "t2")
		for _, r := range rows {
			fmt.Printf("  %-8s %8.0fKB %12v %12v %12v %9.1fx %8.4fx %9.1f %11.3g %5.0f%%\n",
				r.Codec, kb(r.InputBytes), r.Native.Round(10e3), r.VX32.Round(10e3),
				r.Translate.Round(10e3), r.Slowdown, r.SpeedupVsNative, r.GuestMIPS, r.FlagsPerKuop,
				100*r.Tier2StepShare)
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
		if err := compareBaseline(*baseline, base.Fig7, rep.Fig7); err != nil {
			fatal(err)
		}
	}
}

// maxGeomeanRegression is the compare-mode failure threshold: a >10%
// geometric-mean slowdown across the Figure 7 codecs fails the run.
const maxGeomeanRegression = 1.10

// loadBaseline reads a previously written -json report and checks it
// carries Figure 7 rows to compare against.
func loadBaseline(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Fig7) == 0 {
		return nil, fmt.Errorf("%s: no fig7 rows to compare against", path)
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

func kb(n int) float64 { return float64(n) / 1024 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxbench:", err)
	os.Exit(1)
}

// ledgerExtra is a line of a ledger table below its stages: a name and
// what it reads from each column.
type ledgerExtra struct {
	name string
	get  func(bench.LedgerRow) string
}

// printLedger prints a stage ledger under its title, one column per row
// (headed by its decoder, and its path where it has one), every stage in
// microseconds and as a share of the wall time, then a line per extra.
func printLedger(title string, stages []string, rows []bench.LedgerRow, extras ...ledgerExtra) {
	fmt.Println(title)
	header := func(name string, get func(bench.LedgerRow) string) {
		fmt.Printf("  %-20s", name)
		for _, r := range rows {
			fmt.Printf(" %14s", get(r))
		}
		fmt.Println()
	}
	header("stage", func(r bench.LedgerRow) string { return r.Codec })
	if rows[0].Path != "" {
		header("", func(r bench.LedgerRow) string { return r.Path })
	}
	line := func(name string, get func(bench.LedgerRow) time.Duration) {
		fmt.Printf("  %-20s", name)
		for _, r := range rows {
			fmt.Printf(" %7.1f (%3.0f%%)", float64(get(r))/1e3, 100*float64(get(r))/float64(r.Wall))
		}
		fmt.Println()
	}
	for i, name := range stages {
		line(name, func(r bench.LedgerRow) time.Duration { return r.Stages[i] })
	}
	line("remainder", func(r bench.LedgerRow) time.Duration { return r.Remainder })
	line("wall", func(r bench.LedgerRow) time.Duration { return r.Wall })
	line("library op", func(r bench.LedgerRow) time.Duration { return r.Library })
	for _, x := range extras {
		header(x.name, x.get)
	}
	fmt.Println()
}
