// Command benchmark is the repository's benchmark of record: six
// workloads from bulk decode to vxad serving, measured from outside the
// product through its public functions. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//	benchmark [-runs N] [-o file]                              every workload, untraced and traced, into out/
//	benchmark -compare a.json b.json                           verdict per workload x end-to-end metric
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName  = flag.String("workload", "", "run one workload in this process (default: run them all as child processes)")
		seed          = flag.Int64("seed", pinnedSeed, "seed every input is generated from")
		seconds       = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace         = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		traceOut      = flag.String("trace-out", "", "with -trace 1: write the spans to this file")
		runs          = flag.Int("runs", 1, "suite: untraced runs per workload, on seeds seed..seed+runs-1")
		outFile       = flag.String("o", "", "suite: result file (default benchmark/out/result-<time>.json)")
		compare       = flag.Bool("compare", false, "compare two suite result files given as arguments")
		writePins     = flag.Bool("write-pins", false, "regenerate testdata/inputs.sha256 for the pinned seed and exit")
		writeManifest = flag.Bool("write-manifest", false, "regenerate BENCHMARK.json from catalog.go and exit")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *writePins:
			return regeneratePins()
		case *writeManifest:
			return writeManifestFile()
		case *workloadName != "":
			res, det, err := runWorkload(*workloadName, *seed, *seconds, *trace != 0, *traceOut)
			if err != nil {
				return err
			}
			defs := endToEndDefs
			if *trace != 0 {
				defs = perLayerDefs
			}
			if err := printRun(res, det, defs); err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed: %s", *workloadName, res.Failed, res.Attempted, det.FirstError)
			}
			return nil
		default:
			return runSuite(*seed, *seconds, *runs, *outFile)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
