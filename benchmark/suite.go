package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir is where the suite leaves its files, inside the benchmark's own
// directory.
var outDir = filepath.Join("benchmark", "out")

// hostRecord says where a result was measured; numbers from different
// hosts do not compare.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Governor   string `json:"cpu_governor"`
}

func readHost() hostRecord {
	h := hostRecord{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Governor: "unreadable",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"); err == nil {
		h.Governor = strings.TrimSpace(string(data))
	}
	return h
}

// metricSummary is one end-to-end metric over a workload's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"` // one per run, in seed order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median over runs
	// SliceSpread is the widest within-run spread over slices, the noise
	// estimate when there are too few runs for quartiles.
	SliceSpread float64 `json:"slice_spread"`
	Samples     int     `json:"samples"` // ops behind one run's value
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Why         string                    `json:"why"`
	Seeds       []int64                   `json:"seeds"`
	Attempted   int                       `json:"ops_attempted"`
	Failed      int                       `json:"ops_failed"`
	EndToEnd    map[string]*metricSummary `json:"end_to_end"`
	Absolute    map[string]*metricSummary `json:"absolute"` // the same runs' absolute figures; no bound
	PerLayer    map[string]metricValue    `json:"per_layer"`
	TracedSeed  int64                     `json:"traced_seed"`
	Trace       *traceSummary             `json:"trace_summary,omitempty"`
	LateP99MS   float64                   `json:"loadgen_late_p99_ms"`
	Inputs      map[string]string         `json:"inputs_sha256"` // of the first seed
	FirstErrors []string                  `json:"first_errors,omitempty"`
}

// suiteResult is the file the suite writes and -compare reads.
type suiteResult struct {
	Time      string                     `json:"time"`
	Host      hostRecord                 `json:"host"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runChild re-executes this binary for one run, so set-up time and peak
// memory belong to that workload alone, and parses its last two lines.
func runChild(args ...string) (resultLine, runDetail, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, runDetail{}, err
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res resultLine
	var det runDetail
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail: "); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return res, det, fmt.Errorf("child detail line: %w", err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, det, fmt.Errorf("child %v: %w", args, runErr)
		}
		return res, det, fmt.Errorf("child result line: %w", err)
	}
	return res, det, nil // a child that printed a result but exited 1 had failed ops; the caller sees them
}

// runSuite runs every workload `runs` times untraced (seeds seed..) and
// once traced, prints the tables, writes the result file and the traces,
// and appends a line to the history.
func runSuite(seed int64, seconds float64, runs int, outFile string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	now := time.Now().UTC()
	suite := suiteResult{
		Time: now.Format(time.RFC3339), Host: readHost(), Seed: seed, Runs: runs, Seconds: seconds,
		Workloads: map[string]*workloadResult{},
	}
	failed := 0
	for _, wd := range workloadDefs {
		wr := &workloadResult{Why: wd.Why, EndToEnd: map[string]*metricSummary{}, Absolute: map[string]*metricSummary{}, TracedSeed: seed}
		suite.Workloads[wd.Name] = wr
		for _, d := range endToEndDefs {
			wr.EndToEnd[d.Name] = &metricSummary{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		for _, d := range absoluteDefs {
			wr.Absolute[d.Name] = &metricSummary{Unit: d.Unit, Better: d.Better}
		}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			res, det, err := runChild("--workload", wd.Name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			if err != nil {
				return err
			}
			wr.Seeds = append(wr.Seeds, s)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if det.FirstError != "" {
				wr.FirstErrors = append(wr.FirstErrors, det.FirstError)
			}
			if i == 0 {
				wr.Inputs = det.Inputs
			}
			wr.LateP99MS = det.LateP99MS
			note := func(sum *metricSummary, name string, v float64) {
				sum.Values = append(sum.Values, v)
				sum.Samples = det.Samples
				if sp := det.SliceSpr[name]; sp > sum.SliceSpread {
					sum.SliceSpread = sp
				}
			}
			for name, sum := range wr.EndToEnd {
				note(sum, name, res.Metrics[name].Value)
			}
			for name, sum := range wr.Absolute {
				note(sum, name, det.Absolute[name].Value)
			}
		}
		for _, sums := range []map[string]*metricSummary{wr.EndToEnd, wr.Absolute} {
			for _, sum := range sums {
				sum.Q1, sum.Median, sum.Q3 = quartiles(sum.Values)
				sum.Spread = spread(sum.Values)
			}
		}
		tracePath := filepath.Join(outDir, "trace-"+wd.Name+".json")
		res, det, err := runChild("--workload", wd.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "1", "--trace-out", tracePath)
		if err != nil {
			return err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		if det.FirstError != "" {
			wr.FirstErrors = append(wr.FirstErrors, det.FirstError)
		}
		wr.PerLayer, wr.Trace = res.Metrics, det.TraceSum
		failed += wr.Failed
		printWorkload(wd.Name, wr)
	}
	if outFile == "" {
		outFile = filepath.Join(outDir, "result-"+now.Format("20060102T150405Z")+".json")
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := appendHistory(suite); err != nil {
		return err
	}
	fmt.Printf("\nresult file: %s\n", outFile)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n== %s  (seeds %v, ops attempted %d, failed %d)\n", name, wr.Seeds, wr.Attempted, wr.Failed)
	for _, d := range endToEndDefs {
		s := wr.EndToEnd[d.Name]
		fmt.Printf("  %-12s %12.4f %-5s %-6s n=%d runs=%d spread=%.1f%% slice-spread=%.1f%% bound=%.0f%%\n",
			d.Name, s.Median, s.Unit, d.Better, s.Samples, len(s.Values), 100*s.Spread, 100*s.SliceSpread, 100*d.Bound)
	}
	for _, d := range absoluteDefs {
		s := wr.Absolute[d.Name]
		fmt.Printf("  %-12s %12.4f %-5s %-6s n=%d runs=%d spread=%.1f%% slice-spread=%.1f%% absolute, no bound\n",
			d.Name, s.Median, s.Unit, d.Better, s.Samples, len(s.Values), 100*s.Spread, 100*s.SliceSpread)
	}
	for _, d := range perLayerDefs {
		if v := wr.PerLayer[d.Name]; v.Value != 0 {
			fmt.Printf("    %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, e := range wr.FirstErrors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

// appendHistory adds the suite's medians to out/history.jsonl, so the
// trajectory over commits is a series and not one overwritten file.
func appendHistory(s suiteResult) error {
	type line struct {
		Time    string                        `json:"time"`
		Host    hostRecord                    `json:"host"`
		Seed    int64                         `json:"seed"`
		Runs    int                           `json:"runs"`
		Seconds float64                       `json:"seconds"`
		Medians map[string]map[string]float64 `json:"medians"`
		Spreads map[string]map[string]float64 `json:"spreads"`
		LateP99 map[string]float64            `json:"loadgen_late_p99_ms"`
	}
	l := line{Time: s.Time, Host: s.Host, Seed: s.Seed, Runs: s.Runs, Seconds: s.Seconds,
		Medians: map[string]map[string]float64{}, Spreads: map[string]map[string]float64{}, LateP99: map[string]float64{}}
	for name, wr := range s.Workloads {
		l.Medians[name], l.Spreads[name] = map[string]float64{}, map[string]float64{}
		for _, sums := range []map[string]*metricSummary{wr.EndToEnd, wr.Absolute} {
			for m, sum := range sums {
				l.Medians[name][m] = sum.Median
				l.Spreads[name][m] = sum.Spread
			}
		}
		l.LateP99[name] = wr.LateP99MS
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regeneratePins rewrites testdata/inputs.sha256 from the pinned seed.
func regeneratePins() error {
	lines := []string{
		"# SHA-256 of every input the benchmark generates for seed 1, per workload.",
		"# A run on seed 1 fails if any differs: an edit to internal/corpus or an",
		"# encoder must not silently change the workload. Regenerate with",
		"#   bash benchmark/run.sh -write-pins",
	}
	for _, wd := range workloadDefs {
		w, err := newWorkload(wd.Name)
		if err != nil {
			return err
		}
		if err := w.setup(pinnedSeed); err != nil {
			w.close()
			return fmt.Errorf("%s: %w", wd.Name, err)
		}
		lines = append(lines, pinLines(wd.Name, w.digests())...)
		w.close()
	}
	return os.WriteFile(pinFile(), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadDef   `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

// perLayerEntry is a per-layer metric in the manifest: no bound.
type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func currentManifest() manifest {
	m := manifest{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, Workloads: workloadDefs, EndToEnd: endToEndDefs,
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, perLayerEntry{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifestFile() error {
	data, err := json.MarshalIndent(currentManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCHMARK.json", append(data, '\n'), 0o644)
}
