package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A run sets its workload up at least setupReps times, and goes on (up to
// maxSetupReps) while all set-ups together have taken less than
// setupBudget: a set-up of a tenth of a second needs more repeats than
// one of a second for its median to hold still. setup_s is the median;
// the last set-up is the one measured. The short test pass sets up once.
var (
	setupReps   = 5
	setupBudget = 3 * time.Second
)

const maxSetupReps = 15

// numSlices is how many equal parts of the timed window each end-to-end
// metric is computed on before the median is taken.
const numSlices = 5

// op is one measured operation of a workload.
type op struct {
	dec    int           // decoder index, -1 when the op spans all of them
	pass   int           // pass of a single-caller loop; schedule index otherwise
	slice  int           // 0..numSlices-1 once assigned, -1 when left out of the metrics
	start  time.Duration // offset from the start of the timed window
	dur    time.Duration
	native time.Duration // the bare native Go codec on the same bytes, timed right after the op
	key    string        // which input the op ran on; ops with one key share a native reference
	bytes  int64
}

// recorder collects ops and correctness verdicts. It is safe for the
// concurrent clients of the serving workloads.
type recorder struct {
	mu        sync.Mutex
	ops       []op
	passes    int // complete passes, set by single-caller loops when the window closes
	attempted int
	failed    int
	firstErr  string
	// lateP99 is set by the open-loop generator: how late, at the 99th
	// percentile, requests left compared with their schedule.
	lateP99 time.Duration
}

// add records one attempted op; a non-nil err makes it a failed op, which
// is left out of the latency and throughput figures.
func (r *recorder) add(o op, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
		return
	}
	o.slice = -1
	r.ops = append(r.ops, o)
}

// absorb adds another recorder's verdicts, not its ops, to r; of the two
// generator-lateness figures the worse is kept.
func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	if o.lateP99 > r.lateP99 {
		r.lateP99 = o.lateP99
	}
}

// because names the first failed op, for errors that follow from it.
func (r *recorder) because() string {
	if r.firstErr == "" {
		return ""
	}
	return fmt.Sprintf(" (%d of %d ops failed, first: %s)", r.failed, r.attempted, r.firstErr)
}

// hostProcs is GOMAXPROCS as the process found it. A single-caller
// workload runs with GOMAXPROCS 1, set-up included: its one caller needs
// one processor, and on the shared two-core hosts this runs on a second
// one made identical cold-start ops take anything from 5 to 20 ms (the
// collector and every mmap/mprotect/munmap of the engine then wait on
// the other core, which the host may have descheduled) where one gives
// 4-5 ms. The serving workload keeps them all.
var hostProcs = runtime.GOMAXPROCS(0)

// workload is one of the six benchmark workloads. setup covers
// everything before the timed window, warm-up included; measure runs the
// product's public path with tracing off; traced drives the same inputs
// through the layers' public functions with spans on.
type workload interface {
	setup(seed int64) error
	measure(d time.Duration, rec *recorder)
	traced(d time.Duration, rec *recorder, tr *tracer, acc *layerAcc)
	// concurrent reports whether ops overlap: throughput is then
	// completions per slice of wall time, where single-caller loops
	// report ops per busy second.
	concurrent() bool
	digests() map[string]string
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "bulk_extract":
		return &extractWorkload{bulk: true}, nil
	case "small_streams":
		return &extractWorkload{}, nil
	case "cold_start":
		return &startWorkload{}, nil
	case "diskwarm_start":
		return &startWorkload{diskwarm: true}, nil
	case "archive_write":
		return &writeWorkload{}, nil
	case "serve_closed":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// slicePasses assigns ops of complete passes to numSlices groups of whole
// passes (sizes differ by at most one pass), so every slice holds the same
// mix of streams. Ops of passes at or beyond completePasses stay out of the
// metrics.
func slicePasses(ops []op, completePasses int) int {
	n := numSlices
	if completePasses < n {
		n = completePasses
	}
	for i := range ops {
		if ops[i].pass < completePasses {
			ops[i].slice = ops[i].pass * n / completePasses
		}
	}
	return n
}

// sliceTime assigns overlapping ops to numSlices equal parts of the
// window by completion time.
func sliceTime(ops []op, window time.Duration) int {
	for i := range ops {
		if s := int((ops[i].start + ops[i].dur) * numSlices / window); s < numSlices {
			ops[i].slice = s
		}
	}
	return numSlices
}

// endToEnd reduces the ops to the op-derived metrics, the bounded ratios
// (slowdown_x, p50_x, p90_x) and the absolute figures alike: each is
// computed per slice and the median over slices reported, with the
// per-slice values kept for the spread. sliceLen is the wall length
// of a slice for overlapping ops, 0 for single-caller loops.
func endToEnd(ops []op, slices int, sliceLen time.Duration) (map[string]float64, map[string][]float64, error) {
	if slices == 0 {
		return nil, nil, fmt.Errorf("the timed window did not hold one complete pass")
	}
	per := map[string][]float64{}
	for s := 0; s < slices; s++ {
		var durs []float64
		var vx, nat [7]time.Duration // index 6 is ops without a decoder
		var bytes int64
		var total time.Duration
		for _, o := range ops {
			if o.slice != s {
				continue
			}
			durs = append(durs, ms(o.dur))
			total += o.dur
			bytes += o.bytes
			d := o.dec
			if d < 0 {
				d = 6
			}
			if o.native > 0 {
				vx[d] += o.dur
				nat[d] += o.native
			}
		}
		if len(durs) == 0 {
			return nil, nil, fmt.Errorf("slice %d of %d holds no completed op", s, slices)
		}
		denom := total.Seconds()
		if sliceLen > 0 {
			denom = sliceLen.Seconds()
		}
		var ratios []float64
		for d := range vx {
			if nat[d] > 0 {
				ratios = append(ratios, float64(vx[d])/float64(nat[d]))
			}
		}
		// Each op's cost in units of the native decoder's time on the
		// same input. One native sample of a small stream is tens of
		// microseconds and now and then ten times that, so the reference
		// is the median over the slice's repeats of that input. p50_x is
		// the geometric mean over inputs of median op time over that
		// reference, not the median of the pooled ratios: with six inputs
		// whose ratios differ by decoder the pooled median sits in the gap
		// between the third and the fourth and jumps from one to the other.
		// The 90th percentile of the pool lies inside the costliest group.
		natOf, durOf := map[string][]float64{}, map[string][]float64{}
		for _, o := range ops {
			if o.slice == s && o.native > 0 {
				natOf[o.key] = append(natOf[o.key], float64(o.native))
				durOf[o.key] = append(durOf[o.key], float64(o.dur))
			}
		}
		refs := map[string]float64{}
		var typical []float64
		for key, ns := range natOf {
			refs[key] = median(ns)
			typical = append(typical, median(durOf[key])/refs[key])
		}
		var rel []float64
		for _, o := range ops {
			if ref := refs[o.key]; o.slice == s && ref > 0 {
				rel = append(rel, float64(o.dur)/ref)
			}
		}
		per["p50_x"] = append(per["p50_x"], geomean(typical))
		per["p90_x"] = append(per["p90_x"], quantile(rel, 0.90))
		per["ops_per_s"] = append(per["ops_per_s"], float64(len(durs))/denom)
		per["mb_per_s"] = append(per["mb_per_s"], float64(bytes)/1e6/denom)
		per["p50_ms"] = append(per["p50_ms"], quantile(durs, 0.50))
		per["p90_ms"] = append(per["p90_ms"], quantile(durs, 0.90))
		per["p99_ms"] = append(per["p99_ms"], quantile(durs, 0.99))
		per["slowdown_x"] = append(per["slowdown_x"], geomean(ratios))
	}
	out := map[string]float64{}
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out, per, nil
}

// collect runs a garbage collection and waits until the finalizers it
// queued have run. runtime.GC alone returns with them pending, and on one
// processor the finalizer goroutine then runs whenever the caller is next
// preempted: guest mappings were unmapped now or some ops later, and
// peak_rss_mb read 20 or 37 MiB by that chance.
func collect() {
	done := make(chan struct{})
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(done) })
	runtime.GC()
	<-done
	runtime.Gosched() // the sentinel need not be the last finalizer of the batch
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, in the form the
// benchmark contract fixes.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is everything else a run knows; it goes to the line before
// the result line (prefixed "detail: ") and into the suite's files.
type runDetail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Samples  int     `json:"samples"` // ops behind the op-derived metrics
	Slices   int     `json:"slices"`
	// Absolute holds the run's absolute figures (absoluteDefs), which
	// carry no bound; the result line holds the bounded ratios.
	Absolute   map[string]metricValue `json:"absolute,omitempty"`
	PerSlice   map[string][]float64   `json:"per_slice,omitempty"`
	SliceSpr   map[string]float64     `json:"slice_spread,omitempty"` // IQR/median over slices
	SetupS     []float64              `json:"setup_s_reps"`
	LateP99MS  float64                `json:"loadgen_late_p99_ms"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	FirstError string                 `json:"first_error,omitempty"`
	Inputs     map[string]string      `json:"inputs_sha256"`
	TraceSum   *traceSummary          `json:"trace_summary,omitempty"`
}

// runWorkload performs one complete run of one workload in this process.
func runWorkload(name string, seed int64, seconds float64, trace bool, traceOut string) (resultLine, runDetail, error) {
	det := runDetail{Workload: name, Seed: seed, Seconds: seconds, Trace: trace}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // the tests run several workloads in one process
	var w workload
	setupStart := time.Now()
	for rep := 0; rep < setupReps || (rep < maxSetupReps && time.Since(setupStart) < setupBudget); rep++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name); err != nil {
			return resultLine{}, det, err
		}
		if !w.concurrent() {
			runtime.GOMAXPROCS(1)
		}
		det.GOMAXPROCS = runtime.GOMAXPROCS(0)
		// What the previous set-up left behind goes before this one is
		// timed, so peak memory is that of one set-up plus the run and
		// not of however many set-ups the collector happened to let pile up.
		collect()
		start := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return resultLine{}, det, fmt.Errorf("%s setup: %w", name, err)
		}
		det.SetupS = append(det.SetupS, time.Since(start).Seconds())
	}
	defer w.close()
	det.Inputs = w.digests()
	if seed == pinnedSeed {
		if err := checkPins(name, det.Inputs); err != nil {
			return resultLine{}, det, err
		}
	}

	window := time.Duration(seconds * float64(time.Second))
	res := resultLine{Metrics: map[string]metricValue{}}
	rec := &recorder{}
	if !trace {
		w.measure(window, rec)
		vals, per, err := reduce(w, rec, window)
		if err != nil {
			return resultLine{}, det, fmt.Errorf("%s: %w%s", name, err, rec.because())
		}
		vals["setup_s"] = median(det.SetupS)
		vals["peak_rss_mb"] = peakRSSMiB()
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
		det.Absolute = map[string]metricValue{}
		for _, d := range absoluteDefs {
			det.Absolute[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
		det.PerSlice, det.SliceSpr = per, map[string]float64{}
		for name, vs := range per {
			det.SliceSpr[name] = spread(vs)
		}
		det.Slices = len(per["p50_ms"])
		det.Samples = countSliced(rec.ops)
	} else {
		// Half the window untraced, half traced, on the same set-up: the
		// difference is the tracing overhead, and the untraced half gives
		// the allocation counts and the library-vs-bare-VM comparison.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.measure(window/2, rec)
		runtime.ReadMemStats(&m1)
		plain, _, err := reduce(w, rec, window/2)
		if err != nil {
			return resultLine{}, det, fmt.Errorf("%s: %w%s", name, err, rec.because())
		}
		acc, tr, trec := newLayerAcc(), newTracer(), &recorder{}
		for _, d := range absoluteDefs {
			acc.set("abs."+d.Name, plain[d.Name])
		}
		if n := len(rec.ops); n > 0 {
			acc.set("core.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(n))
			acc.set("core.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		}
		w.traced(window/2, trec, tr, acc)
		if _, _, err := reduce(w, trec, window/2); err != nil {
			return resultLine{}, det, fmt.Errorf("%s traced: %w%s", name, err, trec.because())
		}
		sum := tr.summarize()
		det.TraceSum = &sum
		// A workload whose spans cannot cover its ops (the serving ones,
		// whose layers run inside the daemon) reports these two itself.
		if !acc.hasDirect("trace.unattributed_share") {
			acc.set("trace.unattributed_share", sum.UnattributedShare)
		}
		if !acc.hasDirect("trace.overhead_share") {
			// Both halves run the same op mix, so mean op times compare.
			acc.set("trace.overhead_share", meanSlicedMS(trec.ops)/meanSlicedMS(rec.ops)-1)
		}
		acc.set("loadgen.late_p99_ms", ms(trec.lateP99))
		for name, v := range acc.values() {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(perLayerDefs, name)}
		}
		rec.absorb(trec)
		det.Samples = countSliced(trec.ops)
		if traceOut != "" {
			if err := tr.write(traceOut, name, seed); err != nil {
				return resultLine{}, det, err
			}
		}
	}
	det.LateP99MS = ms(rec.lateP99)
	det.FirstError = rec.firstErr
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0 && rec.attempted > 0
	return res, det, nil
}

// reduce assigns slices the way the workload's loop calls for and
// computes the op-derived end-to-end metrics.
func reduce(w workload, rec *recorder, window time.Duration) (map[string]float64, map[string][]float64, error) {
	if w.concurrent() {
		return endToEnd(rec.ops, sliceTime(rec.ops, window), window/numSlices)
	}
	return endToEnd(rec.ops, slicePasses(rec.ops, rec.passes), 0)
}

// meanSlicedMS is the mean time of the ops that entered the metrics.
func meanSlicedMS(ops []op) float64 {
	var sum time.Duration
	n := 0
	for _, o := range ops {
		if o.slice >= 0 {
			sum += o.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

func countSliced(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.slice >= 0 {
			n++
		}
	}
	return n
}

// printRun writes the human-readable table, the detail line and, last,
// the contract's result line.
func printRun(res resultLine, det runDetail, defs []metricDef) error {
	fmt.Printf("workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		det.Workload, det.Seed, det.Seconds, det.Trace, det.GOMAXPROCS)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %14.4f %-8s (%s is better)", d.Name, m.Value, m.Unit, d.Better)
		if sp, ok := det.SliceSpr[d.Name]; ok {
			line += fmt.Sprintf("  n=%d slice-spread=%.1f%% bound=%.0f%%", det.Samples, 100*sp, 100*d.Bound)
		}
		fmt.Println(line)
	}
	for _, d := range absoluteDefs {
		if m, ok := det.Absolute[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-8s (%s is better)  n=%d slice-spread=%.1f%% no bound: absolute\n",
				d.Name, m.Value, m.Unit, d.Better, det.Samples, 100*det.SliceSpr[d.Name])
		}
	}
	fmt.Printf("  ops attempted %d failed %d\n", res.Attempted, res.Failed)
	if det.FirstError != "" {
		fmt.Printf("  first failure: %s\n", det.FirstError)
	}
	dj, err := json.Marshal(det)
	if err != nil {
		return err
	}
	fmt.Printf("detail: %s\n", dj)
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", rj)
	return nil
}

// checkedOutput receives a decoder's output the way the library's callers
// do, keeping a SHA-256 for the oracle; the bytes themselves are dropped.
type checkedOutput struct {
	h hash.Hash
	n int
}

func newCheckedOutput() *checkedOutput { return &checkedOutput{h: sha256.New()} }

func (c *checkedOutput) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.h.Write(p)
}

func (c *checkedOutput) reset() { c.h.Reset(); c.n = 0 }

// verify compares what was written with the stream's expected output.
func (c *checkedOutput) verify(s *stream) error {
	var got [32]byte
	c.h.Sum(got[:0])
	if c.n != s.wantLen || got != s.want {
		return fmt.Errorf("%s: output of %d bytes (sha256 %x) is not the expected %d bytes (%x)",
			s.id, c.n, got[:6], s.wantLen, s.want[:6])
	}
	return nil
}

// timedWriter is the host side of a traced stream: it does what the
// library's writer does (CRC-32 plus delivery) and accounts the time.
type timedWriter struct {
	w   io.Writer
	crc hash.Hash32
	ns  time.Duration
}

func newTimedWriter(w io.Writer) *timedWriter { return &timedWriter{w: w, crc: crc32.NewIEEE()} }

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	t.crc.Write(p)
	n, err := t.w.Write(p)
	t.ns += time.Since(start)
	return n, err
}
