package main

import (
	"fmt"
	"time"
)

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-write-manifest), and every run emits exactly these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	exact  bool    // a count that must repeat exactly for one seed
}

// workloadDef is one workload with the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window the manifest asks the driver for: the
// driver's 136 runs, five set-ups each, then take about two thirds of the
// time it allows.
const runSeconds = 15

var workloadDefs = []workloadDef{
	{"bulk_extract", "one Fig.-7-sized entry per decoder through ExtractTo: tier-1/tier-2 execution and vxcc code quality do the work, setup and reset almost none"},
	{"small_streams", "120 entries of 256 B-16 KiB with mode changes on one Reader: lease, Reset, re-translation after reset and host copies dominate, steady-state execution is minor"},
	{"cold_start", "fresh OpenReader, first ExtractTo, Close per decoder with nothing cached: zip parse, ELF parse, VM and snapshot build, from-scratch translation"},
	{"diskwarm_start", "the same first stream through a fresh SnapCache over a populated artifact store: what a restarted shard pays, artifact load in place of translation"},
	{"archive_write", "vxcc.Compile of six decoders plus NewWriter/AddFile/Close over text, BMP, WAV and 30 small files: the write side, bypasses the VM entirely"},
	{"serve_closed", "in-process vxad behind httptest, nproc clients each posting /v1/decode and waiting for the reply: saturation capacity with HTTP, admission and lock contention; the traced run adds open-loop rates"},
}

// endToEndDefs are measured with tracing off, on every workload, and carry
// the bounds a later change is held to. The three timing metrics are
// ratios to the native Go codec timed on the same bytes right after each
// op: on the shared two-core hosts this runs on, absolute times move 5-15%
// from run to run with the host, while the ratios move 1-5%, 10% in a bad
// quarter of an hour (README.md, "Bounds"). Every bound sits at the
// contract's cap of 0.25.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "slowdown_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "p50_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "p90_x", Unit: "x", Better: "lower", Bound: 0.25},
}

// absoluteDefs are the same runs' absolute figures: what a user's clock
// shows. Every untraced run reports them beside the end-to-end metrics
// (detail line, result files, -compare's info rows) and the traced run
// repeats them as per-layer metrics under "abs."; none carries a bound.
var absoluteDefs = []metricDef{
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
}

// perLayerDefs are the per-layer metrics of the traced run. A layer a
// workload does not exercise reports 0 there.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string, exact bool) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, exact: exact})
	}
	perDecoder := func(prefix, unit, better string, exact bool) {
		for _, d := range decoderNames {
			add(prefix+"."+d, unit, better, exact)
		}
	}
	// vxcc: code quality and cost of the decoders it emits.
	perDecoder("vxcc.steps_per_byte", "steps/B", "lower", true)
	perDecoder("vxcc.compile_ms", "ms", "lower", false)
	perDecoder("vxcc.elf_bytes", "B", "lower", true)
	// codec: the native Go encoders and decoders.
	perDecoder("codec.native_mbps", "MB/s", "higher", false)
	perDecoder("codec.encode_mbps", "MB/s", "higher", false)
	// vm: execution engine, per decoder and per stream.
	perDecoder("vm.run_ms", "ms", "lower", false)
	perDecoder("vm.ns_per_step", "ns", "lower", false)
	perDecoder("vm.tier2_step_share", "share", "higher", false)
	perDecoder("vm.translate_ms", "ms", "lower", false)
	add("vm.tier2_compiled_per_stream", "count", "lower", false)
	add("vm.tier2_step_share", "share", "higher", false)
	add("vm.translate_us_per_stream", "us", "lower", false)
	add("vm.blocks_built_per_op", "count", "lower", false)
	add("vm.superblocks_formed_per_op", "count", "lower", false)
	add("vm.syscalls_per_kb", "count", "lower", false)
	add("vm.flags_materialized_per_kuop", "count", "lower", false)
	add("vm.snapshot_ms", "ms", "lower", false)
	add("vm.newvm_ms", "ms", "lower", false)
	add("vm.reset_us", "us", "lower", false)
	add("vm.serialize_ms", "ms", "lower", false)
	add("vm.deserialize_ms", "ms", "lower", false)
	add("vm.steps_per_pass", "count", "lower", true)
	// container and loader.
	add("elf32.parse_us", "us", "lower", false)
	add("elf32.load_ms", "ms", "lower", false)
	add("zipfile.open_us", "us", "lower", false)
	add("zipfile.decoder_read_us", "us", "lower", false)
	add("zipfile.write_ms", "ms", "lower", false)
	add("archive.decoder_kb", "KiB", "lower", false) // deflated size follows vxcc's per-compile data layout
	add("archive.bytes", "B", "lower", false)
	// artifact store.
	add("artifact.load_ms", "ms", "lower", false)
	add("artifact.save_ms", "ms", "lower", false)
	add("artifact.bytes", "B", "lower", false)
	// vmpool: leases, resets and the snapshot cache.
	add("vmpool.lease_resume_us", "us", "lower", false)
	add("vmpool.lease_reset_us", "us", "lower", false)
	add("vmpool.release_us", "us", "lower", false)
	add("vmpool.resets", "count", "lower", true)
	add("vmpool.resumes", "count", "higher", true)
	add("vmpool.builds", "count", "lower", true)
	add("vmpool.discards", "count", "lower", true)
	add("vmpool.snapcache_get_us", "us", "lower", false)
	add("vmpool.snapcache_hit_share", "share", "higher", false)
	// core: what the library adds around the bare VM run.
	add("core.extract_overhead_us", "us", "lower", false)
	add("core.host_write_us", "us", "lower", false)
	add("core.allocs_per_op", "count", "lower", false)
	add("core.alloc_bytes_per_op", "B", "lower", false)
	add("core.parallel_speedup", "x", "higher", false)
	// server: the daemon around the same streams.
	add("server.http_overhead_us", "us", "lower", false)
	for _, st := range serverStages {
		add("server.stage_ms."+st, "ms", "lower", false)
	}
	add("server.shed", "count", "lower", false)
	add("server.errors", "count", "lower", false)
	add("server.p50_ms.r100", "ms", "lower", false)
	add("server.p99_ms.r100", "ms", "lower", false)
	add("server.p99_ms.r250", "ms", "lower", false)
	add("server.max_rate_ok", "1/s", "higher", false)
	add("loadgen.late_p99_ms", "ms", "lower", false)
	// The absolute figures of the untraced half of the window.
	for _, d := range absoluteDefs {
		add("abs."+d.Name, d.Unit, d.Better, false)
	}
	// integrity of the trace itself.
	add("trace.overhead_share", "share", "lower", false)
	add("trace.unattributed_share", "share", "lower", false)
	return defs
}

// serverStages are the stages vxad's own request spans attribute time to.
var serverStages = []string{"queue", "lease", "snapshot", "artifact", "translate", "execute", "write"}

// layerAcc collects per-layer observations during a traced run and
// reduces them to one value per declared metric.
type layerAcc struct {
	samples map[string][]float64
	num     map[string]float64
	den     map[string]float64
	direct  map[string]float64
	unit    map[string]string // declared unit of every known metric
}

func newLayerAcc() *layerAcc {
	a := &layerAcc{
		samples: map[string][]float64{}, num: map[string]float64{},
		den: map[string]float64{}, direct: map[string]float64{}, unit: map[string]string{},
	}
	for _, d := range perLayerDefs {
		a.unit[d.Name] = d.Unit
	}
	return a
}

func (a *layerAcc) check(name string) {
	if _, ok := a.unit[name]; !ok {
		panic(fmt.Sprintf("benchmark: per-layer metric %q is not declared in catalog.go", name))
	}
}

// sample records one observation; the metric is the median of them.
func (a *layerAcc) sample(name string, v float64) {
	a.check(name)
	a.samples[name] = append(a.samples[name], v)
}

// sampleDur records a duration in the metric's declared unit (us or ms).
func (a *layerAcc) sampleDur(name string, d time.Duration) {
	if a.unit[name] == "us" {
		a.sample(name, us(d))
	} else {
		a.sample(name, ms(d))
	}
}

// ratio adds to a quotient of sums, for rates such as ns per step.
func (a *layerAcc) ratio(name string, num, den float64) {
	a.check(name)
	a.num[name] += num
	a.den[name] += den
}

// set fixes a metric's value directly (counts, single measurements).
func (a *layerAcc) set(name string, v float64) {
	a.check(name)
	a.direct[name] = v
}

// values reduces the observations: every declared name is present, 0
// where the workload never touched the layer.
func (a *layerAcc) values() map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		// Observations made inside the traced window outrank facts noted
		// at set-up under the same name.
		switch {
		case a.den[d.Name] != 0:
			out[d.Name] = a.num[d.Name] / a.den[d.Name]
		case len(a.samples[d.Name]) > 0:
			out[d.Name] = median(a.samples[d.Name])
		default:
			out[d.Name] = a.direct[d.Name]
		}
	}
	return out
}

func (a *layerAcc) hasDirect(name string) bool { _, ok := a.direct[name]; return ok }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
