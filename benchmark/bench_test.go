package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// The benchmark reads its pin file and BENCHMARK.json relative to the
// repository root, where the driver runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest checks that BENCHMARK.json is what catalog.go declares and
// stays inside the contract's limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(currentManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want)+"\n" {
		t.Fatal("BENCHMARK.json differs from catalog.go; regenerate with: bash benchmark/run.sh -write-manifest")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	m := currentManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

// TestShortPass runs every workload once with a short window and checks
// that each emits exactly the declared end-to-end names, never 0, with no
// failed op. One cheap workload also runs traced for the per-layer names.
func TestShortPass(t *testing.T) {
	defer func(n int, d time.Duration) { setupReps, setupBudget = n, d }(setupReps, setupBudget)
	setupReps, setupBudget = 1, 0
	for _, wd := range workloadDefs {
		seconds := 1.0
		if wd.Name == "bulk_extract" {
			seconds = 2.5 // one pass of the Fig.-7-sized entries takes about a second
		}
		res, det, err := runWorkload(wd.Name, pinnedSeed, seconds, false, "")
		if err != nil {
			t.Fatalf("%s: %v", wd.Name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %s", wd.Name, res.Attempted, res.Failed, det.FirstError)
		}
		checkNames(t, wd.Name, res, endToEndDefs)
		for name, m := range res.Metrics {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wd.Name, name, m.Value)
			}
		}
	}
	res, det, err := runWorkload("cold_start", pinnedSeed, 1, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("cold_start traced: %d ops failed: %s", res.Failed, det.FirstError)
	}
	checkNames(t, "cold_start traced", res, perLayerDefs)
}

func checkNames(t *testing.T, what string, res resultLine, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWrongDigestFails: an output that is not the expected one is a
// failed op, which makes the command exit nonzero.
func TestWrongDigestFails(t *testing.T) {
	w := &startWorkload{}
	if err := w.setup(pinnedSeed); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.in.streams[0].want[0] ^= 1
	rec := &recorder{}
	w.measure(time.Second, rec)
	if rec.failed != rec.passes || rec.failed == 0 {
		t.Fatalf("%d ops failed over %d passes; the corrupted stream must fail once per pass", rec.failed, rec.passes)
	}
}

// TestPinMismatchFails: an input that no longer matches its pinned digest
// stops the run before anything is measured.
func TestPinMismatchFails(t *testing.T) {
	w := &startWorkload{}
	if err := w.setup(pinnedSeed); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	got := w.digests()
	if err := checkPins("cold_start", got); err != nil {
		t.Fatalf("pins of the unmodified workload: %v", err)
	}
	for name := range got {
		got[name] = "00" + got[name][2:]
		break
	}
	if err := checkPins("cold_start", got); err == nil {
		t.Fatal("a changed input digest passed the pin check")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	base := func(vs ...float64) *metricSummary {
		s := &metricSummary{Better: "lower", Bound: 0.10, Values: vs}
		s.Q1, s.Median, s.Q3 = quartiles(vs)
		s.Spread = spread(vs)
		return s
	}
	cases := []struct {
		a, b *metricSummary
		want string
	}{
		{base(100, 101, 99, 100), base(104, 105, 103, 104), "ok"},
		{base(100, 101, 99, 100), base(120, 121, 119, 120), "regressed"},
		{base(100, 130, 80, 100), base(100, 101, 99, 100), "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Values, c.b.Values, got, c.want)
		}
	}
	higher := base(100, 101, 99, 100)
	higher.Better = "higher"
	if _, got := verdict(higher, base(80, 81, 79, 80)); got != "regressed" {
		t.Errorf("a drop of a higher-is-better metric = %s, want regressed", got)
	}
}
