package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vxa/internal/codec"
)

// encodeDeflate produces a deflate-coded stream for /v1/decode tests.
func encodeDeflate(t *testing.T, raw []byte) []byte {
	t.Helper()
	c, ok := codec.ByName("deflate")
	if !ok {
		t.Fatal("deflate codec not registered")
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// ---------- Prometheus exposition self-check ----------

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// promLineRe splits a sample line into name, optional label block,
	// and value.
	promLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	promPairRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// validatePromText is the promtool-style format check: every line must
// be a comment or a well-formed sample, metric and label names must be
// legal, every TYPE is declared once, and no series (name + full label
// set) may appear twice.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	series := make(map[string]bool)
	typed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("blank line in exposition")
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !promMetricRe.MatchString(parts[2]) {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("duplicate TYPE declaration for %s", parts[2])
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Errorf("unknown metric type %q in %q", parts[3], line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		m := promLineRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if !promMetricRe.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		var fv float64
		if _, err := fmt.Sscanf(value, "%g", &fv); err != nil {
			t.Errorf("bad sample value %q in %q", value, line)
		}
		for _, pair := range promPairRe.FindAllStringSubmatch(labels, -1) {
			if !promLabelRe.MatchString(pair[1]) {
				t.Errorf("bad label name %q in %q", pair[1], line)
			}
		}
		key := name + labels
		if series[key] {
			t.Errorf("duplicate series: %s", key)
		}
		series[key] = true
		// Every sample's family must carry a TYPE declaration
		// (summaries declare under the base name).
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Errorf("series %s has no TYPE declaration", name)
			}
		}
	}
	if len(series) == 0 {
		t.Error("exposition contains no samples")
	}
}

// TestMetricsPrometheusFormat drives real traffic, scrapes the text
// exposition both ways a scraper can ask for it, and validates the
// format end to end.
func TestMetricsPrometheusFormat(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 12)
	enc := encodeDeflate(t, raw)
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", enc)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, raw) {
			t.Fatalf("decode %d: status %d, %d bytes", i, resp.StatusCode, len(body))
		}
	}
	// One client mistake for the 4xx counters.
	if resp, _ := post(t, ts.URL+"/v1/decode?codec=nope", enc); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown codec: status %d", resp.StatusCode)
	}

	for _, mode := range []struct {
		name, query, accept string
	}{
		{"query-param", "?format=prometheus", ""},
		{"accept-header", "", "text/plain;version=0.0.4"},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/metrics"+mode.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mode.accept != "" {
			req.Header.Set("Accept", mode.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: Content-Type = %q", mode.name, ct)
		}
		text := string(body)
		validatePromText(t, text)
		for _, want := range []string{
			"vxad_requests_total",
			`vxad_request_duration_seconds{endpoint="decode",quantile="0.5"}`,
			`vxad_codec_duration_seconds{codec="deflate",quantile="0.99"}`,
			`vxad_stage_duration_seconds{stage="execute"`,
			`vxad_responses_total{class="4xx"}`,
			"vxad_snapcache_hits_total",
			"vxad_ready 1",
			"vxad_draining 0",
			"vxad_admission_shed_cold_total",
			"vxad_snapcache_quarantined_total",
			"vxad_snapcache_shrinks_total",
			"vxad_breaker_open",
			"vxad_breaker_trips_total",
			"vxad_breaker_probes_total",
			`vxad_decoder_failures_total{class="trap"}`,
			`vxad_decoder_failures_total{class="watchdog"}`,
			"vxad_engine_steps_total",
			"vxad_engine_tier2_compiled_total",
			"vxad_engine_tier2_executed_total",
			"vxad_engine_tier2_exits_total",
			"vxad_engine_tier2_links_total",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("%s: missing %q in exposition", mode.name, want)
			}
		}
	}

	// The JSON default is unchanged by the new format.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("default /metrics no longer JSON: %v", err)
	}
}

// ---------- JSON latency surfaces ----------

// TestMetricsLatencyHistograms pins the JSON document's new shape:
// per-endpoint, per-codec and per-stage summaries with populated
// quantiles, and status-class counters that classify a 4xx as a client
// error rather than an Errors increment.
func TestMetricsLatencyHistograms(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 12)
	enc := encodeDeflate(t, raw)
	const reqs = 4
	for i := 0; i < reqs; i++ {
		if resp, _ := post(t, ts.URL+"/v1/decode?codec=deflate", enc); resp.StatusCode != http.StatusOK {
			t.Fatalf("decode: status %d", resp.StatusCode)
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/decode?codec=nope", enc); resp.StatusCode != http.StatusNotFound {
		t.Fatal("expected 404")
	}
	// A starved fuel budget produces a typed core.Error for the
	// per-kind counter.
	arc := buildArchive(t, map[string][]byte{"doc.txt": raw})
	if resp, _ := post(t, ts.URL+"/v1/extract?entry=doc.txt&fuel=100", arc); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("starved extract: status %d, want 422", resp.StatusCode)
	}

	m := s.MetricsSnapshot()
	ep, ok := m.Endpoints["decode"]
	if !ok || ep.Count != reqs+1 {
		t.Fatalf("endpoint decode stats = %+v (want count %d)", ep, reqs+1)
	}
	if ep.P50NS <= 0 || ep.P99NS < ep.P50NS || ep.MaxNS < ep.P99NS {
		t.Fatalf("endpoint quantiles not ordered: %+v", ep)
	}
	// 4 decodes + the starved extract (its codec is resolved before the
	// fuel check, so failed requests still count toward codec latency).
	cd, ok := m.Codecs["deflate"]
	if !ok || cd.Count != reqs+1 {
		t.Fatalf("codec deflate stats = %+v (want count %d)", cd, reqs+1)
	}
	for _, stage := range []string{"queue", "translate", "execute", "write"} {
		if st, ok := m.Stages[stage]; !ok || st.Count == 0 {
			t.Errorf("stage %q not populated: %+v", stage, m.Stages)
		}
	}
	if m.Errors != 0 {
		t.Errorf("Errors = %d after only 2xx/4xx traffic (must count 5xx only)", m.Errors)
	}
	if m.StatusClasses["2xx"] != reqs || m.StatusClasses["4xx"] != 2 {
		t.Errorf("status classes = %v", m.StatusClasses)
	}
	if m.ErrorKinds["fuel exhausted"] == 0 {
		t.Errorf("error kinds = %v, want a fuel-exhausted count", m.ErrorKinds)
	}
}

// ---------- concurrent scrape stress ----------

// TestMetricsConcurrentScrape runs decode traffic while hammering both
// exposition formats; under -race this is the proof that the scrape
// path takes consistent snapshots of live counters.
func TestMetricsConcurrentScrape(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 10)
	enc := encodeDeflate(t, raw)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/decode?codec=deflate", "application/octet-stream", bytes.NewReader(enc))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	scrape := func(url string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	wg.Add(2)
	go scrape(ts.URL + "/metrics")
	go scrape(ts.URL + "/metrics?format=prometheus")
	// Let scrapers finish first, then stop traffic: 2 (writers) + 2
	// (scrapers) are in wg, so close stop once scrapes are done.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done

	// A final scrape must still validate cleanly.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	validatePromText(t, string(body))
}

// ---------- slow-request logging ----------

// TestSlowRequestLog: a request past SlowThreshold logs at Warn with
// the per-stage timeline; fast requests log at Info without it.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedBuffer{buf: &buf, mu: &mu}, nil))
	s := New(Config{
		MemSize:       16 << 20,
		Logger:        logger,
		SlowThreshold: time.Nanosecond, // everything is slow
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := testText(1 << 10)
	if resp, _ := post(t, ts.URL+"/v1/decode?codec=deflate", encodeDeflate(t, raw)); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d", resp.StatusCode)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("no slow-request warning in log:\n%s", out)
	}
	if !strings.Contains(out, "stages=") || !strings.Contains(out, "execute=") {
		t.Fatalf("slow log missing stage timeline:\n%s", out)
	}
	if !strings.Contains(out, "endpoint=decode") || !strings.Contains(out, "codec=deflate") {
		t.Fatalf("slow log missing endpoint/codec attrs:\n%s", out)
	}
}

// lockedBuffer serializes concurrent handler writes during tests.
type lockedBuffer struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// TestAccessLog: with a threshold that nothing crosses, requests log at
// Info without a stage dump.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedBuffer{buf: &buf, mu: &mu}, nil))
	s := New(Config{MemSize: 16 << 20, Logger: logger, SlowThreshold: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, `msg=request`) || !strings.Contains(out, "endpoint=healthz") {
		t.Fatalf("no access log line:\n%s", out)
	}
	if strings.Contains(out, "level=WARN") {
		t.Fatalf("fast request logged as slow:\n%s", out)
	}
}
