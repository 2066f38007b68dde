package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/core"
	"vxa/internal/fault"
	"vxa/internal/obs"
	"vxa/internal/server"
	"vxa/internal/vmpool"
)

// ChaosRow summarizes one chaos pass: mixed decode/extract traffic
// driven closed-loop against vxad with the deterministic fault
// registry armed at a fixed rate, followed by a disarm-and-heal phase.
// The interesting figures are containment (every request resolves to a
// sanctioned status, latency stays bounded) and self-healing (how long
// until every decoder serves clean again once the faults stop).
type ChaosRow struct {
	InjectionRate float64 `json:"injection_rate"`
	Seed          uint64  `json:"seed"`
	Requests      int     `json:"requests"`
	Concurrency   int     `json:"concurrency"`

	// Outcome classes. OK are 200s with intact bodies; Truncated are
	// 200s whose stream was cut mid-flight (injected write faults and
	// watchdog kills after the header went out land here).
	OK           int `json:"ok"`
	Truncated    int `json:"truncated"`
	DecodeErrors int `json:"decode_errors"` // 422: traps, fuel, watchdog
	Canceled     int `json:"canceled"`      // 499: response-write faults
	ServerErrors int `json:"server_errors"` // 500: injected I/O faults
	Shed         int `json:"shed"`          // 503 + 504: lease faults, overload
	Quarantined  int `json:"quarantined"`   // 521: breaker fail-fast
	// TransportErrors are requests whose connection died before a
	// status line (a write fault can fire before the header goes out).
	TransportErrors int `json:"transport_errors"`

	// ShedRate is Shed/Requests; the graceful-degradation figure.
	ShedRate float64 `json:"shed_rate"`

	// Fault-registry and breaker activity over the pass.
	InjectedFaults uint64 `json:"injected_faults"`
	BreakerTrips   uint64 `json:"breaker_trips"`
	BreakerProbes  uint64 `json:"breaker_probes"`

	// Latency of every request, all outcomes included (fail-fast 521s
	// pull the low quantiles down; that is the point of the breaker).
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	Max  time.Duration `json:"max_ns"`

	// Recovery is how long after Disarm until every codec serves a
	// clean 200 again — open breakers must walk their probe backoff.
	Recovery time.Duration `json:"recovery_ns"`
}

// chaosSeed fixes the injection schedule so two chaos runs fail the
// same requests (the same property the soak test relies on).
const chaosSeed = 7

// chaosHealth is the breaker tuning for the chaos pass: production
// threshold, but a short probe backoff so the recovery figure measures
// healing mechanics rather than a 30-second default ceiling.
var chaosHealth = breaker.Config{
	Threshold:  vmpool.DefaultBreakerThreshold,
	Backoff:    250 * time.Millisecond,
	MaxBackoff: 2 * time.Second,
}

// ChaosBench drives `total` mixed requests (two thirds /v1/decode
// round-robined over the Table 1 codecs, one third /v1/extract) with
// `conc` closed-loop workers while the fault registry injects at
// `rate` across all five points, then disarms and measures recovery.
// The registry is process-global: callers must not run other
// benchmarks concurrently with this one.
func ChaosBench(rate float64, total, conc int) (ChaosRow, error) {
	if rate <= 0 || rate >= 1 {
		return ChaosRow{}, fmt.Errorf("bench: chaos rate must be in (0,1) (got %v)", rate)
	}
	if total < 1 {
		total = 2000
	}
	if conc < 1 {
		conc = 4
	}
	ws, err := ServerWorkloads()
	if err != nil {
		return ChaosRow{}, err
	}
	for _, w := range ws {
		if _, err := w.Codec.DecoderELF(); err != nil {
			return ChaosRow{}, err
		}
	}

	// Admission is sized past the worker count so the 503s in the row
	// come from injected lease faults and quarantine, not from a queue
	// deliberately too small for the harness's own concurrency.
	maxInFlight := runtime.GOMAXPROCS(0)
	if maxInFlight < 4 {
		maxInFlight = 4
	}
	srv := server.New(server.Config{
		MaxInFlight:  maxInFlight,
		MaxQueue:     4 * conc,
		QueueTimeout: time.Minute,
		Health:       chaosHealth,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// The extract workload: one deflate-compressed text member, so the
	// archive-read injection point (wrapped around the payload reader
	// on the extract path) sees traffic.
	raw := ws[0].Raw
	var abuf bytes.Buffer
	aw := core.NewWriter(&abuf, core.WriterOptions{})
	if err := aw.AddFile("doc.txt", raw, 0644); err != nil {
		return ChaosRow{}, err
	}
	if err := aw.Close(); err != nil {
		return ChaosRow{}, err
	}
	arc := abuf.Bytes()
	extractURL := ts.URL + "/v1/extract?entry=doc.txt"

	// one request; returns HTTP status (0 = transport error) and
	// whether a 200 body arrived intact.
	shoot := func(url string, payload []byte, wantLen int) (status int, intact bool) {
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			return 0, false
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, false
		}
		return resp.StatusCode, err == nil && int(n) == wantLen
	}
	clean := func(w Workload) bool {
		st, ok := shoot(ts.URL+"/v1/decode?codec="+w.Codec.Name, w.Encoded, len(w.Raw))
		return st == http.StatusOK && ok
	}

	// Prime every snapshot disarmed: the pass measures serving under
	// faults, not cold builds racing the injector.
	for _, w := range ws {
		if !clean(w) {
			return ChaosRow{}, fmt.Errorf("bench: %s prime failed", w.Codec.Name)
		}
	}
	if st, ok := shoot(extractURL, arc, len(raw)); st != http.StatusOK || !ok {
		return ChaosRow{}, fmt.Errorf("bench: extract prime failed (status %d)", st)
	}

	fault.Arm(fault.Config{Rate: rate, Seed: chaosSeed, Points: fault.AllPoints()})
	defer fault.Disarm()

	hist := &obs.Histogram{}
	var mu sync.Mutex
	counts := make(map[int]int)
	var truncated, next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				w := ws[i%len(ws)]
				url, payload, wantLen := ts.URL+"/v1/decode?codec="+w.Codec.Name, w.Encoded, len(w.Raw)
				if i%3 == 2 {
					url, payload, wantLen = extractURL, arc, len(raw)
				}
				t0 := time.Now()
				st, intact := shoot(url, payload, wantLen)
				hist.Observe(time.Since(t0))
				if st == http.StatusOK && !intact {
					truncated.Add(1)
				}
				mu.Lock()
				counts[st]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	fstats := fault.Stats()
	fault.Disarm()

	// Heal: every codec must serve clean again; open breakers walk
	// their probe backoff here. Bounded so a wedged server fails the
	// bench instead of hanging it.
	healStart := time.Now()
	for _, w := range ws {
		for !clean(w) {
			if time.Since(healStart) > 30*time.Second {
				return ChaosRow{}, fmt.Errorf("bench: %s did not heal within 30s of disarm", w.Codec.Name)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	recovery := time.Since(healStart)

	var injected uint64
	for _, p := range fstats.Points {
		injected += p.Injected
	}
	health := srv.Cache().Health()
	snap := hist.Snapshot()
	row := ChaosRow{
		InjectionRate:   rate,
		Seed:            chaosSeed,
		Requests:        total,
		Concurrency:     conc,
		OK:              counts[http.StatusOK] - int(truncated.Load()),
		Truncated:       int(truncated.Load()),
		DecodeErrors:    counts[http.StatusUnprocessableEntity],
		Canceled:        counts[server.StatusClientClosedRequest],
		ServerErrors:    counts[http.StatusInternalServerError],
		Shed:            counts[http.StatusServiceUnavailable] + counts[http.StatusGatewayTimeout],
		Quarantined:     counts[server.StatusDecoderQuarantined],
		TransportErrors: counts[0],
		InjectedFaults:  injected,
		BreakerTrips:    health.Trips,
		BreakerProbes:   health.Probes,
		Mean:            snap.Mean(),
		P50:             snap.Quantile(0.50),
		P90:             snap.Quantile(0.90),
		P99:             snap.Quantile(0.99),
		Max:             time.Duration(snap.Max),
		Recovery:        recovery,
	}
	row.ShedRate = float64(row.Shed) / float64(total)
	return row, nil
}
