package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"vxa/internal/obs"
	"vxa/internal/server"
)

// LoadRow is one codec's open-loop load measurement against a running
// vxad or vxrouter: latency percentiles under Poisson arrivals at a fixed
// offered rate. Sanctioned non-200 outcomes are broken out — a shed
// (503/504/521 with Retry-After), a local hold-down (nothing sent; the
// client honored earlier backpressure) and an honest truncation are the
// protocol working, not failures, and only Errors counts the
// unsanctioned remainder.
type LoadRow struct {
	Codec        string        `json:"codec"`
	TargetRate   float64       `json:"target_rate_per_sec"`
	AchievedRate float64       `json:"achieved_rate_per_sec"`
	Duration     time.Duration `json:"duration_ns"`
	Concurrency  int           `json:"concurrency"`
	Requests     int           `json:"requests"`
	Errors       int           `json:"errors"`
	Sheds        int           `json:"sheds"`
	Held         int           `json:"held"`
	Truncated    int           `json:"truncated"`
	Mean         time.Duration `json:"mean_ns"`
	P50          time.Duration `json:"p50_ns"`
	P90          time.Duration `json:"p90_ns"`
	P99          time.Duration `json:"p99_ns"`
	Max          time.Duration `json:"max_ns"`
}

// loadSeed fixes the arrival-process randomness so two runs of the
// harness offer the same request schedule (run-to-run latency deltas
// then reflect the code, not the dice).
const loadSeed = 1

// loadOutcome classifies one driven request.
type loadOutcome int

const (
	outcomeOK loadOutcome = iota
	outcomeShed
	outcomeHeld
	outcomeTruncated
	outcomeError
	numOutcomes
)

// openLoopResult is what the open-loop engine hands back: the latency
// distribution plus the outcome tally.
type openLoopResult struct {
	Requests     int
	Outcomes     [numOutcomes]int
	AchievedRate float64
	Snap         obs.HistSnapshot
}

// runOpenLoop is the open-loop engine: a Poisson arrival process at
// `rate` requests/second for `dur`, at most `conc` requests in flight,
// each arrival driven through `post`. Open loop means latency is
// measured from each request's *scheduled* arrival, not its dispatch:
// when the server falls behind, the queueing delay lands in the
// percentiles instead of being hidden by a coordinated-omission client
// that only asks as fast as the server answers. Held-down arrivals never
// touch the wire, so they are tallied but not observed into the latency
// distribution.
func runOpenLoop(rate float64, dur time.Duration, conc int, post func() loadOutcome) (openLoopResult, error) {
	// Pre-draw the arrival schedule so the dispatch loop does no
	// arithmetic under time pressure.
	rng := rand.New(rand.NewSource(loadSeed))
	var offsets []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		offsets = append(offsets, t)
	}
	if len(offsets) == 0 {
		return openLoopResult{}, fmt.Errorf("bench: no arrivals in %v at %v req/s", dur, rate)
	}

	hist := &obs.Histogram{}
	var mu sync.Mutex
	var outcomes [numOutcomes]int
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for _, off := range offsets {
		sched := start.Add(off)
		if sleep := time.Until(sched); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out := post()
			mu.Lock()
			outcomes[out]++
			mu.Unlock()
			if out != outcomeHeld {
				hist.Observe(time.Since(sched))
			}
		}()
	}
	wg.Wait()

	return openLoopResult{
		Requests:     len(offsets),
		Outcomes:     outcomes,
		AchievedRate: float64(len(offsets)) / time.Since(start).Seconds(),
		Snap:         hist.Snapshot(),
	}, nil
}

// decodePoster builds the per-arrival request function: one POST to a
// /v1/decode endpoint through the shed-aware client, classified into
// the outcome taxonomy.
func decodePoster(c *server.Client, url string, encoded []byte, wantLen int) func() loadOutcome {
	return func() loadOutcome {
		resp, err := c.Post(url, "application/octet-stream", encoded)
		if errors.Is(err, server.ErrHeldDown) {
			return outcomeHeld
		}
		if err != nil {
			return outcomeError
		}
		n, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if server.IsShedStatus(resp.StatusCode) {
			return outcomeShed
		}
		if resp.StatusCode != http.StatusOK {
			return outcomeError
		}
		if cerr != nil {
			return outcomeTruncated // committed 200 cut mid-stream: honest
		}
		if int(n) != wantLen {
			return outcomeError
		}
		return outcomeOK
	}
}

// LoadBenchTarget drives an already-running vxad or vxrouter at
// `target` (e.g. "http://127.0.0.1:7787") with the open-loop schedule,
// one pass per codec of ServerWorkloads. This is how the fleet smoke
// test exercises a real router+shards topology; the interesting columns
// are the outcome tally and the percentiles.
func LoadBenchTarget(target string, rate float64, dur time.Duration, conc int) ([]LoadRow, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("bench: load rate must be positive (got %v)", rate)
	}
	if dur <= 0 {
		return nil, fmt.Errorf("bench: load duration must be positive (got %v)", dur)
	}
	if conc < 1 {
		conc = 2 * runtime.GOMAXPROCS(0)
	}
	ws, err := ServerWorkloads()
	if err != nil {
		return nil, err
	}
	var rows []LoadRow
	for _, w := range ws {
		url := target + "/v1/decode?codec=" + w.Codec.Name
		client := &server.Client{}
		// Prime the target's snapshot cache so the measured regime is the
		// steady state; a shed prime is tolerated (the run itself will
		// classify), anything else fatal.
		if resp, err := client.Post(url, "application/octet-stream", w.Encoded); err != nil {
			if !errors.Is(err, server.ErrHeldDown) {
				return nil, fmt.Errorf("bench: %s prime against %s: %w", w.Codec.Name, target, err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && !server.IsShedStatus(resp.StatusCode) {
				return nil, fmt.Errorf("bench: %s prime against %s: status %d", w.Codec.Name, target, resp.StatusCode)
			}
		}
		res, err := runOpenLoop(rate, dur, conc, decodePoster(client, url, w.Encoded, len(w.Raw)))
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.Codec.Name, err)
		}
		rows = append(rows, LoadRow{
			Codec:        w.Codec.Name,
			TargetRate:   rate,
			AchievedRate: res.AchievedRate,
			Duration:     dur,
			Concurrency:  conc,
			Requests:     res.Requests,
			Errors:       res.Outcomes[outcomeError],
			Sheds:        res.Outcomes[outcomeShed],
			Held:         res.Outcomes[outcomeHeld],
			Truncated:    res.Outcomes[outcomeTruncated],
			Mean:         res.Snap.Mean(),
			P50:          res.Snap.Quantile(0.50),
			P90:          res.Snap.Quantile(0.90),
			P99:          res.Snap.Quantile(0.99),
			Max:          time.Duration(res.Snap.Max),
		})
	}
	return rows, nil
}
