package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vxa/internal/server"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
)

// serveWorkload is serve_closed: an in-process vxad (server.New behind
// httptest) with a warm snapshot cache, decoding serving-size streams
// posted to /v1/decode by GOMAXPROCS clients, each sending its next request
// when the reply arrives — saturation capacity. Its traced run adds the
// open-loop view: Poisson arrivals at a ladder of fixed rates, latency
// counted from the scheduled send time (see ladder).
type serveWorkload struct {
	in     *inputSet
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	order  []*stream  // balanced, shuffled request sequence
	rng    *rand.Rand // arrival times of the open loop
}

// ladderRates are the open loop's arrival rates, requests a second; each
// runs for ladderStep. About a sixth to two fifths of what the closed loop
// sustains on two cores today.
var ladderRates = []float64{100, 200, 250}

const ladderStep = 3 * time.Second

// latencyLimit is the p99 limit a rate must meet to count as sustained.
const latencyLimit = 50 * time.Millisecond

func (w *serveWorkload) concurrent() bool { return true }

func (w *serveWorkload) digests() map[string]string { return w.in.digests() }

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

func (w *serveWorkload) setup(seed int64) error {
	// Four serving-size streams per decoder, 1-8 KiB raw.
	in, err := ladderInputs(seed, 4, 1<<10, 8<<10)
	if err != nil {
		return err
	}
	w.in = in
	w.srv = server.New(server.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}}
	w.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	// The request sequence is balanced: every block of len(streams)
	// requests holds each stream once, in a shuffled order that like the
	// rest of the set's shape does not depend on the seed, so the mix of
	// decoders and sizes is the same in every slice and on every seed.
	const blocks = 4096
	shape := rand.New(rand.NewSource(structureSeed))
	w.order = make([]*stream, 0, blocks*len(in.streams))
	for b := 0; b < blocks; b++ {
		perm := shape.Perm(len(in.streams))
		for _, i := range perm {
			w.order = append(w.order, in.streams[i])
		}
	}
	// Warm-up: every stream three times, checked, so each decoder's
	// snapshot is cached and its translation cache absorbed.
	for rep := 0; rep < 3; rep++ {
		for _, s := range in.streams {
			if _, err := w.post(s); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// post sends one stream to /v1/decode and checks the reply: status 200
// and the expected output digest. The time covers request to last byte.
func (w *serveWorkload) post(s *stream) (time.Duration, error) {
	start := time.Now()
	resp, err := w.client.Post(w.ts.URL+"/v1/decode?codec="+s.dec.codec.Name, "application/octet-stream", bytes.NewReader(s.enc))
	if err != nil {
		return 0, err
	}
	out := newCheckedOutput()
	_, err = io.Copy(out, resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return dur, err
	}
	if resp.StatusCode != http.StatusOK {
		return dur, fmt.Errorf("%s: HTTP %d", s.id, resp.StatusCode)
	}
	return dur, out.verify(s)
}

func (w *serveWorkload) measure(d time.Duration, rec *recorder) {
	w.closedLoop(d, runtime.GOMAXPROCS(0), rec, nil)
}

// closedLoop runs `clients` callers for d; each takes the next stream of
// the sequence when its previous reply has arrived. onOp, when set, sees
// every completed request (the traced run records spans there).
func (w *serveWorkload) closedLoop(d time.Duration, clients int, rec *recorder, onOp func(i int, start time.Time, dur time.Duration)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				i := int(next.Add(1) - 1)
				s := w.order[i%len(w.order)]
				start := time.Now()
				dur, err := w.post(s)
				if onOp != nil {
					onOp(i, start, dur)
				}
				// The native decoder runs on the same bytes right after
				// the reply, so slowdown_x divides two times taken under
				// the same host conditions. It costs the client about 1%
				// of a request's time before it sends the next.
				native, nerr := timeNative(s)
				if err == nil {
					err = nerr
				}
				rec.add(op{dec: s.dec.idx, pass: i, start: start.Sub(t0), dur: dur, native: native, key: s.id, bytes: int64(s.wantLen)}, err)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends the sequence at seeded Poisson arrival times of the
// given rate for d. At most GOMAXPROCS requests are in flight: a request
// due while all senders are busy waits, and the wait counts, because
// latency runs from the scheduled time. How late requests actually left
// is kept in rec.lateP99.
func (w *serveWorkload) openLoop(d time.Duration, rate float64, rec *recorder) (p50, p99 float64, backlog time.Duration) {
	var sched []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(w.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		sched = append(sched, t)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat, late []float64
	var lastLate time.Duration
	t0 := time.Now()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := w.order[i%len(w.order)]
				sent := time.Now()
				_, err := w.post(s)
				dur := time.Since(due)
				mu.Lock()
				lat = append(lat, ms(dur))
				late = append(late, float64(sent.Sub(due)))
				if i == len(sched)-1 {
					lastLate = sent.Sub(due)
				}
				mu.Unlock()
				rec.add(op{dec: s.dec.idx, pass: i, start: sched[i], dur: dur, bytes: int64(s.wantLen)}, err)
			}
		}()
	}
	wg.Wait()
	rec.lateP99 = time.Duration(quantile(late, 0.99))
	return quantile(lat, 0.50), quantile(lat, 0.99), lastLate
}

// ladder is the open-loop view of the same server and mix: latency at
// each of ladderRates and the highest rate that meets latencyLimit at the
// 99th percentile with no backlog left when the step ends. It is part of
// the traced run only. As a workload of its own it could not carry a
// bound: an open loop amplifies every slow spell of a shared host (the
// queue grows while the host is slow), and in two of seven calibration
// sets its run-to-run spread was 26-66% on every metric, ratios included.
func (w *serveWorkload) ladder(rec *recorder, acc *layerAcc) {
	okRate, sustained := 0.0, true
	for _, rate := range ladderRates {
		step := &recorder{}
		p50, p99, backlog := w.openLoop(ladderStep, rate, step)
		switch rate {
		case 100:
			acc.set("server.p50_ms.r100", p50)
			acc.set("server.p99_ms.r100", p99)
		case 250:
			acc.set("server.p99_ms.r250", p99)
		}
		// A rate counts only while every lower one met the limit too.
		if sustained = sustained && p99 <= ms(latencyLimit) && backlog < latencyLimit; sustained {
			okRate = rate
		}
		rec.absorb(step)
	}
	acc.set("server.max_rate_ok", okRate)
}

func (w *serveWorkload) traced(d time.Duration, rec *recorder, tr *tracer, acc *layerAcc) {
	if err := setupFacts(acc, w.in); err != nil {
		rec.add(op{}, err)
	}
	var mu sync.Mutex
	record := func(i int, start time.Time, dur time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		from := int64(start.Sub(tr.origin))
		tr.spans = append(tr.spans, span{Name: rootSpan, Op: i, Parent: -1, Start: from, End: from + int64(dur)})
	}
	m0 := w.srv.MetricsSnapshot()
	w.closedLoop(d, runtime.GOMAXPROCS(0), rec, record)
	m1 := w.srv.MetricsSnapshot()
	w.serverFacts(acc, tr, m0, m1)
	w.ladder(rec, acc)
	if err := w.httpOverhead(acc); err != nil {
		rec.add(op{}, err)
	}
}

// serverFacts turns the daemon's own counters over the traced window
// into per-request figures: its stage attribution, admission outcomes,
// cache behaviour and the pooled engine's counters.
func (w *serveWorkload) serverFacts(acc *layerAcc, tr *tracer, m0, m1 server.Metrics) {
	reqs := float64(m1.Endpoints["decode"].Count - m0.Endpoints["decode"].Count)
	if reqs == 0 {
		return
	}
	var staged float64
	for _, st := range serverStages {
		sum := float64(m1.Stages[st].SumNS - m0.Stages[st].SumNS)
		staged += sum
		acc.set("server.stage_ms."+st, sum/1e6/reqs)
	}
	var wall float64
	for _, s := range tr.spans {
		wall += float64(s.End - s.Start)
	}
	if wall > 0 {
		// What the client waited that no server stage accounts for: HTTP
		// parsing, body read, connection handling, scheduling.
		acc.set("trace.unattributed_share", 1-staged/wall)
	}
	acc.set("server.shed", float64(m1.Admission.Shed+m1.Admission.Expired-m0.Admission.Shed-m0.Admission.Expired))
	acc.set("server.errors", float64(m1.Errors-m0.Errors))
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	if total := hits + float64(m1.Cache.Misses-m0.Cache.Misses); total > 0 {
		acc.set("vmpool.snapcache_hit_share", hits/total)
	}
	p0, p1 := m0.Cache.Pool, m1.Cache.Pool
	acc.set("vmpool.resets", float64(p1.Resets-p0.Resets))
	acc.set("vmpool.resumes", float64(p1.Resumes-p0.Resumes))
	acc.set("vmpool.builds", float64(p1.Builds-p0.Builds))
	acc.set("vmpool.discards", float64(p1.Discards-p0.Discards))
	v0, v1 := m0.Cache.VM, m1.Cache.VM
	acc.ratio("vm.tier2_step_share", float64(v1.Tier2Steps-v0.Tier2Steps), float64(v1.Steps-v0.Steps))
	acc.ratio("vm.tier2_compiled_per_stream", float64(v1.Tier2Compiled-v0.Tier2Compiled), reqs)
	acc.ratio("vm.translate_us_per_stream", float64(v1.TranslateNS-v0.TranslateNS)/1e3, reqs)
	acc.ratio("vm.blocks_built_per_op", float64(v1.BlocksBuilt-v0.BlocksBuilt), reqs)
	acc.ratio("vm.superblocks_formed_per_op", float64(v1.SuperblocksFormed-v0.SuperblocksFormed), reqs)
	acc.ratio("vm.syscalls_per_kb", float64(v1.Syscalls-v0.Syscalls), float64(m1.BytesOut-m0.BytesOut)/1024)
	acc.ratio("vm.flags_materialized_per_kuop", float64(v1.FlagsMaterialized-v0.FlagsMaterialized), float64(v1.UopsExecuted-v0.UopsExecuted)/1000)
}

// httpOverhead compares, stream by stream and with one caller, a request
// through the daemon with the same lease-run-release done in process on
// a cache of the benchmark's own: the difference is what HTTP, admission
// and the handler add around the decode.
func (w *serveWorkload) httpOverhead(acc *layerAcc) error {
	ctx := context.Background()
	cache := vmpool.NewSnapCache(vmpool.SnapCacheConfig{VM: vm.Config{MemSize: decoderMemSize}})
	direct := func(s *stream) (time.Duration, error) {
		out := newCheckedOutput()
		start := time.Now()
		lease, err := cache.Get(ctx, vmpool.HashELF(s.dec.elf), 0644, 0, func() ([]byte, error) { return s.dec.elf, nil })
		if err != nil {
			return 0, err
		}
		reusable, err := lease.VM().RunStream(ctx, bytes.NewReader(s.enc), out, nil, vm.StreamFuel(len(s.enc)))
		lease.Release(reusable && err == nil)
		dur := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.id, err)
		}
		return dur, out.verify(s)
	}
	streams := append([]*stream(nil), w.in.streams...)
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	var diffs []float64
	for _, s := range streams {
		var viaHTTP, inProc []float64
		for rep := 0; rep < 6; rep++ {
			d, err := w.post(s)
			if err != nil {
				return err
			}
			viaHTTP = append(viaHTTP, us(d))
			if d, err = direct(s); err != nil {
				return err
			}
			if rep > 0 { // the first in-process run of a decoder builds its snapshot
				inProc = append(inProc, us(d))
			}
		}
		diffs = append(diffs, median(viaHTTP)-median(inProc))
	}
	acc.set("server.http_overhead_us", median(diffs))
	return nil
}
