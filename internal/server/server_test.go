package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxa/internal/codec"
	"vxa/internal/core"

	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/deflate"
)

// ---------- admission controller ----------

// TestAdmissionBound is the acceptance check for the in-flight bound:
// many times more concurrent acquirers than capacity, none may observe
// more than Capacity running at once, and none may deadlock.
func TestAdmissionBound(t *testing.T) {
	const capacity, workers, rounds = 3, 24, 8
	a := NewAdmission(capacity, workers*rounds)

	var running, maxRunning atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				release, err := a.Acquire(context.Background())
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				n := running.Add(1)
				for {
					m := maxRunning.Load()
					if n <= m || maxRunning.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				running.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if got := maxRunning.Load(); got > capacity {
		t.Fatalf("observed %d concurrent streams, bound is %d", got, capacity)
	}
	st := a.Stats()
	if st.Admitted != workers*rounds {
		t.Fatalf("admitted = %d, want %d", st.Admitted, workers*rounds)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("controller not drained: %+v", st)
	}
}

// TestAdmissionShedAndExpire pins the two rejection paths: a full queue
// sheds immediately, a queued request expires at its deadline.
func TestAdmissionShedAndExpire(t *testing.T) {
	a := NewAdmission(1, 1)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one queue slot with a waiter that will expire.
	expired := make(chan error, 1)
	queued := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		close(queued)
		_, err := a.Acquire(ctx)
		expired <- err
	}()
	<-queued
	// Give the waiter time to join the queue, then overflow it.
	deadline := time.Now().Add(time.Second)
	for a.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("overflow acquire: err = %v, want ErrOverloaded", err)
	}
	if err := <-expired; err != ErrExpired {
		t.Fatalf("queued acquire: err = %v, want ErrExpired", err)
	}
	release()
	st := a.Stats()
	if st.Shed != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want one shed and one expired", st)
	}
}

// ---------- HTTP integration ----------

func buildArchive(t *testing.T, files map[string][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := core.NewWriter(&buf, core.WriterOptions{})
	for name, data := range files {
		if err := w.AddFile(name, data, 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testText(n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, "the archive decoder stream compress buffer format "...)
	}
	return out[:n]
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerEndToEnd(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	text := testText(1 << 14)
	archive := buildArchive(t, map[string][]byte{"doc.txt": text})

	// Listing.
	resp, body := post(t, ts.URL+"/v1/entries", archive)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entries: status %d: %s", resp.StatusCode, body)
	}
	var entries []entryInfo
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "doc.txt" || entries[0].Codec != "deflate" {
		t.Fatalf("entries = %+v", entries)
	}

	// Extraction, twice: the second request must hit the snapshot cache.
	for i := 0; i < 2; i++ {
		resp, body = post(t, ts.URL+"/v1/extract?entry=doc.txt", archive)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("extract %d: status %d: %s", i, resp.StatusCode, body)
		}
		if !bytes.Equal(body, text) {
			t.Fatalf("extract %d: decoded %d bytes, want %d", i, len(body), len(text))
		}
	}
	cs := s.Cache().Stats()
	if cs.Misses != 1 || cs.Hits < 1 {
		t.Fatalf("cache stats after two extracts: %+v, want 1 miss and >=1 hit", cs)
	}

	// Unknown entry and malformed archive.
	if resp, _ = post(t, ts.URL+"/v1/extract?entry=nope", archive); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing entry: status %d, want 404", resp.StatusCode)
	}
	if resp, _ = post(t, ts.URL+"/v1/extract?entry=doc.txt", []byte("not a zip")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad archive: status %d, want 400", resp.StatusCode)
	}

	// Verify.
	resp, body = post(t, ts.URL+"/v1/verify", archive)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, body)
	}
	var vr struct {
		Entries int `json:"entries"`
		Failed  int `json:"failed"`
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Entries != 1 || vr.Failed != 0 {
		t.Fatalf("verify = %+v", vr)
	}

	// Raw stream decode through a built-in codec.
	c, _ := codec.ByName("deflate")
	var enc bytes.Buffer
	if err := c.Encode(&enc, text); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/decode?codec=deflate", enc.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, text) {
		t.Fatalf("decode: got %d bytes, want %d", len(body), len(text))
	}
	if resp, _ = post(t, ts.URL+"/v1/decode?codec=nope", enc.Bytes()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown codec: status %d, want 404", resp.StatusCode)
	}
	// Corrupt stream: the sandbox contains the failure, 422 comes back.
	if resp, _ = post(t, ts.URL+"/v1/decode?codec=deflate", []byte{0xff, 0xfe, 0xfd}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt stream: status %d, want 422", resp.StatusCode)
	}

	// Metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var m Metrics
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, mbody)
	}
	if m.Requests == 0 || m.Cache.Misses == 0 || m.Cache.VM.Steps == 0 {
		t.Fatalf("metrics missing counters: %s", mbody)
	}
	// The optimizer counters ride the same aggregated engine stats.
	if m.Cache.VM.UopsFused == 0 || m.Cache.VM.FlagsElided == 0 {
		t.Fatalf("metrics missing optimizer counters: %s", mbody)
	}
}

// TestServerOneLineAcrossModes: an archive whose two entries share one
// decoder under two security modes decodes both byte-identically from
// one snapshot-cache line: the scrape shows one miss and one entry.
func TestServerOneLineAcrossModes(t *testing.T) {
	s := New(Config{MemSize: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	files := map[string][]byte{"public.txt": testText(1 << 13), "private.txt": testText(3 << 12)}
	modes := map[string]uint32{"public.txt": 0644, "private.txt": 0600}
	var buf bytes.Buffer
	w := core.NewWriter(&buf, core.WriterOptions{})
	for _, name := range []string{"public.txt", "private.txt"} {
		if err := w.AddFile(name, files[name], modes[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()

	resp, body := post(t, ts.URL+"/v1/entries", archive)
	var entries []entryInfo
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &entries) != nil {
		t.Fatalf("entries: status %d: %s", resp.StatusCode, body)
	}
	for _, e := range entries {
		if e.Codec != "deflate" || e.Mode&0777 != modes[e.Name] {
			t.Fatalf("entries = %+v, want both deflate under their own modes", entries)
		}
	}
	for _, name := range []string{"public.txt", "private.txt", "public.txt"} {
		resp, body := post(t, ts.URL+"/v1/extract?entry="+name, archive)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, files[name]) {
			t.Fatalf("extract %s: status %d, %d bytes, want %d", name, resp.StatusCode, len(body), len(files[name]))
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"vxad_snapcache_misses_total 1", "vxad_snapcache_entries 1"} {
		if !strings.Contains("\n"+string(mbody), "\n"+want+"\n") {
			t.Errorf("scrape lacks %q: one decoder under two modes is one line", want)
		}
	}
}

// TestServerAdmissionUnderBurst is the end-to-end half of the admission
// acceptance criterion: N x capacity concurrent requests against a
// 2-slot server neither deadlock nor exceed the in-flight bound, and
// every request is either served or cleanly shed.
func TestServerAdmissionUnderBurst(t *testing.T) {
	const capacity = 2
	s := New(Config{
		MemSize:      16 << 20,
		MaxInFlight:  capacity,
		MaxQueue:     1024, // roomy queue: everything should eventually run
		QueueTimeout: time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	text := testText(1 << 15)
	c, _ := codec.ByName("deflate")
	var enc bytes.Buffer
	if err := c.Encode(&enc, text); err != nil {
		t.Fatal(err)
	}
	payload := enc.Bytes()

	// Sample the in-flight gauge during the burst.
	stop := make(chan struct{})
	var maxSeen atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(s.Admission().InFlight()); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const burst = 8 * capacity
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", payload)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, text) {
				errs <- fmt.Errorf("bad payload: %d bytes", len(body))
			}
		}()
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := maxSeen.Load(); got > capacity {
		t.Fatalf("observed %d in-flight streams, bound is %d", got, capacity)
	}
	st := s.Admission().Stats()
	if st.Admitted != burst {
		t.Fatalf("admitted = %d, want %d", st.Admitted, burst)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after the burst, want 0", st.InFlight)
	}
}

// TestServerShedsWhenSaturated pins the shedding path over HTTP: with a
// single slot, a tiny queue and an instant queue timeout, a burst must
// produce 503s/504s rather than waiting forever.
func TestServerShedsWhenSaturated(t *testing.T) {
	s := New(Config{
		MemSize:      16 << 20,
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The payload must keep a slot busy long enough for the burst to
	// overlap even when the execution engine is at its fastest (tier-2
	// native traces on a warm pool), or the requests serialize and
	// nothing sheds.
	text := testText(1 << 21)
	c, _ := codec.ByName("deflate")
	var enc bytes.Buffer
	if err := c.Encode(&enc, text); err != nil {
		t.Fatal(err)
	}
	payload := enc.Bytes()

	const burst = 8
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", payload)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request was served")
	}
	if shed.Load() == 0 {
		t.Fatal("saturated server shed nothing")
	}
}

// A ShardID must stamp every reply — success, error and health paths
// alike — and surface in the readyz document, so routed traffic is
// attributable wherever it lands.
func TestShardIdentityHeader(t *testing.T) {
	s := New(Config{MemSize: 16 << 20, ShardID: "shard-7"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(ShardHeader); got != "shard-7" {
		t.Fatalf("healthz %s = %q, want shard-7", ShardHeader, got)
	}

	// An error response still names its shard.
	resp, _ = post(t, ts.URL+"/v1/decode", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing codec: status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != "shard-7" {
		t.Fatalf("error reply %s = %q, want shard-7", ShardHeader, got)
	}

	resp, body := post(t, ts.URL+"/v1/decode?codec=deflate", encodeDeflate(t, testText(1<<10)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ShardHeader); got != "shard-7" {
		t.Fatalf("decode reply %s = %q, want shard-7", ShardHeader, got)
	}

	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ready bool   `json:"ready"`
		Shard string `json:"shard"`
	}
	if err := json.NewDecoder(rz.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if !doc.Ready || doc.Shard != "shard-7" {
		t.Fatalf("readyz = %+v, want ready shard-7", doc)
	}

	// Without a ShardID the header is absent, not empty.
	s2 := New(Config{MemSize: 16 << 20})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := resp.Header[ShardHeader]; ok {
		t.Fatalf("unconfigured shard id still set %s", ShardHeader)
	}
}
