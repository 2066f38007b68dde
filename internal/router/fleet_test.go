package router

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/core"
	"vxa/internal/fault"
	"vxa/internal/server"

	_ "vxa/internal/codec/deflate"
)

// shardProc is one live vxad shard in the test fleet, with enough
// state recorded to kill it abruptly and rebind a replacement on the
// same address — the router must see the same backend come back.
type shardProc struct {
	addr string
	id   string
	srv  *server.Server
	hs   *http.Server
}

func startShard(t *testing.T, addr, id string) *shardProc {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("shard %s: %v", id, err)
	}
	p := &shardProc{
		addr: ln.Addr().String(),
		id:   id,
		srv:  server.New(server.Config{MemSize: 16 << 20, ShardID: id}),
	}
	p.hs = &http.Server{Handler: p.srv.Handler()}
	go p.hs.Serve(ln)
	return p
}

// kill cuts the shard dead: listener and all connections closed
// immediately, in-flight streams severed mid-byte. SIGKILL in
// miniature.
func (p *shardProc) kill() {
	p.hs.Close()
	p.srv.Close()
}

func fleetArchive(t *testing.T, tag string) (archive, want []byte) {
	return fleetArchiveKind(t, tag, true)
}

// fleetArchiveKind builds a single-file archive. Compressible content
// embeds the shared deflate decoder, so every such archive keys on one
// decoder hash and homes on one shard (the locality the SnapCache
// wants). Incompressible content is stored without a decoder and keys
// on the archive's own hash — which is how the soak gets keys spread
// across the whole fleet.
func fleetArchiveKind(t *testing.T, tag string, compressible bool) (archive, want []byte) {
	t.Helper()
	if compressible {
		want = bytes.Repeat([]byte("fleet payload "+tag+" line of compressible text\n"), 200)
	} else {
		want = make([]byte, 8<<10)
		x := hash64(tag) | 1
		for i := range want {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			want[i] = byte(x)
		}
	}
	var buf bytes.Buffer
	w := core.NewWriter(&buf, core.WriterOptions{})
	if err := w.AddFile("doc.txt", want, 0644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// shardFor posts one archive through the router and returns which
// shard answered (via the X-Vxa-Shard header vxad stamps).
func shardFor(t *testing.T, routerURL string, archive []byte) (string, int) {
	t.Helper()
	resp, err := http.Post(routerURL+"/v1/extract?entry=doc.txt", "application/octet-stream", bytes.NewReader(archive))
	if err != nil {
		t.Fatalf("probe post: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get(server.ShardHeader), resp.StatusCode
}

// TestFleetChaosSoak is the acceptance scenario for the fleet: three
// real vxad shards behind the router, 5% injected dial/read faults,
// one shard SIGKILLed and restarted mid-soak — and every single
// request must end in a sanctioned state: a 200 whose bytes match the
// archive exactly, a 503/521 carrying Retry-After, or an honest
// truncation (committed 200 whose stream errors out). Keys must remap
// off the dead shard and remap back after it returns, and the router's
// metrics must stay coherent with what the clients observed.
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet soak")
	}
	shards := []*shardProc{
		startShard(t, "127.0.0.1:0", "s0"),
		startShard(t, "127.0.0.1:0", "s1"),
		startShard(t, "127.0.0.1:0", "s2"),
	}
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.addr
	}
	rt, err := New(Config{
		Backends:     addrs,
		RetryBackoff: 2 * time.Millisecond,
		Health: HealthConfig{
			Config:       breaker.Config{Threshold: 3, Backoff: 40 * time.Millisecond, MaxBackoff: 300 * time.Millisecond},
			PollInterval: 25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerHS := &http.Server{Handler: rt}
	go routerHS.Serve(routerLn)
	defer routerHS.Close()
	routerURL := "http://" + routerLn.Addr().String()

	// Distinct archives spread keys across the fleet; find one homed on
	// the shard we are going to kill, to pin the remap/remap-back story.
	type workItem struct{ archive, want []byte }
	var work []workItem
	var victimItem *workItem
	victim := shards[1]
	// One compressible archive exercises real decode work (it homes
	// wherever the shared deflate decoder's hash lands); stored archives
	// key on their own content hash and spread across the fleet.
	a, wnt := fleetArchiveKind(t, "compressible", true)
	work = append(work, workItem{a, wnt})
	for i := 0; i < 64 && (len(work) < 7 || victimItem == nil); i++ {
		a, wnt := fleetArchiveKind(t, fmt.Sprintf("%d", i), false)
		item := workItem{a, wnt}
		home, status := shardFor(t, routerURL, a)
		if status != http.StatusOK {
			t.Fatalf("warmup probe: status %d", status)
		}
		if home == victim.id && victimItem == nil {
			victimItem = &item
		}
		if len(work) < 7 {
			work = append(work, item)
		}
	}
	if victimItem == nil {
		t.Fatal("no archive homed on the victim shard; balance test should have caught this")
	}

	// 5% faults on exactly the two new backend-facing points.
	fault.Arm(fault.Config{
		Seed:   7,
		Rate:   0.05,
		Points: 1<<fault.BackendDial | 1<<fault.BackendRead,
	})
	defer fault.Disarm()

	var (
		oks, sheds, truncations, clientErrs atomic.Uint64
		responses                           atomic.Uint64
	)
	const workers, perWorker = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				item := work[(w+i)%len(work)]
				resp, err := client.Post(routerURL+"/v1/extract?entry=doc.txt", "application/octet-stream", bytes.NewReader(item.archive))
				if err != nil {
					// The router itself is on loopback and never dies:
					// a transport error here is unsanctioned.
					clientErrs.Add(1)
					t.Errorf("worker %d req %d: transport error to router: %v", w, i, err)
					continue
				}
				responses.Add(1)
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK && rerr == nil:
					if !bytes.Equal(body, item.want) {
						t.Errorf("worker %d req %d: 200 with wrong bytes (%d vs %d) — splice or corruption", w, i, len(body), len(item.want))
					}
					oks.Add(1)
				case resp.StatusCode == http.StatusOK && rerr != nil:
					// Honest truncation: the committed stream was cut, and
					// what did arrive must be a strict prefix of the true
					// bytes — never spliced, never reordered. (The cut can
					// land on the very last read, after every payload byte
					// but before the terminating chunk; still sanctioned,
					// because the client knows the stream did not finish.)
					if !bytes.HasPrefix(item.want, body) {
						t.Errorf("worker %d req %d: truncated stream is not a prefix of the true bytes (%d bytes)", w, i, len(body))
					}
					truncations.Add(1)
				case server.IsShedStatus(resp.StatusCode):
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d req %d: shed %d without Retry-After", w, i, resp.StatusCode)
					}
					sheds.Add(1)
				default:
					t.Errorf("worker %d req %d: unsanctioned outcome: status %d err %v body %.80q",
						w, i, resp.StatusCode, rerr, body)
				}
				time.Sleep(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}

	// Mid-soak: kill the victim abruptly, verify its keys remap, then
	// bring it back on the same address.
	time.Sleep(150 * time.Millisecond)
	victim.kill()
	time.Sleep(200 * time.Millisecond)
	if home, status := shardFor(t, routerURL, victimItem.archive); status == http.StatusOK && home == victim.id {
		t.Errorf("request landed on the dead shard %s", victim.id)
	}
	replacement := startShard(t, victim.addr, victim.id)
	defer replacement.kill()

	wg.Wait()
	fault.Disarm()

	if oks.Load() == 0 {
		t.Fatal("soak produced zero clean 200s")
	}
	t.Logf("soak: %d ok, %d shed, %d truncated, %d client errors",
		oks.Load(), sheds.Load(), truncations.Load(), clientErrs.Load())

	// Remap-back: with the shard returned and its breaker probed, the
	// victim's keys must land on it again — the same identity, the same
	// address, the warm path restored.
	deadline := time.Now().Add(10 * time.Second)
	for {
		home, status := shardFor(t, routerURL, victimItem.archive)
		if status == http.StatusOK && home == victim.id {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("keys never remapped back to the restarted shard (last: home=%q status=%d)", home, status)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Metrics coherence: every client-visible response was counted
	// exactly once in the status counters, the kill produced retries,
	// and per-backend routed counts cover at least the responses.
	m := rt.MetricsSnapshot()
	var statusSum uint64
	for _, n := range m.Statuses {
		statusSum += n
	}
	// The probe requests above also pass through the router; count them.
	if statusSum < responses.Load() {
		t.Fatalf("status counters (%d) lost responses (clients saw %d)", statusSum, responses.Load())
	}
	if m.Retries == 0 {
		t.Fatal("a mid-soak SIGKILL produced zero retries")
	}
	if m.Requests < statusSum {
		t.Fatalf("routed attempts (%d) below responses (%d)", m.Requests, statusSum)
	}
	// >= because the mid-soak probe requests can truncate too (their
	// bodies are discarded unchecked).
	if m.Truncations < truncations.Load() {
		t.Fatalf("router counted %d truncations, clients saw %d", m.Truncations, truncations.Load())
	}
	st := fault.Stats()
	var injected uint64
	for _, p := range st.Points {
		if p.Point == "dial" || p.Point == "netread" {
			injected += p.Injected
		}
	}
	if injected == 0 {
		t.Fatal("fault injection never fired; the soak proved nothing")
	}

	for _, s := range []*shardProc{shards[0], shards[2]} {
		s.kill()
	}
}

// Routing keys come from decoder content: archives with the same
// embedded decoder land on the same shard (SnapCache locality), and
// /v1/decode keys on the codec name.
func TestFleetRoutingLocality(t *testing.T) {
	s0 := startShard(t, "127.0.0.1:0", "l0")
	s1 := startShard(t, "127.0.0.1:0", "l1")
	s2 := startShard(t, "127.0.0.1:0", "l2")
	defer s0.kill()
	defer s1.kill()
	defer s2.kill()
	rt, err := New(Config{
		Backends:   []string{s0.addr, s1.addr, s2.addr},
		HedgeDelay: -1,
		Health:     HealthConfig{PollInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := &http.Server{Handler: rt}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve(ln)
	defer ts.Close()
	url := "http://" + ln.Addr().String()

	// The same archive, posted to different endpoints, always lands on
	// one shard: entries/extract/verify share the routing key.
	archive, want := fleetArchive(t, "locality")
	var homes []string
	for _, ep := range []string{"/v1/entries", "/v1/extract?entry=doc.txt", "/v1/verify"} {
		resp, err := http.Post(url+ep, "application/octet-stream", bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %.120s", ep, resp.StatusCode, body)
		}
		if ep == "/v1/extract?entry=doc.txt" && !bytes.Equal(body, want) {
			t.Fatalf("%s: wrong bytes through the router", ep)
		}
		homes = append(homes, resp.Header.Get(server.ShardHeader))
	}
	for _, h := range homes[1:] {
		if h != homes[0] {
			t.Fatalf("same archive scattered across shards: %v", homes)
		}
	}

	// Raw decode keys on the codec: all deflate work shares a shard.
	payload := deflateCompress(t, want)
	var decodeHomes []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(url+"/v1/decode?codec=deflate", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decode: status %d: %.120s", resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatal("decode through the router returned wrong bytes")
		}
		decodeHomes = append(decodeHomes, resp.Header.Get(server.ShardHeader))
	}
	for _, h := range decodeHomes[1:] {
		if h != decodeHomes[0] {
			t.Fatalf("codec-keyed decodes scattered: %v", decodeHomes)
		}
	}
}

func deflateCompress(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
