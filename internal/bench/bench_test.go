package bench

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vxa/internal/server"
)

func TestStartupRejectsNonPositiveReps(t *testing.T) {
	for _, reps := range []int{0, -1} {
		rows, err := Startup(reps)
		if err == nil {
			t.Errorf("Startup(%d) = %d rows, want an error", reps, len(rows))
		}
		pooled, err := Pooled(reps)
		if err == nil {
			t.Errorf("Pooled(%d) = %d rows, want an error", reps, len(pooled))
		}
	}
}

// TestPooledLedger: the pooled-stream ledger has a reset and a resume row
// per Table 1 decoder, each stage list sums to its wall time with the
// remainder, and, where tier 2 has an emitter, a stream after a reset
// runs as much of itself compiled as a resumed one: at least 99%. The
// ledger's VMs run at vm.OptTier2 whatever VXA_OPT says, so the share
// holds on every leg.
func TestPooledLedger(t *testing.T) {
	rows, err := Pooled(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(paperCodecs) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(paperCodecs))
	}
	for _, r := range rows {
		sum := r.Remainder
		for _, d := range r.Stages {
			sum += d
		}
		if sum != r.Wall {
			t.Errorf("%s %s: stages and remainder sum to %v, wall %v", r.Codec, r.Path, sum, r.Wall)
		}
		if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && r.Tier2Share < 0.99 {
			t.Errorf("%s %s: %.5f of the stream ran compiled", r.Codec, r.Path, r.Tier2Share)
		}
	}
	// A reset re-zeroes and hands back pages the resume path keeps, so
	// its streams fault at least as often.
	for i := 0; CountsMinorFaults && i+1 < len(rows); i += 2 {
		reset, resume := rows[i], rows[i+1]
		t.Logf("%s: %.1f minor faults per stream after a reset, %.1f after a resume", reset.Codec, reset.MinorFaults, resume.MinorFaults)
		if reset.Path != "reset" || resume.Path != "resume" {
			t.Fatalf("rows %d and %d are %s and %s, want reset and resume", i, i+1, reset.Path, resume.Path)
		}
		if reset.MinorFaults < resume.MinorFaults {
			t.Errorf("%s: %.1f minor faults per stream after a reset, fewer than %.1f after a resume", reset.Codec, reset.MinorFaults, resume.MinorFaults)
		}
	}
}

// decodeBody is what every 200 of the test handler decodes to, in full.
const decodeBody = "0123456789abcdef"

// decodeHandler answers /?case=NAME the way a vxad or vxrouter can, and
// counts the requests that reach it.
func decodeHandler(hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		switch r.URL.Query().Get("case") {
		case "ok":
			w.Write([]byte(decodeBody))
		case "short":
			w.Write([]byte(decodeBody[:4]))
		case "cut":
			// A committed 200 whose stream dies: what vxad does when a
			// decoder fails after its first bytes went out.
			w.Write([]byte(decodeBody[:4]))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case "shed":
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
}

func TestDecodePosterClassifies(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(decodeHandler(&hits))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		want loadOutcome
	}{
		{"ok", outcomeOK},
		{"short", outcomeError},
		{"cut", outcomeTruncated},
		{"shed", outcomeShed},
		{"fail", outcomeError},
	} {
		post := decodePoster(&server.Client{HTTP: ts.Client()}, ts.URL+"/?case="+tc.name, nil, len(decodeBody))
		if got := post(); got != tc.want {
			t.Errorf("%s: outcome %d, want %d", tc.name, got, tc.want)
		}
	}

	// The shed's Retry-After holds the client down: the next arrival is
	// tallied as held and never reaches the server.
	post := decodePoster(&server.Client{HTTP: ts.Client()}, ts.URL+"/?case=shed", nil, len(decodeBody))
	if got := post(); got != outcomeShed {
		t.Fatalf("first post: outcome %d, want shed", got)
	}
	before := hits.Load()
	if got := post(); got != outcomeHeld {
		t.Errorf("post inside the hold-down: outcome %d, want held", got)
	}
	if after := hits.Load(); after != before {
		t.Errorf("post inside the hold-down reached the handler (%d hits, want %d)", after, before)
	}
}

func TestRunOpenLoopTallies(t *testing.T) {
	var calls atomic.Int64
	post := func() loadOutcome {
		return loadOutcome((calls.Add(1) - 1) % int64(numOutcomes))
	}
	res, err := runOpenLoop(1000, 100*time.Millisecond, 4, post)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || int64(res.Requests) != calls.Load() {
		t.Fatalf("requests %d, post called %d times", res.Requests, calls.Load())
	}
	for o := loadOutcome(0); o < numOutcomes; o++ {
		want := res.Requests / int(numOutcomes)
		if int(o) < res.Requests%int(numOutcomes) {
			want++
		}
		if res.Outcomes[o] != want {
			t.Errorf("outcome %d tallied %d times, want %d", o, res.Outcomes[o], want)
		}
	}
	if want := uint64(res.Requests - res.Outcomes[outcomeHeld]); res.Snap.Count != want {
		t.Errorf("histogram holds %d latencies, want %d (held arrivals excluded)", res.Snap.Count, want)
	}
}

func TestRunOpenLoopNeedsArrivals(t *testing.T) {
	var calls atomic.Int64
	_, err := runOpenLoop(1, time.Nanosecond, 1, func() loadOutcome {
		calls.Add(1)
		return outcomeOK
	})
	if err == nil || !strings.Contains(err.Error(), "no arrivals") {
		t.Errorf("err = %v, want a no-arrivals error", err)
	}
	if calls.Load() != 0 {
		t.Errorf("post called %d times on an empty schedule", calls.Load())
	}
}

func TestCompareFig7(t *testing.T) {
	row := func(codec string, ns time.Duration) Fig7Row { return Fig7Row{Codec: codec, VX32: ns} }
	baseline := []Fig7Row{row("deflate", 100), row("bwt", 200), row("lpc", 50), row("haar", 0)}
	current := []Fig7Row{row("deflate", 400), row("bwt", 200), row("dct", 300), row("haar", 10)}

	regs, geomean := CompareFig7(baseline, current)
	if len(regs) != 2 || regs[0].Codec != "deflate" || regs[1].Codec != "bwt" {
		t.Fatalf("matched %+v, want deflate and bwt only", regs)
	}
	if regs[0].Ratio != 4 || regs[1].Ratio != 1 {
		t.Errorf("ratios %v, %v, want 4, 1", regs[0].Ratio, regs[1].Ratio)
	}
	if math.Abs(geomean-2) > 1e-12 {
		t.Errorf("geomean %v, want 2", geomean)
	}

	if regs, geomean := CompareFig7(baseline, []Fig7Row{row("adpcm", 10)}); len(regs) != 0 || geomean != 1 {
		t.Errorf("nothing in common: %d matches, geomean %v; want 0, 1", len(regs), geomean)
	}
}
