package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vxa/internal/breaker"
)

// Client is a shed-aware HTTP client for the vxad/vxrouter wire
// surface. A plain http.Client treats a 503 like any other response
// and will happily hammer a daemon that is telling every caller to
// back off; this wrapper honors the backpressure: any 503/504/521
// response's Retry-After starts a hold-down window, and requests
// issued inside the window fail fast locally with ErrHeldDown instead
// of reaching the wire. The load harness uses it so shed responses are
// counted as sheds — a sanctioned, polite outcome — rather than as
// generic failures that keep kicking a degraded server.
type Client struct {
	// HTTP is the underlying client. Nil means http.DefaultClient.
	HTTP *http.Client

	mu    sync.Mutex
	hold  breaker.Breaker // only ever held, never tripped
	held  uint64
	sheds uint64
}

// ErrHeldDown is returned (wrapped in *HeldError) by Post while the
// client is inside a Retry-After hold-down window; nothing was sent.
var ErrHeldDown = errors.New("server: held down by Retry-After")

// HeldError reports a request refused locally during hold-down.
type HeldError struct{ Remaining time.Duration }

func (e *HeldError) Error() string {
	return fmt.Sprintf("server: held down by Retry-After (%v remaining)", e.Remaining.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrHeldDown) match.
func (e *HeldError) Is(target error) bool { return target == ErrHeldDown }

// IsShedStatus reports whether an HTTP status is a load-management
// outcome the server wants the client to back off from: 503 (shed or
// draining), 504 (queue expiry) and 521 (decoder quarantined).
func IsShedStatus(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout ||
		status == StatusDecoderQuarantined
}

// ParseRetryAfter reads a Retry-After header as a delay. Only the
// delta-seconds form is produced by vxad and vxrouter; absent or
// unparseable values report ok=false.
func ParseRetryAfter(h http.Header) (d time.Duration, ok bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Post sends one request, unless the client is inside a hold-down
// window (ErrHeldDown, nothing sent). A shed response (see
// IsShedStatus) is returned to the caller like any other — its status
// is the caller's to classify — but its Retry-After first extends the
// hold-down so subsequent Posts back off. A shed without a Retry-After
// header holds for one second, matching the server's flat hint.
func (c *Client) Post(url, contentType string, body []byte) (*http.Response, error) {
	now := time.Now()
	c.mu.Lock()
	if remaining := c.hold.Wait(now); remaining > 0 {
		c.held++
		c.mu.Unlock()
		return nil, &HeldError{Remaining: remaining}
	}
	c.mu.Unlock()

	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if IsShedStatus(resp.StatusCode) {
		hold, ok := ParseRetryAfter(resp.Header)
		if !ok {
			hold = time.Second
		}
		c.mu.Lock()
		c.sheds++
		c.hold.Hold(now.Add(hold))
		c.mu.Unlock()
	}
	return resp, nil
}

// ClientStats is a point-in-time view of the client's shed accounting.
type ClientStats struct {
	// Sheds counts shed responses received from the wire.
	Sheds uint64 `json:"sheds"`
	// Held counts requests refused locally during hold-down.
	Held uint64 `json:"held"`
}

// Stats returns the shed/hold-down counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{Sheds: c.sheds, Held: c.held}
}
