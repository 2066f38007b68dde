package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vxa/internal/codec"
	"vxa/internal/core"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
)

// TestErrorKindStatusRoundTrip pins the v2 error taxonomy end to end:
// every core.ErrorKind survives an errors.Is/As round trip through
// wrapping, matches exactly its own sentinel, and maps to its HTTP
// status through the server's table. A new kind without a table row
// fails here.
func TestErrorKindStatusRoundTrip(t *testing.T) {
	cases := []struct {
		kind     core.ErrorKind
		sentinel *core.Error
		cause    error
		status   int
	}{
		{core.KindBadArchive, core.ErrBadArchive, fmt.Errorf("zip: bad magic"), http.StatusBadRequest},
		{core.KindUnknownCodec, core.ErrUnknownCodec, nil, http.StatusNotFound},
		{core.KindDecoderTrap, core.ErrDecoderTrap,
			&codec.DecodeError{Codec: "deflate", Trap: &vm.Trap{Kind: vm.TrapMemory, EIP: 0x1000}},
			http.StatusUnprocessableEntity},
		{core.KindFuelExhausted, core.ErrFuelExhausted,
			&codec.DecodeError{Codec: "deflate", Trap: &vm.Trap{Kind: vm.TrapFuel, EIP: 0x1000}},
			http.StatusUnprocessableEntity},
		{core.KindOutputLimit, core.ErrOutputLimit, nil, http.StatusRequestEntityTooLarge},
		{core.KindCanceled, core.ErrCanceled, context.Canceled, StatusClientClosedRequest},
		{core.KindIO, core.ErrIO, fmt.Errorf("read: connection reset"), http.StatusInternalServerError},
		{core.KindUnavailable, core.ErrUnavailable, nil, http.StatusServiceUnavailable},
		{core.KindQuarantined, core.ErrQuarantined,
			&vmpool.QuarantineError{RetryAfter: time.Second},
			StatusDecoderQuarantined},
		{core.KindDeadline, core.ErrDeadline,
			&vm.WatchdogError{Budget: time.Second},
			http.StatusUnprocessableEntity},
	}
	sentinels := []*core.Error{
		core.ErrBadArchive, core.ErrUnknownCodec, core.ErrDecoderTrap,
		core.ErrFuelExhausted, core.ErrOutputLimit, core.ErrCanceled,
		core.ErrIO, core.ErrUnavailable, core.ErrQuarantined, core.ErrDeadline,
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			err := error(&core.Error{Kind: tc.kind, Entry: "a.txt", Trap: tc.cause})
			// Another layer of prose wrapping must not break matching.
			err = fmt.Errorf("handler: %w", err)

			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(err, %v sentinel) = false", tc.kind)
			}
			for _, other := range sentinels {
				if other.Kind != tc.kind && errors.Is(err, other) {
					t.Fatalf("kind %v also matches sentinel %v", tc.kind, other.Kind)
				}
			}
			var ve *core.Error
			if !errors.As(err, &ve) || ve.Kind != tc.kind || ve.Entry != "a.txt" {
				t.Fatalf("errors.As round trip lost the value: %+v", ve)
			}
			if got := StatusFor(err); got != tc.status {
				t.Fatalf("StatusFor(%v) = %d, want %d", tc.kind, got, tc.status)
			}
		})
	}

	// Cancellation must also unwrap to the context error itself.
	cerr := fmt.Errorf("x: %w", &core.Error{Kind: core.KindCanceled, Trap: context.Canceled})
	if !errors.Is(cerr, context.Canceled) {
		t.Fatal("KindCanceled does not unwrap to context.Canceled")
	}

	// Non-taxonomy errors fall through to 500.
	if got := StatusFor(errors.New("disk on fire")); got != http.StatusInternalServerError {
		t.Fatalf("unknown error mapped to %d, want 500", got)
	}

	// Every kind the taxonomy defines must have a status row — a new
	// kind that reaches HTTP without a mapping would silently 500.
	for _, k := range errorKinds {
		if _, ok := kindStatus[k]; !ok {
			t.Errorf("kind %v has no kindStatus row", k)
		}
	}

	// A raw quarantine error (before core classification) must still
	// map to the quarantine status.
	qerr := fmt.Errorf("get: %w", &vmpool.QuarantineError{RetryAfter: time.Second})
	if got := StatusFor(qerr); got != StatusDecoderQuarantined {
		t.Fatalf("raw quarantine error mapped to %d, want %d", got, StatusDecoderQuarantined)
	}
	// Bare context errors map to their nginx-convention codes.
	if got := StatusFor(fmt.Errorf("x: %w", context.Canceled)); got != StatusClientClosedRequest {
		t.Fatalf("bare context.Canceled mapped to %d, want 499", got)
	}
	if got := StatusFor(fmt.Errorf("x: %w", context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Fatalf("bare DeadlineExceeded mapped to %d, want 504", got)
	}
}

// TestErrorKindsPerEndpoint: a failed stream files the same error kind
// whichever endpoint ran it — a fuel exhaustion before any output, and a
// client that hangs up after the first byte of a long decode.
func TestErrorKindsPerEndpoint(t *testing.T) {
	raw := testText(4 << 20)
	enc := encodeDeflate(t, raw)
	arc := buildArchive(t, map[string][]byte{"doc.txt": raw})
	kinds := func(path string, body []byte) map[string]uint64 {
		s := New(Config{MemSize: 16 << 20})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if resp, msg := post(t, ts.URL+path+"&fuel=1000", body); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s under 1000 fuel: status %d: %s", path, resp.StatusCode, msg)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(resp.Body, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
		waitFor(t, 5*time.Second, path+": the abandoned stream to end", func() bool {
			return s.Admission().Stats().InFlight == 0 && s.Cache().Outstanding() == 0
		})
		return s.MetricsSnapshot().ErrorKinds
	}
	want := map[string]uint64{"fuel exhausted": 1, "canceled": 1}
	extract := kinds("/v1/extract?entry=doc.txt", arc)
	decode := kinds("/v1/decode?codec=deflate", enc)
	if !reflect.DeepEqual(extract, want) || !reflect.DeepEqual(decode, want) {
		t.Fatalf("error kinds: /v1/extract %v, /v1/decode %v; want %v from both", extract, decode, want)
	}
}
