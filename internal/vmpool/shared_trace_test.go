package vmpool

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/wav"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// streamResult is what one decoder stream leaves for its caller.
type streamResult struct {
	out   []byte
	steps uint64
	trap  vm.Trap // zero when the stream completed
}

func runOn(t *testing.T, v *vm.VM, enc []byte, fuel int64) (streamResult, bool) {
	t.Helper()
	var out bytes.Buffer
	steps0 := v.Stats().Steps
	reusable, err := v.RunStream(context.Background(), bytes.NewReader(enc), &out, nil, fuel)
	r := streamResult{out: out.Bytes(), steps: v.Stats().Steps - steps0}
	if err != nil {
		var tr *vm.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("stream failed without a trap: %v", err)
		}
		r.trap = vm.Trap{Kind: tr.Kind, EIP: tr.EIP, Addr: tr.Addr}
	}
	return r, reusable
}

func (r streamResult) check(t *testing.T, what string, want streamResult) {
	t.Helper()
	if r.trap != want.trap {
		t.Fatalf("%s: trap %+v, want %+v", what, r.trap, want.trap)
	}
	if r.steps != want.steps {
		t.Fatalf("%s: %d guest instructions, want %d", what, r.steps, want.steps)
	}
	if !bytes.Equal(r.out, want.out) {
		t.Fatalf("%s: output differs (%d bytes, want %d)", what, len(r.out), len(want.out))
	}
}

// TestPooledStreamIsPureFunction is the metamorphic wall for shared
// traces on the real decoders: for every built-in codec, a stream's
// output bytes and guest instruction count — and, for a stream that runs
// out of fuel half way, the trap kind, EIP and address — are the same on
// a fresh VM with the tier off, on a fresh VM compiling everything hot,
// and on a pooled VM after 1, 5 and 50 resets onto traces the snapshot
// carries. Every lease changes the security mode, so every lease after
// the first is a reset.
func TestPooledStreamIsPureFunction(t *testing.T) {
	// The tier is on for the pooled and fresh-hot legs whatever the CI
	// leg says; the reference leg turns it off through its Config.
	t.Setenv("VXA_NO_TIER2", "0")
	t.Setenv("VXA_TIER2_HOT", "1")
	resets := []int{1, 5, 50}
	if testing.Short() {
		resets = resets[:2]
	}
	cfg := vm.Config{MemSize: 64 << 20}
	for _, c := range codec.All() {
		c := c
		if c.Encode == nil {
			continue // a redec: no encoder to make its input with
		}
		t.Run(c.Name, func(t *testing.T) {
			elf, err := c.DecoderELF()
			if err != nil {
				t.Fatal(err)
			}
			raw := corpus.Text(6000, 5)
			switch c.Output {
			case "BMP image":
				raw = bmp.Encode(corpus.Image(40, 40, 5))
			case "WAV audio":
				raw = wav.Encode(corpus.Audio(1500, 2, 5))
			}
			var encBuf bytes.Buffer
			if err := c.Encode(&encBuf, raw); err != nil {
				t.Fatal(err)
			}
			enc := encBuf.Bytes()
			full := vm.StreamFuel(len(enc))

			fresh := func(cfg vm.Config) *vm.VM {
				v, err := elf32.NewVM(elf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			off := cfg
			off.NoTier2 = true
			want, _ := runOn(t, fresh(off), enc, full)
			if want.trap != (vm.Trap{}) || len(want.out) == 0 {
				t.Fatalf("reference stream: trap %+v, %d bytes", want.trap, len(want.out))
			}
			short := int64(want.steps / 2)
			wantTrap, _ := runOn(t, fresh(off), enc, short)
			if wantTrap.trap.Kind != vm.TrapFuel {
				t.Fatalf("reference short stream: %+v, want a fuel trap", wantTrap.trap)
			}

			got, _ := runOn(t, fresh(cfg), enc, full)
			got.check(t, "fresh VM, tier hot", want)
			got, _ = runOn(t, fresh(cfg), enc, short)
			got.check(t, "fresh VM, tier hot, short of fuel", wantTrap)

			for _, n := range resets {
				p := New(Options{VM: cfg})
				get := func(i int) *Lease {
					l, err := p.Get(context.Background(), c.Name, uint32(0600+i%2), func() ([]byte, error) { return elf, nil })
					if err != nil {
						t.Fatal(err)
					}
					return l
				}
				for i := 0; i <= n; i++ {
					l := get(i)
					got, reusable := runOn(t, l.VM(), enc, full)
					got.check(t, "pooled stream", want)
					l.Release(reusable)
				}
				if got := p.Stats().Resets; got != n {
					t.Fatalf("%d resets, want %d", got, n)
				}
				l := get(n + 1)
				got, _ := runOn(t, l.VM(), enc, short)
				got.check(t, "pooled stream short of fuel", wantTrap)
				l.Release(false)

				st := p.VMStats()
				if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && st.Tier2Shared == 0 {
					t.Fatalf("after %d resets no trace was ever installed from the snapshot (compiled %d)", n, st.Tier2Compiled)
				}
			}
		})
	}
}

// TestReleaseAbsorbsLaterStreams: the pool folds a VM's translation work
// into the snapshot whenever a stream formed a superblock or compiled a
// trace, not only when it built a block — so what the second and later
// streams of a VM learn survives its next reset.
func TestReleaseAbsorbsLaterStreams(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("no native tier-2 backend here: nothing can be shared")
	}
	t.Setenv("VXA_NO_TIER2", "0")
	c, _ := codec.ByName("deflate")
	elf, err := c.DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, corpus.Text(16<<10, 9)); err != nil {
		t.Fatal(err)
	}
	p := New(Options{VM: vm.Config{MemSize: 64 << 20}})
	// stream runs one stream under mode and returns how many traces it
	// compiled.
	stream := func(mode uint32) uint64 {
		l, err := p.Get(context.Background(), "deflate", mode, func() ([]byte, error) { return elf, nil })
		if err != nil {
			t.Fatal(err)
		}
		before := l.VM().Stats().Tier2Compiled
		_, reusable := runOn(t, l.VM(), enc.Bytes(), vm.StreamFuel(enc.Len()))
		compiled := l.VM().Stats().Tier2Compiled - before
		l.Release(reusable)
		return compiled
	}
	// Same mode: the VM resumes in place and keeps getting hotter, so
	// traces compile in streams that build no block.
	compiled := uint64(0)
	for i := 0; i < 7; i++ {
		compiled += stream(0644)
	}
	if compiled == 0 {
		t.Fatal("the decoder compiled no trace")
	}
	snap := p.codec["deflate"].snap
	published := snap.T2Count()
	if published == 0 {
		t.Fatal("no trace reached the snapshot")
	}
	// A mode change resets the VM onto the snapshot: it must come back
	// with the traces and compile next to nothing.
	if after := stream(0600); after > uint64(published)/4 {
		t.Fatalf("stream after reset compiled %d traces with %d published", after, published)
	}
	if p.VMStats().Tier2Shared == 0 {
		t.Fatal("the pool aggregate does not count the traces the reset installed")
	}
}
