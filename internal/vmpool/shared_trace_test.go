package vmpool_test

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
	"vxa/internal/vmpool"
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

// nativeTier2 reports whether tier 2 has an emitter for this platform.
func nativeTier2() bool { return runtime.GOOS == "linux" && runtime.GOARCH == "amd64" }

// convergedAfter is how many streams, each after a reset, one pooled VM
// takes to compile the code every stream of TestPooledStreamIsPureFunction
// runs: the last stream to form a superblock or compile a trace was the
// 66th, of adpcm and haar (the 50th of the other decoders). A Reset
// that zeroed the profile left start-up code on the interpreter in every
// stream: 0.14% to 1.6% of its instructions, for ever.
const convergedAfter = 80

// TestPooledStreamIsPureFunction is the metamorphic wall for shared and
// linked traces on the real decoders: for every built-in codec, a
// stream's output bytes and guest instruction count — and, for a stream
// that runs out of fuel half way, the trap kind, EIP and address — are
// one function of (decoder, input, fuel): the same on a fresh VM with
// the tier off, on a fresh VM compiling and linking everything hot, on a
// pooled VM after 1, 5 and 50 resets onto traces the snapshot carries,
// and on a VM of that snapshot after a trip through its serialized form,
// the way an artifact store hands it to another process. Every lease
// changes the security mode, so every lease after the first is a reset
// and starts with an empty link table.
//
// A last pooled VM runs at the default level, and after convergedAfter
// streams, each a reset, must have stopped forming superblocks and
// compiling traces and run at least 99.9% of each stream's instructions
// in compiled code.
func TestPooledStreamIsPureFunction(t *testing.T) {
	// The pooled and fresh legs run at tier 2 whatever the CI leg says;
	// the reference leg turns it off through its Config.
	resets := []int{1, 5, 50}
	if testing.Short() {
		resets = resets[:2]
	}
	cfg := vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}
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
			off.OptLevel = vm.OptSuperblocks
			want, _ := runOn(t, fresh(off), enc, full)
			if want.trap != (vm.Trap{}) || len(want.out) == 0 {
				t.Fatalf("reference stream: trap %+v, %d bytes", want.trap, len(want.out))
			}
			short := int64(want.steps / 2)
			wantTrap, _ := runOn(t, fresh(off), enc, short)
			if wantTrap.trap.Kind != vm.TrapFuel {
				t.Fatalf("reference short stream: %+v, want a fuel trap", wantTrap.trap)
			}

			hot := fresh(cfg)
			got, _ := runOn(t, hot, enc, full)
			got.check(t, "fresh VM, tier hot", want)
			// One trace has no exit to link: adpcm's sample loop is one.
			oneTrace := c.Name == "adpcm" && hot.Stats().Tier2Compiled == 1
			if linked, err := hot.CheckLinks(); err != nil {
				t.Fatal(err)
			} else if nativeTier2() && linked == 0 && !oneTrace {
				t.Fatal("fresh VM, tier hot: the stream linked no trace exit")
			}
			got, _ = runOn(t, fresh(cfg), enc, short)
			got.check(t, "fresh VM, tier hot, short of fuel", wantTrap)

			// get leases the decoder from p, in one of two modes by
			// the parity of i.
			get := func(p *vmpool.Pool, i int) *vmpool.Lease {
				l, err := p.Get(context.Background(), c.Name, uint32(0600+i%2), func() ([]byte, error) { return elf, nil })
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			for _, n := range resets {
				p := vmpool.New(vmpool.Options{VM: cfg})
				for i := 0; i <= n; i++ {
					l := get(p, i)
					got, reusable := runOn(t, l.VM(), enc, full)
					got.check(t, "pooled stream", want)
					l.Release(reusable)
				}
				if got := p.Stats().Resets; got != n {
					t.Fatalf("%d resets, want %d", got, n)
				}
				l := get(p, n+1)
				got, _ := runOn(t, l.VM(), enc, short)
				got.check(t, "pooled stream short of fuel", wantTrap)
				if _, err := l.VM().CheckLinks(); err != nil {
					t.Fatal(err)
				}
				l.Release(false)

				st := p.VMStats()
				if nativeTier2() && (st.Tier2Shared == 0 || !oneTrace && st.Tier2Links == 0) {
					t.Fatalf("after %d resets: %d traces installed from the snapshot, %d exits linked (compiled %d)",
						n, st.Tier2Shared, st.Tier2Links, st.Tier2Compiled)
				}

				// The artifact route: the warmed snapshot through its wire
				// form. Superblocks travel, code does not; the loaded VM
				// recompiles and relinks, and must not be told apart.
				data, err := p.SnapshotOf(c.Name).Serialize()
				if err != nil {
					t.Fatal(err)
				}
				loaded, err := vm.Deserialize(data)
				if err != nil {
					t.Fatal(err)
				}
				got, _ = runOn(t, loaded.NewVM(), enc, full)
				got.check(t, "artifact-loaded stream", want)
				got, _ = runOn(t, loaded.NewVM(), enc, short)
				got.check(t, "artifact-loaded stream short of fuel", wantTrap)
			}

			// The kept profile: one pooled VM at the default level, every
			// stream after the first a reset. Code that runs a few times
			// per stream goes on warming across the resets until it has
			// formed its superblocks and compiled, and from then on a
			// stream forms and compiles nothing and retires nearly all of
			// its instructions in compiled code.
			p := vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}})
			for i := 0; i < convergedAfter+10; i++ {
				l := get(p, i)
				st0 := l.VM().Stats()
				got, reusable := runOn(t, l.VM(), enc, full)
				st := l.VM().Stats()
				l.Release(reusable)
				got.check(t, "pooled stream at the default level", want)
				if i < convergedAfter || !nativeTier2() {
					continue
				}
				formed, compiled := st.SuperblocksFormed-st0.SuperblocksFormed, st.Tier2Compiled-st0.Tier2Compiled
				share := float64(st.Tier2Steps-st0.Tier2Steps) / float64(got.steps)
				if formed != 0 || compiled != 0 || share < 0.999 {
					t.Fatalf("stream %d, after %d resets: formed %d superblocks, compiled %d traces, ran %.5f of its instructions compiled",
						i, i, formed, compiled, share)
				}
			}
			if got := p.Stats().Resets; got != convergedAfter+9 {
				t.Fatalf("%d resets, want %d", got, convergedAfter+9)
			}
		})
	}
}

// TestReleaseAbsorbsLaterStreams: the pool folds a VM's translation work
// into the snapshot whenever a stream formed a superblock or compiled a
// trace, not only when it built a block — so what the second and later
// streams of a VM learn survives its next reset.
func TestReleaseAbsorbsLaterStreams(t *testing.T) {
	if !nativeTier2() {
		t.Skip("no tier-2 emitter for this host: nothing can be shared")
	}
	c, _ := codec.ByName("deflate")
	elf, err := c.DecoderELF()
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, corpus.Text(16<<10, 9)); err != nil {
		t.Fatal(err)
	}
	p := vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2}})
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
	snap := p.SnapshotOf("deflate")
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

// TestResetsKeepTheCompiledShare: a decoder whose guards fire often —
// adpcm's sign and clamp branches, haar's position-dependent step — used
// to have its traces torn down, re-formed eight times over and then its
// loop heads pinned to the interpreter, and a snapshot that absorbed such
// a VM handed the stale superblock and the spent budget on to every VM
// reset from it. There is no teardown now and nothing to hand on: a VM
// reset any number of times from the absorbed snapshot retires exactly
// the instructions a fresh VM does, and at least as large a share of
// them in compiled code as the stream the snapshot absorbed.
func TestResetsKeepTheCompiledShare(t *testing.T) {
	if !nativeTier2() {
		t.Skip("no tier-2 emitter for this host: nothing can be shared")
	}
	for _, name := range []string{"adpcm", "haar"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c, _ := codec.ByName(name)
			elf, err := c.DecoderELF()
			if err != nil {
				t.Fatal(err)
			}
			raw := bmp.Encode(corpus.Image(96, 96, 7))
			if c.Output == "WAV audio" {
				raw = wav.Encode(corpus.Audio(12000, 2, 7))
			}
			var encBuf bytes.Buffer
			if err := c.Encode(&encBuf, raw); err != nil {
				t.Fatal(err)
			}
			enc := encBuf.Bytes()
			fuel := vm.StreamFuel(len(enc))

			// share runs one stream on v and returns its result and the
			// share of its instructions that retired in compiled traces.
			share := func(v *vm.VM) (streamResult, float64) {
				st0 := v.Stats()
				r, _ := runOn(t, v, enc, fuel)
				st := v.Stats()
				return r, float64(st.Tier2Steps-st0.Tier2Steps) / float64(st.Steps-st0.Steps)
			}
			v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptTier2})
			if err != nil {
				t.Fatal(err)
			}
			snap := v.Snapshot()
			want, before := share(v)
			if want.trap != (vm.Trap{}) || len(want.out) == 0 {
				t.Fatalf("fresh stream: trap %+v, %d bytes", want.trap, len(want.out))
			}
			if before < 0.9 {
				t.Fatalf("fresh stream ran %.4f of its instructions compiled: the decoder is being kept on the interpreter", before)
			}
			snap.AbsorbBlocks(v)
			for reset := 1; reset <= 12; reset++ {
				if err := v.Reset(snap); err != nil {
					t.Fatal(err)
				}
				got, after := share(v)
				got.check(t, "stream after reset", want)
				if after < before {
					t.Fatalf("reset %d: %.4f of the stream ran compiled, %.4f before the absorb", reset, after, before)
				}
				snap.AbsorbBlocks(v)
			}
		})
	}
}
