package vxa

// Benchmarks regenerating the paper's evaluation (§5). One benchmark per
// Figure 7 series (native vs virtualized per codec), plus the mechanism
// ablations: the §4.2 fragment cache and the §5.2 vorbis call-inlining
// anecdote. Tables 1/2 and the §5.3 overhead analysis are validated in
// vxa_test.go and printed by cmd/vxbench.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"vxa/internal/bench"
	"vxa/internal/codec"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
	"vxa/internal/vxcc"
)

var (
	wlOnce sync.Once
	wls    []bench.Workload
	wlErr  error
)

func workloads(b *testing.B) []bench.Workload {
	wlOnce.Do(func() { wls, wlErr = bench.Workloads() })
	if wlErr != nil {
		b.Fatal(wlErr)
	}
	return wls
}

func workload(b *testing.B, name string) bench.Workload {
	for _, w := range workloads(b) {
		if w.Codec.Name == name {
			return w
		}
	}
	b.Fatalf("no workload for %s", name)
	return bench.Workload{}
}

func benchNative(b *testing.B, name string) {
	w := workload(b, name)
	b.SetBytes(int64(len(w.Raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Codec.Decode(io.Discard, bytes.NewReader(w.Encoded)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVX32(b *testing.B, name string, cfg vm.Config) {
	w := workload(b, name)
	elf, err := w.Codec.DecoderELF()
	if err != nil {
		b.Fatal(err)
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 64 << 20
	}
	b.SetBytes(int64(len(w.Raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := elf32.NewVM(elf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		v.Stdin = bytes.NewReader(w.Encoded)
		v.Stdout = io.Discard
		st, err := v.Run()
		if err != nil {
			b.Fatal(err)
		}
		if st == vm.StatusExit && v.ExitCode() != 0 {
			b.Fatalf("decoder exit %d", v.ExitCode())
		}
	}
}

// --- Figure 7: native vs virtualized decode, per codec ---

func BenchmarkFig7DeflateNative(b *testing.B) { benchNative(b, "deflate") }
func BenchmarkFig7DeflateVX32(b *testing.B)   { benchVX32(b, "deflate", vm.Config{}) }
func BenchmarkFig7BwtNative(b *testing.B)     { benchNative(b, "bwt") }
func BenchmarkFig7BwtVX32(b *testing.B)       { benchVX32(b, "bwt", vm.Config{}) }
func BenchmarkFig7DctNative(b *testing.B)     { benchNative(b, "dct") }
func BenchmarkFig7DctVX32(b *testing.B)       { benchVX32(b, "dct", vm.Config{}) }
func BenchmarkFig7HaarNative(b *testing.B)    { benchNative(b, "haar") }
func BenchmarkFig7HaarVX32(b *testing.B)      { benchVX32(b, "haar", vm.Config{}) }
func BenchmarkFig7LpcNative(b *testing.B)     { benchNative(b, "lpc") }
func BenchmarkFig7LpcVX32(b *testing.B)       { benchVX32(b, "lpc", vm.Config{}) }
func BenchmarkFig7AdpcmNative(b *testing.B)   { benchNative(b, "adpcm") }
func BenchmarkFig7AdpcmVX32(b *testing.B)     { benchVX32(b, "adpcm", vm.Config{}) }

// --- §4.2 ablation: fragment ("translation") cache off ---
//
// Run on a bounded checksum kernel rather than a full decode: without
// the cache every instruction is re-decoded, which is orders of
// magnitude slower, and the ratio is the point, not the workload size.

func BenchmarkAblationCacheOn(b *testing.B) { benchKernelCfg(b, inlinedSrc, vm.Config{}, 1<<14) }
func BenchmarkAblationCacheOff(b *testing.B) {
	benchKernelCfg(b, inlinedSrc, vm.Config{OptLevel: vm.OptReference}, 1<<14)
}

// --- §5.2 ablation: the vorbis inlining anecdote ---
//
// The paper's vorbis decoder lost 29% to subroutine calls in its inner
// loop (each call is an indirect control transfer resolved through the
// fragment cache); inlining recovered it to 11%. The same mechanism is
// measured here with two VXC builds of the same checksum kernel.

const callHeavySrc = `
int acc = 1;
int mix(int a, int c) { return (a * 33 + c) ^ (a >> 27); }
int main(void) {
	int c;
	while ((c = getb()) >= 0) acc = mix(acc, c);
	put4le(acc);
	flushout();
	return 0;
}`

const inlinedSrc = `
int acc = 1;
int main(void) {
	int c;
	while ((c = getb()) >= 0) acc = ((acc * 33 + c) ^ (acc >> 27));
	put4le(acc);
	flushout();
	return 0;
}`

func benchKernel(b *testing.B, src string) {
	benchKernelCfg(b, src, vm.Config{}, 1<<18) // 256 KiB
}

func benchKernelCfg(b *testing.B, src string, cfg vm.Config, inputLen int) {
	build, err := vxcc.Compile(vxcc.Options{}, vxcc.Source{Name: "kernel.vxc", Text: src})
	if err != nil {
		b.Fatal(err)
	}
	input := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz012345"), inputLen/32)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := elf32.NewVM(build.ELF, cfg)
		if err != nil {
			b.Fatal(err)
		}
		v.Stdin = bytes.NewReader(input)
		v.Stdout = io.Discard
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCallsCallHeavy(b *testing.B) { benchKernel(b, callHeavySrc) }
func BenchmarkAblationCallsInlined(b *testing.B)   { benchKernel(b, inlinedSrc) }

// --- VM primitive throughput (context for the Fig. 7 ratios) ---

func BenchmarkVMDispatch(b *testing.B) {
	// A tight arithmetic loop measures raw interpreted instruction rate.
	src := `
int main(void) {
	int i;
	int acc = 0;
	for (i = 0; i < 1000000; i++) acc = acc * 3 + i;
	return acc & 0x7F;
}`
	build, err := vxcc.Compile(vxcc.Options{}, vxcc.Source{Name: "spin.vxc", Text: src})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := elf32.NewVM(build.ELF, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(v.Stats().Steps), "guest-insts/op")
	}
}

// BenchmarkDecoderBuild times compiling a decoder from VXC source to ELF
// (the archiver-side cost of the toolchain).
func BenchmarkDecoderBuild(b *testing.B) {
	c, ok := codec.ByName("deflate")
	if !ok {
		b.Fatal("deflate not registered")
	}
	for i := 0; i < b.N; i++ {
		if _, err := vxcc.Compile(vxcc.Options{}, c.Sources...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent sandbox engine: snapshot/reset pool + parallel extraction ---
//
// BenchmarkStreamColdVM vs BenchmarkStreamPooledVM is the per-stream
// decoder-setup comparison: a fresh VM parsed from the decoder ELF for
// every stream against a pooled VM resumed (or reset from the pristine
// snapshot) per stream. BenchmarkExtractAll* compares whole-archive
// extraction throughput, serial versus the bounded worker pipeline.

func smallDeflateStream(b *testing.B) (*codec.Codec, []byte, []byte) {
	c, ok := codec.ByName("deflate")
	if !ok {
		b.Fatal("deflate not registered")
	}
	raw := bytes.Repeat([]byte("a small stream that makes setup cost visible | "), 64)
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		b.Fatal(err)
	}
	elf, err := c.DecoderELF()
	if err != nil {
		b.Fatal(err)
	}
	return c, elf, enc.Bytes()
}

func runBenchStream(b *testing.B, v *vm.VM, encoded []byte) (reusable bool) {
	b.Helper()
	reusable, err := v.RunStream(context.Background(), bytes.NewReader(encoded), io.Discard, nil, vm.StreamFuel(len(encoded)))
	if err != nil {
		b.Fatal(err)
	}
	return reusable
}

func BenchmarkStreamColdVM(b *testing.B) {
	_, elf, encoded := smallDeflateStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		runBenchStream(b, v, encoded)
	}
}

func BenchmarkStreamPooledVM(b *testing.B) {
	c, elf, encoded := smallDeflateStream(b)
	pool := vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 64 << 20}})
	elfFn := func() ([]byte, error) { return elf, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := pool.Get(context.Background(), c.Name, 0644, elfFn)
		if err != nil {
			b.Fatal(err)
		}
		lease.Release(runBenchStream(b, lease.VM(), encoded))
	}
}

// BenchmarkStreamPooledVMReset forces the reset path on every stream by
// alternating security modes: the cost of copy-on-reset from the
// pristine snapshot, without the parked-VM resume shortcut. After the
// first streams the snapshot stops changing, so each reset keeps the
// VM's translation view and the stream re-runs the decoder's start-up
// code on it.
func BenchmarkStreamPooledVMReset(b *testing.B) {
	c, elf, encoded := smallDeflateStream(b)
	pool := vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 64 << 20}})
	elfFn := func() ([]byte, error) { return elf, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := pool.Get(context.Background(), c.Name, uint32(0600+i%2), elfFn)
		if err != nil {
			b.Fatal(err)
		}
		lease.Release(runBenchStream(b, lease.VM(), encoded))
	}
}

var (
	parallelArchOnce sync.Once
	parallelArch     []byte
	parallelArchErr  error
)

func parallelArchive(b *testing.B) []byte {
	parallelArchOnce.Do(func() {
		var buf bytes.Buffer
		w := NewWriter(&buf, WriterOptions{})
		for i := 0; i < 16; i++ {
			data := bytes.Repeat([]byte(fmt.Sprintf("archive entry %02d | ", i)), 800)
			if err := w.AddFile(fmt.Sprintf("doc%02d.txt", i), data, 0644); err != nil {
				parallelArchErr = err
				return
			}
		}
		parallelArchErr = w.Close()
		parallelArch = buf.Bytes()
	})
	if parallelArchErr != nil {
		b.Fatal(parallelArchErr)
	}
	return parallelArch
}

func benchExtractAll(b *testing.B, parallel int) {
	arch := parallelArchive(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(arch)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range r.ExtractAll(context.Background(), WithMode(AlwaysVXA), WithParallel(parallel)) {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Entry.Name, res.Err)
			}
		}
	}
}

func BenchmarkExtractAllSerial(b *testing.B)   { benchExtractAll(b, 1) }
func BenchmarkExtractAllParallel(b *testing.B) { benchExtractAll(b, 0) }
