// Command vxrun executes one VXA decoder as a Unix filter: encoded data
// on stdin, decoded data on stdout. The decoder is either a registered
// codec's built decoder (-codec name) or an ELF image from disk — e.g.
// one extracted from an archive.
//
// With input files named on the command line, vxrun decodes each file to
// <file>.out instead, fanning the streams out over -p worker goroutines
// that draw decoder VMs from a shared snapshot/reset pool — the CLI face
// of the parallel extraction engine. SIGINT/SIGTERM cancel in-flight
// decodes cooperatively.
//
// Usage:
//
//	vxrun -codec zlib < file.z > file
//	vxrun decoder.elf < stream > out
//	vxrun -codec zlib -p 4 a.z b.z c.z d.z    (writes a.z.out, ...)
//
// Exit codes distinguish failure causes (see -h): 0 success, 1 I/O or
// internal error, 2 usage, 4 unknown codec, 5 decoder trap, 6 fuel
// exhausted, 8 canceled.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"vxa"
	"vxa/internal/codec"
	"vxa/internal/obs"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
)

// Exit codes, aligned with vxunzip's so scripts can share the mapping.
const (
	exitOK       = 0
	exitIO       = 1
	exitUsage    = 2
	exitNoCodec  = 4
	exitTrap     = 5
	exitFuel     = 6
	exitCanceled = 8
)

// exitCode maps a decode failure to its exit code by trap kind.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case vm.IsCanceled(err), errors.Is(err, context.Canceled):
		return exitCanceled
	}
	var trap *vm.Trap
	if errors.As(err, &trap) {
		if trap.Kind == vm.TrapFuel {
			return exitFuel
		}
		return exitTrap
	}
	if de := (*codec.DecodeError)(nil); errors.As(err, &de) {
		return exitTrap
	}
	return exitIO
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vxrun (-codec name | decoder.elf) [-p N] [input...]")
	fmt.Fprintln(os.Stderr, "\nflags:")
	flag.PrintDefaults()
	fmt.Fprintln(os.Stderr, `
exit codes:
  0  success
  1  I/O or internal error
  2  usage error
  4  unknown codec name
  5  decoder trapped or exited nonzero in the sandbox
  6  decoder exceeded its instruction budget
  8  canceled (SIGINT/SIGTERM)`)
}

func main() {
	codecName := flag.String("codec", "", "run the named codec's VXA decoder")
	mem := flag.Int("mem", 64, "guest memory in MiB")
	verbose := flag.Bool("v", false, "show decoder diagnostics")
	parallel := flag.Int("p", 0, "decode workers for file inputs (0 = all cores)")
	flag.Usage = usage
	flag.Parse()
	_ = vxa.Codecs() // link the codec registry

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	name := *codecName
	args := flag.Args()
	var elf []byte
	switch {
	case name != "":
		c, ok := codec.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "vxrun: unknown codec %q (have %v)\n", name, codec.Names())
			os.Exit(exitNoCodec)
		}
		var err error
		elf, err = c.DecoderELF()
		if err != nil {
			fatal(err)
		}
	case len(args) >= 1:
		var err error
		elf, err = os.ReadFile(args[0])
		if err != nil {
			fatal(err)
		}
		name = args[0]
		args = args[1:]
	default:
		usage()
		os.Exit(exitUsage)
	}
	cfg := vm.Config{MemSize: uint32(*mem) << 20}

	// Filter mode: one stream, stdin to stdout.
	if len(args) == 0 {
		input, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		var out bytes.Buffer
		sctx, sp := obs.WithSpan(ctx)
		st, err := codec.RunDecoderELFToStats(sctx, name, elf, bytes.NewReader(input), int64(len(input)), &out, cfg)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(out.Bytes()); err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "vxrun: decoded %d -> %d bytes\n", len(input), out.Len())
			fmt.Fprintf(os.Stderr, "vxrun: stages: %s\n", sp.Timeline())
			fmt.Fprintf(os.Stderr,
				"vxrun: engine: %d steps, %d uops, %d blocks built, %d chained, %d lookups, %d flag bits materialized, %d syscalls\n",
				st.Steps, st.UopsExecuted, st.BlocksBuilt, st.BlocksChained,
				st.BlockLookups, st.FlagsMaterialized, st.Syscalls)
			fmt.Fprintf(os.Stderr,
				"vxrun: optimizer: %d uops fused, %d flag records elided, %d superblocks formed\n",
				st.UopsFused, st.FlagsElided, st.SuperblocksFormed)
			t2share := 0.0
			if st.Steps > 0 {
				t2share = 100 * float64(st.Tier2Steps) / float64(st.Steps)
			}
			fmt.Fprintf(os.Stderr,
				"vxrun: tier2: %d traces compiled, %d installed from the snapshot, %d trace runs, %d exits linked, %d returns to the dispatcher (%d to resume a pass on tier 1), %.1f%% of steps\n",
				st.Tier2Compiled, st.Tier2Shared, st.Tier2Executed, st.Tier2Links, st.Tier2Exits, st.Tier2Resumes, t2share)
			fmt.Fprintf(os.Stderr, "vxrun: tier2 code: %v\n", st.Tier2Code)
			fmt.Fprintln(os.Stderr, translationLedger(st))
		}
		return
	}

	// File mode: decode every input through a pooled VM per worker.
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(args) {
		workers = len(args)
	}
	pool := vmpool.New(vmpool.Options{VM: cfg, MaxIdlePerKey: workers})
	jobs := make(chan string)
	var mu sync.Mutex
	worst := exitOK
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range jobs {
				if err := decodeFile(ctx, pool, name, elf, path, *verbose); err != nil {
					fmt.Fprintf(os.Stderr, "vxrun: %s: %v\n", path, err)
					mu.Lock()
					if c := exitCode(err); c > worst {
						worst = c
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, path := range args {
		jobs <- path
	}
	close(jobs)
	wg.Wait()
	if *verbose {
		st := pool.Stats()
		fmt.Fprintf(os.Stderr, "vxrun: %d files, %d workers; pool: %d snapshot, %d built, %d resumed\n",
			len(args), workers, st.Snapshots, st.Builds, st.Resumes)
		eng := pool.VMStats()
		fmt.Fprintf(os.Stderr, "vxrun: tier2: %d traces compiled, %d installed from the snapshot, %d exits linked, %d returns to the dispatcher (%d to resume a pass on tier 1)\n",
			eng.Tier2Compiled, eng.Tier2Shared, eng.Tier2Links, eng.Tier2Exits, eng.Tier2Resumes)
		fmt.Fprintf(os.Stderr, "vxrun: tier2 code: %v\n", eng.Tier2Code)
		fmt.Fprintln(os.Stderr, translationLedger(eng))
	}
	if worst != exitOK {
		os.Exit(worst)
	}
}

// decodeFile runs one input file through a leased decoder VM, streaming
// the decoded output to <path>.out; a failed decode removes the partial
// file.
func decodeFile(ctx context.Context, pool *vmpool.Pool, name string, elf []byte, path string, verbose bool) error {
	input, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dst := path + ".out"
	f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0644)
	if err != nil {
		return err
	}
	// Per-file tracing rides the same span machinery as the daemon:
	// -v prints where the file's wall time went (lease wait, snapshot
	// build, translate, execute, host write).
	ctx, sp := obs.WithSpan(ctx)
	out := &countingWriter{w: f, sp: sp}
	var stderr io.Writer
	if verbose {
		stderr = os.Stderr
	}
	lease, err := pool.Get(ctx, name, 0, func() ([]byte, error) { return elf, nil })
	if err != nil {
		f.Close()
		os.Remove(dst)
		return err
	}
	st0 := lease.VM().Stats()
	reusable, err := lease.VM().RunStream(ctx, bytes.NewReader(input), out, stderr, vm.StreamFuel(len(input)))
	st1 := lease.VM().Stats()
	sp.Add(obs.StageTranslate, time.Duration(st1.TranslateNS-st0.TranslateNS))
	sp.Add(obs.StageExecute, time.Duration(st1.ExecuteNS-st0.ExecuteNS))
	if vm.IsCanceled(err) {
		lease.ReleaseReset()
	} else {
		lease.Release(err == nil && reusable)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// A failed host write surfaces as itself, not as the decoder abort
	// it provokes — and never as a silently truncated output file.
	if out.err != nil {
		err = out.err
	}
	if err != nil {
		os.Remove(dst)
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "vxrun: %s: %d -> %d bytes [%s]\n", path, len(input), out.n, sp.Timeline())
	}
	return nil
}

// countingWriter counts bytes written through to w and remembers the
// first write error (the guest only sees a virtual EIO). With sp set,
// write time lands in the span's write stage.
type countingWriter struct {
	w   io.Writer
	sp  *obs.Span
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	var start time.Time
	if c.sp != nil {
		start = time.Now()
	}
	n, err := c.w.Write(p)
	if c.sp != nil {
		c.sp.Add(obs.StageWrite, time.Since(start))
	}
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxrun:", err)
	os.Exit(exitCode(err))
}

// translationLedger is the -v line that splits translation time by what
// was translated: TranslateNS is blocks plus the two tier-2 rows, and
// superblock formation is clocked beside it.
func translationLedger(st vm.Stats) string {
	ns := func(n uint64) time.Duration { return time.Duration(n).Round(time.Microsecond) }
	return fmt.Sprintf("vxrun: translation: blocks %v, superblocks %v, tier-2 emit %v, tier-2 seal %v; %d traces refused by the code arena",
		ns(st.TranslateNS-st.Tier2EmitNS-st.Tier2SealNS), ns(st.SuperblockNS), ns(st.Tier2EmitNS), ns(st.Tier2SealNS), st.Tier2Refused)
}
