// Command vxunzip lists, extracts and verifies VXA archives: the
// paper's enhanced UnZIP reader.
//
// Usage:
//
//	vxunzip -l archive.zip             list contents
//	vxunzip [-vxa] [-all] [-p N] [-d dir] archive.zip   extract
//	vxunzip -t archive.zip             integrity check (always uses the
//	                                   archived VXA decoders, §2.3)
//
// Extraction and verification decode entries through a parallel worker
// pipeline over pooled decoder VMs; -p bounds the worker count (0 means
// one worker per core, 1 forces the serial path). Interrupting the
// process (SIGINT/SIGTERM) cancels in-flight decodes cooperatively.
//
// Exit codes distinguish failure causes (see -h): 0 success, 1 I/O or
// internal error, 2 usage, 3 bad archive, 4 no usable decoder, 5
// decoder trap, 6 fuel exhausted, 7 output limit, 8 canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"vxa"
	"vxa/internal/obs"
)

// Exit codes, one per error kind, so scripts can branch on the cause.
const (
	exitOK         = 0
	exitIO         = 1
	exitUsage      = 2
	exitBadArchive = 3
	exitNoDecoder  = 4
	exitTrap       = 5
	exitFuel       = 6
	exitLimit      = 7
	exitCanceled   = 8
	exitDeadline   = 9
)

// exitCode maps a typed extraction error to its exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, vxa.ErrBadArchive):
		return exitBadArchive
	case errors.Is(err, vxa.ErrUnknownCodec):
		return exitNoDecoder
	case errors.Is(err, vxa.ErrFuelExhausted):
		return exitFuel
	case errors.Is(err, vxa.ErrOutputLimit):
		return exitLimit
	case errors.Is(err, vxa.ErrDecoderTrap):
		return exitTrap
	case errors.Is(err, vxa.ErrCanceled), errors.Is(err, context.Canceled):
		return exitCanceled
	case errors.Is(err, vxa.ErrDeadline):
		return exitDeadline
	}
	return exitIO
}

// worstExit keeps the most severe (highest) exit code seen.
type worstExit struct {
	mu   sync.Mutex
	code int
}

func (w *worstExit) note(err error) {
	c := exitCode(err)
	w.mu.Lock()
	if c > w.code {
		w.code = c
	}
	w.mu.Unlock()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vxunzip [-l|-t] [-vxa] [-all] [-v] [-p N] [-d dir] archive.zip")
	fmt.Fprintln(os.Stderr, "\nflags:")
	flag.PrintDefaults()
	fmt.Fprintln(os.Stderr, `
exit codes:
  0  success
  1  I/O or internal error
  2  usage error
  3  bad archive (malformed container or failed integrity check)
  4  no usable decoder for an entry
  5  archived decoder trapped or exited nonzero in the sandbox
  6  decoder exceeded its instruction budget
  7  decoded output exceeded -limit
  8  canceled (SIGINT/SIGTERM)
  9  wall-clock watchdog killed the decoder (-wall)`)
}

func main() {
	list := flag.Bool("l", false, "list the archive")
	test := flag.Bool("t", false, "verify integrity with the archived VXA decoders")
	forceVXA := flag.Bool("vxa", false, "always decode with the archived VXA decoders")
	decodeAll := flag.Bool("all", false, "decode pre-compressed files to their raw form")
	verbose := flag.Bool("v", false, "show decoder stderr diagnostics")
	dir := flag.String("d", ".", "output directory")
	parallel := flag.Int("p", 0, "extraction/verify workers (0 = all cores, 1 = serial)")
	limit := flag.Int64("limit", 0, "per-entry decoded output cap in bytes (0 = unlimited)")
	wall := flag.Duration("wall", 0, "per-stream wall-clock decoder budget (0 = no watchdog)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(exitUsage)
	}

	// SIGINT/SIGTERM cancel in-flight decodes cooperatively: pooled VMs
	// stop at their next block boundary and are returned before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r, err := vxa.OpenFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	mode := vxa.NativeFirst
	if *forceVXA {
		mode = vxa.AlwaysVXA
	}
	opts := []vxa.Option{
		vxa.WithMode(mode),
		vxa.WithDecodeAll(*decodeAll),
		vxa.WithParallel(*parallel),
		vxa.WithLimit(*limit),
		vxa.WithWallBudget(*wall),
	}
	if *verbose {
		opts = append(opts, vxa.WithVerbose(os.Stderr))
	}

	switch {
	case *list:
		fmt.Printf("%-30s %10s %10s  %-8s %s\n", "name", "size", "stored", "codec", "mode")
		for _, e := range r.Entries() {
			codec := e.Codec
			if codec == "" {
				codec = "-"
			}
			kind := ""
			if e.PreCompressed {
				kind = " (pre-compressed)"
			}
			fmt.Printf("%-30s %10d %10d  %-8s %04o%s\n", e.Name, e.USize, e.CSize, codec, e.Mode, kind)
		}
	case *test:
		errs := r.Verify(ctx, opts...)
		if len(errs) == 0 {
			fmt.Printf("OK: all %d entries decode correctly under the VXA decoders\n", len(r.Entries()))
			return
		}
		var worst worstExit
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			worst.note(err)
		}
		os.Exit(worst.code)
	default:
		// Decode entries across a bounded worker pool, each streamed
		// straight to its destination file — peak memory stays one
		// stream per worker, not the whole decoded archive.
		entries := r.Entries()
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(entries) {
			workers = len(entries)
		}
		// Entries mapping to the same output path would have two workers
		// interleaving writes into one file, so such archives extract
		// serially (preserving the traditional last-writer-wins result).
		// The comparison is case-insensitive so the fallback also covers
		// case-insensitive filesystems (macOS, Windows).
		if workers > 1 {
			seen := make(map[string]bool, len(entries))
			for i := range entries {
				p := strings.ToLower(filepath.Clean(filepath.FromSlash(entries[i].Name)))
				if seen[p] {
					fmt.Fprintf(os.Stderr, "vxunzip: entries share output path %q; extracting serially\n", entries[i].Name)
					workers = 1
					break
				}
				seen[p] = true
			}
		}
		jobs := make(chan int)
		var worst worstExit
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					e := &entries[i]
					if err := extractEntry(ctx, r, e, *dir, opts, *verbose); err != nil {
						fmt.Fprintf(os.Stderr, "vxunzip: %s: %v\n", e.Name, err)
						worst.note(err)
					}
				}
			}()
		}
		for i := range entries {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		if worst.code != exitOK {
			os.Exit(worst.code)
		}
	}
}

// extractEntry streams one entry's decoded output to its destination
// file; a failed extraction removes the partial file. Entry names are
// untrusted: anything absolute or escaping the output directory
// (zip-slip) is rejected.
func extractEntry(ctx context.Context, r *vxa.Reader, e *vxa.Entry, dir string, opts []vxa.Option, verbose bool) error {
	rel := filepath.FromSlash(e.Name)
	if !filepath.IsLocal(rel) {
		return fmt.Errorf("unsafe entry path %q", e.Name)
	}
	dst := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(dst), 0755); err != nil {
		return err
	}
	f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, os.FileMode(e.Mode))
	if err != nil {
		return err
	}
	// The span rides the context through the extraction stack: the pool,
	// snapshot cache and VM layers attribute their stage timings to it,
	// and -v prints the per-entry breakdown.
	ctx, sp := obs.WithSpan(ctx)
	n, err := r.ExtractTo(ctx, e, f, opts...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return err
	}
	if verbose {
		fmt.Printf("  extracted %s (%d bytes) [%s]\n", e.Name, n, sp.Timeline())
	} else {
		fmt.Printf("  extracted %s (%d bytes)\n", e.Name, n)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxunzip:", err)
	os.Exit(exitCode(err))
}
