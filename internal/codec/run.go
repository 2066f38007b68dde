package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"vxa/internal/fault"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
)

// DecodeError reports that a VXA decoder failed on a stream: either it
// exited nonzero (e.g. on corrupt input) or it trapped in the sandbox.
type DecodeError struct {
	Codec  string
	Code   int32  // exit code, if the decoder exited
	Trap   error  // sandbox trap, if it faulted
	Stderr string // decoder diagnostics
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Trap != nil {
		return fmt.Sprintf("vxa decoder %s: %v (stderr: %s)", e.Codec, e.Trap, e.Stderr)
	}
	return fmt.Sprintf("vxa decoder %s: exit status %d (stderr: %s)", e.Codec, e.Code, e.Stderr)
}

// Unwrap exposes the sandbox trap (when the decoder faulted) so callers
// can match the trap kind with errors.As — e.g. distinguishing a fuel
// exhaustion from a memory fault.
func (e *DecodeError) Unwrap() error { return e.Trap }

// DefaultDecoderMemSize is the guest address space a decoder VM gets
// when its vm.Config leaves MemSize zero, on every path that runs an
// archived decoder. Media decoders hold whole image/audio planes (dct
// and haar allocate three 8 MiB planes before reading a coefficient), so
// this is larger than the bare VM default (the paper's sandbox allows up
// to 1 GiB).
const DefaultDecoderMemSize = 64 << 20

// RunVXA decodes one input stream with the codec's compiled VXA decoder
// in a fresh virtual machine and returns the decoded output. A zero
// Config selects the VM defaults, with DefaultDecoderMemSize of guest
// memory.
func (c *Codec) RunVXA(input []byte, cfg vm.Config) ([]byte, error) {
	elfBytes, err := c.DecoderELF()
	if err != nil {
		return nil, err
	}
	return RunDecoderELF(c.Name, elfBytes, input, cfg)
}

// RunDecoderELF runs an arbitrary decoder executable (e.g. one loaded
// from an archive rather than built locally) over one input stream.
func RunDecoderELF(name string, elfBytes, input []byte, cfg vm.Config) ([]byte, error) {
	var out bytes.Buffer
	if _, err := RunDecoderELFToStats(context.Background(), name, elfBytes, bytes.NewReader(input), int64(len(input)), &out, cfg); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// RunDecoderELFToStats is RunDecoderELF streaming both sides, in a fresh
// VM with no pool behind it (vmpool.Fresh): the encoded input is read
// from r (payloadLen sizes the fuel budget, vm.Config.FuelFor) and the
// decoded output streams to w; on a decode error, partial output may
// already have been written. ctx cancels the run cooperatively, and its
// span, if any, gets the build and the translate/execute split. It
// returns the VM's execution statistics after the run, valid even when
// the decode failed, for callers that report on the translation engine.
func RunDecoderELFToStats(ctx context.Context, name string, elfBytes []byte, r io.Reader, payloadLen int64, w io.Writer, cfg vm.Config) (vm.Stats, error) {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultDecoderMemSize
	}
	lease, err := vmpool.Fresh(ctx, elfBytes, cfg)
	if err != nil {
		return vm.Stats{}, err
	}
	var diag bytes.Buffer
	code, err := lease.Run(ctx, r, w, &diag, cfg.FuelFor(int(payloadLen)))
	return lease.VM().Stats(), ClassifyDecodeError(name, err, code, diag.String())
}

// ClassifyDecodeError wraps a failed stream as a DecodeError per the
// decoder protocol: "done" after a complete stream means success and
// exit(0) is also accepted, so a failure is either a nonzero exit
// (carried in Code) or a sandbox trap (carried in Trap). A stream the
// host stopped (cancellation, a watchdog kill, an injected fault) is not
// the decoder's failure and passes through unchanged, as does nil.
// Every decode path classifies through this one function.
func ClassifyDecodeError(name string, err error, exitCode int32, stderr string) error {
	if err == nil || vm.IsCanceled(err) || vm.IsWatchdog(err) || errors.Is(err, fault.ErrInjected) {
		return err
	}
	de := &DecodeError{Codec: name, Stderr: stderr}
	var trap *vm.Trap
	if !errors.As(err, &trap) && exitCode != 0 {
		de.Code = exitCode
	} else {
		de.Trap = err
	}
	return de
}
