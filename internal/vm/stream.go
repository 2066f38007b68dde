package vm

import (
	"context"
	"fmt"
	"io"
	"time"
)

// RunStream drives one stream of the VXA decoder protocol on v: attach
// the stream's I/O, set the absolute per-stream fuel budget, and run
// until the decoder parks at the done gate or exits. A decoder that
// calls exit(0) has decoded its stream successfully — single-stream
// decoders are allowed to end that way (§4.3) — but cannot take another
// stream, so reusable is false. Every per-stream entry point (the
// archive reader, vxrun, the benchmarks) routes through this one
// function so the protocol cannot diverge between callers.
//
// ctx cancels the stream cooperatively: the executor polls it at block
// boundaries (see RunContext) and returns a *CanceledError; the caller
// owns putting the VM back through a pristine reset before reuse.
func (v *VM) RunStream(ctx context.Context, stdin io.Reader, stdout, stderr io.Writer, fuel int64) (reusable bool, err error) {
	v.Stdin, v.Stdout, v.Stderr = stdin, stdout, stderr
	v.SetFuel(fuel)
	if v.wallBudget > 0 {
		// Arm the wall-clock watchdog for this stream. The deadline
		// shares the cancellation countdown, which RunContext only
		// initializes for cancelable contexts; seed it here so the
		// watchdog fires even under context.Background().
		v.wallDeadline = time.Now().Add(v.wallBudget).UnixNano()
		if v.m.Credit <= 0 {
			v.m.Credit = cancelQuantum
		}
		defer func() { v.wallDeadline = 0 }()
	}
	st, err := v.RunContext(ctx)
	if err != nil {
		return false, err
	}
	if st == StatusExit && v.ExitCode() != 0 {
		return false, fmt.Errorf("decoder exit status %d", v.ExitCode())
	}
	return st == StatusDone, nil
}
