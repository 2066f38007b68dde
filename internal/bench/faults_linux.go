package bench

import "syscall"

// CountsMinorFaults says whether LedgerRow.MinorFaults is measured on
// this platform.
const CountsMinorFaults = true

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name: getrusage for the calling thread alone.
const rusageThread = 1

// threadMinorFaults is the minor page faults the calling OS thread has
// taken so far. The caller locks its goroutine to the thread around what
// it measures.
func threadMinorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}
