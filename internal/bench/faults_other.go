//go:build !linux

package bench

// CountsMinorFaults says whether LedgerRow.MinorFaults is measured on
// this platform: there is no per-thread getrusage here.
const CountsMinorFaults = false

func threadMinorFaults() int64 { return 0 }
