package tier2

// execBuf owns one executable code mapping for a native trace. The
// platform-specific backend (native_amd64.go) allocates and seals it;
// on platforms without a native backend it is never instantiated. The
// Trace keeps the pointer so the mapping outlives every run of it; a
// finalizer returns it to the kernel when the trace becomes unreachable
// — dropped by the snapshot that published it and by every VM's view.
type execBuf struct {
	buf []byte
}
