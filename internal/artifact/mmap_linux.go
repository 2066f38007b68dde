//go:build linux

package artifact

import (
	"os"
	"syscall"
)

// mapFile maps the artifact read-only and shared: every vxad process on
// the host that loads the same artifact shares one page-cache copy of
// the pristine decoder image. Because saves publish by renaming a fresh
// inode over the old name, a mapped file can never change underneath
// us. Empty files take the read path (zero-length mmap is an error).
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size != int64(int(size)) {
		return os.ReadFile(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems that refuse mmap still get correctness.
		return os.ReadFile(path)
	}
	return data, nil
}

// unmapFile releases what mapFile returned, once nothing aliases it: a
// file that failed verification, or one whose snapshot was collected.
// For a buffer mapFile had to read instead of map, Munmap refuses and
// the collector frees it.
func unmapFile(data []byte) {
	if len(data) > 0 {
		syscall.Munmap(data)
	}
}
