// Package artifact is the persistent tier under the in-process snapshot
// cache: a content-addressed on-disk store of decoder snapshot
// artifacts — the pristine memory image plus the lowered/optimized uop
// block cache — so translation and snapshot work for a given decoder is
// paid once per fleet, not once per process (ROADMAP item 2; the
// serving-at-scale corollary of the paper's self-contained-decoder
// thesis).
//
// Keying. An artifact is addressed by the triple that fully determines
// its contents: the decoder ELF's SHA-256, the translation engine's
// vm.EngineVersion, and a fingerprint of the vm.Config the snapshot was
// built under. Change any of the three and the store simply misses —
// stale artifacts are never consulted, and invalidation is just "bump
// vm.EngineVersion".
//
// Durability and integrity. Saves are atomic (temp file + rename, both
// fsync'd) so a crash can never leave a half-written artifact under a
// live name, and every file carries a whole-artifact checksum. Loads
// verify magic, engine version, decoder hash, config fingerprint,
// length and checksum before a single byte reaches the VM layer; any
// mismatch, truncation or I/O error is returned to the caller, which
// falls back to the ELF build path. A corrupt store can cost a cold
// start — it can never serve wrong bytes or take the daemon down.
//
// Sharing. On Linux the payload is mmap'd read-only and shared, so N
// vxad processes serving the same decoder keep one page-cache copy of
// the pristine image between them. Because saves always rename a fresh
// inode over the old name, a mapped file is immutable. A mapping lives
// exactly as long as the snapshot that aliases into it: when the
// snapshot is collected (its cache line evicted, its VMs gone — a VM
// copies its image and does not hold the snapshot), the mapping goes
// with it, so a shard that evicts and reloads holds what is resident
// and no more.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"vxa/internal/vm"
)

const (
	// fileMagic brands an artifact file; the trailing byte versions the
	// container format itself (header layout), independent of the
	// engine version that governs the payload.
	fileMagic = "VXAART1\x00"

	// headerLen is the fixed artifact-file prefix:
	// magic(8) engineVersion(4) cfgFP(8) payloadLen(8) crc(4) hash(32).
	headerLen = 64

	// Suffix is the artifact file extension (shared with vxwarm's
	// tarball packer).
	Suffix = ".vxart"
)

// castagnoli is the CRC-32C table: hardware-accelerated on amd64/arm64,
// which keeps whole-artifact verification cheap enough that a disk-warm
// load stays in the same latency class as an in-process warm hit.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of store activity. Hits+Misses
// count probes; Fallbacks counts loads that failed verification or I/O
// after the file was found (the corrupt-store signal, always also a
// miss from the caller's point of view).
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Fallbacks   int64 `json:"fallbacks"`
	Saves       int64 `json:"saves"`
	SaveErrors  int64 `json:"save_errors"`
	BytesLoaded int64 `json:"bytes_loaded"`
	BytesSaved  int64 `json:"bytes_saved"`
	LoadNanos   int64 `json:"load_nanos"`

	// MappedBytes is the artifact bytes live snapshots alias right now:
	// up on every load, down when a loaded snapshot is collected and its
	// mapping released. It follows the resident decoder set, not the
	// number of loads.
	MappedBytes int64 `json:"mapped_bytes"`

	// ELF-hash index traffic (see index.go). An IndexHits probe saved
	// the caller a decoder compile; an IndexMisses probe cost nothing
	// but the failed read.
	IndexHits   int64 `json:"index_hits"`
	IndexMisses int64 `json:"index_misses"`
}

// Store is a directory of checksummed snapshot artifacts. All methods
// are safe for concurrent use.
type Store struct {
	dir string

	hits, misses, fallbacks atomic.Int64
	saves, saveErrors       atomic.Int64
	bytesLoaded, bytesSaved atomic.Int64
	loadNanos               atomic.Int64
	mappedBytes             atomic.Int64
	indexHits, indexMisses  atomic.Int64
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ConfigFingerprint condenses the vm.Config fields that shape a
// snapshot into 8 bytes of its description's SHA-256. Deriving it from
// the printed struct means any future Config field automatically
// changes the fingerprint — new knobs can never alias old artifacts.
func ConfigFingerprint(cfg vm.Config) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg)))
	return binary.LittleEndian.Uint64(h[:8])
}

// Path returns the artifact file path for a decoder hash + config
// pair under the current engine version. Files are fanned out by the
// leading hash byte to keep directories small at fleet scale.
func (s *Store) Path(hash [32]byte, cfg vm.Config) string {
	name := fmt.Sprintf("%x-e%d-c%016x%s", hash, vm.EngineVersion, ConfigFingerprint(cfg), Suffix)
	return filepath.Join(s.dir, fmt.Sprintf("%02x", hash[0]), name)
}

// Load probes the store for the decoder's artifact and reconstructs
// its snapshot. A missing file is a plain miss (error wraps
// os.ErrNotExist); anything else that goes wrong — torn write, bit
// rot, foreign engine, hash mismatch — is counted as a fallback and
// returned as an error. Load never panics on hostile file contents.
func (s *Store) Load(hash [32]byte, cfg vm.Config) (*vm.Snapshot, error) {
	start := time.Now()
	data, err := mapFile(s.Path(hash, cfg))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, fmt.Errorf("artifact: %w", err)
		}
		s.misses.Add(1)
		s.fallbacks.Add(1)
		return nil, fmt.Errorf("artifact: read: %w", err)
	}
	snap, err := s.decode(hash, cfg, data)
	if err != nil {
		unmapFile(data)
		s.misses.Add(1)
		s.fallbacks.Add(1)
		return nil, err
	}
	// The snapshot aliases data (the memory image and nothing else:
	// blocks are rebuilt on the heap, and every VM copies the image), so
	// the mapping is released when the snapshot is.
	s.mappedBytes.Add(int64(len(data)))
	runtime.SetFinalizer(snap, func(*vm.Snapshot) {
		unmapFile(data)
		s.mappedBytes.Add(-int64(len(data)))
	})
	s.hits.Add(1)
	s.bytesLoaded.Add(int64(len(data)))
	s.loadNanos.Add(time.Since(start).Nanoseconds())
	return snap, nil
}

func (s *Store) decode(hash [32]byte, cfg vm.Config, data []byte) (*vm.Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("artifact: truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != fileMagic {
		return nil, fmt.Errorf("artifact: bad magic")
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != vm.EngineVersion {
		return nil, fmt.Errorf("artifact: engine version %d, want %d", v, vm.EngineVersion)
	}
	if fp := le.Uint64(data[12:]); fp != ConfigFingerprint(cfg) {
		return nil, fmt.Errorf("artifact: config fingerprint mismatch")
	}
	payloadLen := le.Uint64(data[20:])
	if payloadLen != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("artifact: payload length %d, file carries %d", payloadLen, len(data)-headerLen)
	}
	if got := [32]byte(data[32:64]); got != hash {
		return nil, fmt.Errorf("artifact: decoder hash mismatch")
	}
	// The checksum covers the header (with the crc field zeroed) and
	// the payload, so a flipped bit anywhere in the file is caught.
	var hdr [headerLen]byte
	copy(hdr[:], data[:headerLen])
	le.PutUint32(hdr[28:], 0)
	crc := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, data[headerLen:])
	if crc != le.Uint32(data[28:]) {
		return nil, fmt.Errorf("artifact: checksum mismatch")
	}
	snap, err := vm.Deserialize(data[headerLen:])
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return snap, nil
}

// Save serializes the snapshot and atomically publishes it under the
// decoder's content address: written to a temp file in the same
// directory, fsync'd, renamed over the final name, directory fsync'd.
// Readers (and mmap'd loads in other processes) either see the old
// complete artifact or the new complete artifact, never a tear.
func (s *Store) Save(hash [32]byte, cfg vm.Config, snap *vm.Snapshot) error {
	err := s.save(hash, cfg, snap)
	if err != nil {
		s.saveErrors.Add(1)
		return err
	}
	s.saves.Add(1)
	return nil
}

func (s *Store) save(hash [32]byte, cfg vm.Config, snap *vm.Snapshot) error {
	payload, err := snap.Serialize()
	if err != nil {
		return fmt.Errorf("artifact: serialize: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:8], fileMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], vm.EngineVersion)
	le.PutUint64(hdr[12:], ConfigFingerprint(cfg))
	le.PutUint64(hdr[20:], uint64(len(payload)))
	copy(hdr[32:64], hash[:])
	crc := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, payload)
	le.PutUint32(hdr[28:], crc)

	path := s.Path(hash, cfg)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: save: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*"+Suffix)
	if err != nil {
		return fmt.Errorf("artifact: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(payload)
		if err == nil {
			err = tmp.Sync()
		}
	} else {
		tmp.Close()
		return fmt.Errorf("artifact: save: %w", err)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("artifact: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact: save: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	s.bytesSaved.Add(int64(headerLen + len(payload)))
	return nil
}

// Stats returns a consistent-enough snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Fallbacks:   s.fallbacks.Load(),
		Saves:       s.saves.Load(),
		SaveErrors:  s.saveErrors.Load(),
		BytesLoaded: s.bytesLoaded.Load(),
		BytesSaved:  s.bytesSaved.Load(),
		LoadNanos:   s.loadNanos.Load(),
		MappedBytes: s.mappedBytes.Load(),
		IndexHits:   s.indexHits.Load(),
		IndexMisses: s.indexMisses.Load(),
	}
}
