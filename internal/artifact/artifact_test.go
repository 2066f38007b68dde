package artifact

import (
	"archive/tar"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vxa/internal/vm"
	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

var testCfg = vm.Config{MemSize: 4 << 20}

// buildSnapshot assembles a tiny multi-stream counter guest, runs one
// stream to warm the translation cache, absorbs it, and returns the
// snapshot, a synthetic decoder hash, and the stream's golden output.
func buildSnapshot(t *testing.T) (*vm.Snapshot, [32]byte, []byte) {
	t.Helper()
	u := asm.New()
	u.DefBSS("ctr", 4, 4)
	u.Label("start")
	u.Label("loop")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(vm.SysWrite))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("ctr"))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(4))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("ctr"))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.M(x86.ECX, 0))
	u.Op1(x86.INC, x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.M(x86.ECX, 0), x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(vm.SysDone))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Jmp("loop")
	im, err := u.Link(vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	ro := append(append([]byte{}, im.Text...), im.ROData...)
	if err := v.MapSegment(im.Base, ro, uint32(len(ro)), true); err != nil {
		t.Fatal(err)
	}
	if rw := uint32(len(im.Data)) + im.BSSSize; rw > 0 {
		if err := v.MapSegment(im.DataBase(), im.Data, rw, false); err != nil {
			t.Fatal(err)
		}
	}
	v.SetEntry(im.Symbols["start"])
	snap := v.Snapshot()
	var out bytes.Buffer
	v.Stdout = &out
	if st, err := v.Run(); err != nil || st != vm.StatusDone {
		t.Fatalf("warm stream: st=%v err=%v", st, err)
	}
	snap.AbsorbBlocks(v)
	if snap.BlockCount() == 0 {
		t.Fatal("no blocks absorbed")
	}
	hash := [32]byte{}
	copy(hash[:], "test-decoder-content-hash-000001")
	return snap, hash, out.Bytes()
}

func runStream(t *testing.T, snap *vm.Snapshot) ([]byte, vm.Stats) {
	t.Helper()
	v := snap.NewVM()
	var out bytes.Buffer
	v.Stdout = &out
	if st, err := v.Run(); err != nil || st != vm.StatusDone {
		t.Fatalf("stream: st=%v err=%v", st, err)
	}
	return out.Bytes(), v.Stats()
}

// TestStoreRoundTrip: save in one store, load in a fresh one (a new
// process in disguise), and the restored snapshot reproduces the golden
// output with zero re-translation.
func TestStoreRoundTrip(t *testing.T) {
	snap, hash, golden := buildSnapshot(t)
	dir := t.TempDir()

	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Save(hash, testCfg, snap); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Load(hash, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockCount() != snap.BlockCount() {
		t.Fatalf("loaded %d blocks, want %d", got.BlockCount(), snap.BlockCount())
	}
	out, stats := runStream(t, got)
	if !bytes.Equal(out, golden) {
		t.Fatalf("loaded snapshot output %x, want %x", out, golden)
	}
	if stats.BlocksBuilt != 0 {
		t.Fatalf("loaded snapshot re-translated %d blocks", stats.BlocksBuilt)
	}
	s := st2.Stats()
	if s.Hits != 1 || s.Misses != 0 || s.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one clean hit", s)
	}
	if s.BytesLoaded == 0 || s.LoadNanos == 0 {
		t.Fatalf("stats = %+v, want load bytes and latency recorded", s)
	}
}

// TestStoreMiss: an absent artifact is a plain miss, not a fallback.
func TestStoreMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load([32]byte{1}, testCfg); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if s := st.Stats(); s.Misses != 1 || s.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one miss, no fallback", s)
	}
}

// TestStoreRejectsDamage: corruption, truncation, engine-version and
// key mismatches all fail the load and count as fallbacks — and none of
// them panics.
func TestStoreRejectsDamage(t *testing.T) {
	snap, hash, _ := buildSnapshot(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(hash, testCfg, snap); err != nil {
		t.Fatal(err)
	}
	path := st.Path(hash, testCfg)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	check := func(name string, wantFallback bool) {
		t.Helper()
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Load(hash, testCfg); err == nil {
			t.Fatalf("%s: load succeeded on damaged artifact", name)
		}
		if s := fresh.Stats(); s.Hits != 0 || (s.Fallbacks > 0) != wantFallback {
			t.Fatalf("%s: stats = %+v, want fallback=%v", name, s, wantFallback)
		}
		restore()
	}

	// Payload bit rot (also exercises that crc covers the body).
	d := append([]byte(nil), pristine...)
	d[len(d)-1] ^= 0x01
	os.WriteFile(path, d, 0o644)
	check("payload corruption", true)

	// Header bit rot.
	d = append([]byte(nil), pristine...)
	d[33] ^= 0xff
	os.WriteFile(path, d, 0o644)
	check("header corruption", true)

	// Truncation.
	os.WriteFile(path, pristine[:len(pristine)/2], 0o644)
	check("truncation", true)
	os.WriteFile(path, pristine[:17], 0o644)
	check("header truncation", true)
	os.WriteFile(path, nil, 0o644)
	check("empty file", true)

	// Engine-version mismatch with a recomputed checksum: the file is
	// internally consistent, just written by a different engine.
	d = append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(d[8:], vm.EngineVersion+1)
	rehash(d)
	os.WriteFile(path, d, 0o644)
	check("engine version mismatch", true)

	// The previous generation, as a store written before the last
	// upgrade would hold under a name that happens to match: refused, and
	// the caller rebuilds from the ELF.
	d = append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(d[8:], vm.EngineVersion-1)
	rehash(d)
	os.WriteFile(path, d, 0o644)
	check("artifact of the previous engine version", true)

	// Stored decoder hash differs from the requested one (a mis-filed
	// artifact must not load for the wrong decoder).
	d = append([]byte(nil), pristine...)
	d[32+5] ^= 0xff
	rehash(d)
	os.WriteFile(path, d, 0o644)
	check("decoder hash mismatch", true)

	// Config mismatch is a different address: plain miss, no fallback.
	fresh, _ := Open(dir)
	other := testCfg
	other.MemSize = 8 << 20
	if _, err := fresh.Load(hash, other); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("config-mismatch load: err = %v, want ErrNotExist", err)
	}

	// And after every round of damage, the pristine bytes still load.
	if _, err := fresh.Load(hash, testCfg); err != nil {
		t.Fatalf("pristine reload failed: %v", err)
	}
}

// rehash recomputes an artifact file's whole-file checksum in place.
func rehash(d []byte) {
	le := binary.LittleEndian
	le.PutUint32(d[28:], 0)
	var hdr [headerLen]byte
	copy(hdr[:], d[:headerLen])
	crc := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, d[headerLen:])
	le.PutUint32(d[28:], crc)
}

// TestPackUnpack: artifacts exported from one store import into
// another and load cleanly; hostile entry names are rejected.
func TestPackUnpack(t *testing.T) {
	snap, hash, golden := buildSnapshot(t)
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Save(hash, testCfg, snap); err != nil {
		t.Fatal(err)
	}

	key := [32]byte{9}
	if err := src.RecordELF(key, hash); err != nil {
		t.Fatal(err)
	}

	var tarball bytes.Buffer
	n, err := src.Pack(&tarball)
	if err != nil || n != 2 {
		t.Fatalf("pack: n=%d err=%v, want the artifact and the index entry", n, err)
	}

	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Unpack(bytes.NewReader(tarball.Bytes())); err != nil || n != 2 {
		t.Fatalf("unpack: n=%d err=%v", n, err)
	}
	got, err := dst.Load(hash, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := runStream(t, got); !bytes.Equal(out, golden) {
		t.Fatalf("unpacked snapshot output %x, want %x", out, golden)
	}
	if h, ok := dst.LookupELF(key); !ok || h != hash {
		t.Fatalf("index entry did not survive pack/unpack: ok=%v h=%x", ok, h)
	}

	// A traversal entry must be refused before anything is written.
	evil := makeTar(t, "../escape"+Suffix, []byte("boom"))
	if _, err := dst.Unpack(bytes.NewReader(evil)); err == nil {
		t.Fatal("unpack accepted a path-traversal entry")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dst.Dir()), "escape"+Suffix)); err == nil {
		t.Fatal("traversal entry escaped the store")
	}
	// Non-artifact entries are skipped, not extracted.
	other := makeTar(t, "notes.txt", []byte("hi"))
	if n, err := dst.Unpack(bytes.NewReader(other)); err != nil || n != 0 {
		t.Fatalf("unpack of non-artifact: n=%d err=%v", n, err)
	}
}

// TestStoreConcurrent: concurrent saves and loads of the same artifact
// are race-free (run with -race) and every successful load behaves.
func TestStoreConcurrent(t *testing.T) {
	snap, hash, golden := buildSnapshot(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(hash, testCfg, snap); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(save bool) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if save {
					if err := st.Save(hash, testCfg, snap); err != nil {
						t.Error(err)
						return
					}
				} else {
					got, err := st.Load(hash, testCfg)
					if err != nil {
						t.Error(err)
						return
					}
					if out, _ := runStream(t, got); !bytes.Equal(out, golden) {
						t.Errorf("load under contention: output %x", out)
						return
					}
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	if s := st.Stats(); s.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want no fallbacks under clean contention", s)
	}
}

func makeTar(t *testing.T, name string, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(body))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Paths in artifact names stay hex-and-metadata only.
func TestPathShape(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := st.Path([32]byte{0xab, 0xcd}, testCfg)
	rel, err := filepath.Rel(st.Dir(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rel, "ab"+string(filepath.Separator)+"abcd") || !strings.HasSuffix(rel, Suffix) {
		t.Fatalf("unexpected artifact path shape %q", rel)
	}
	if !strings.Contains(rel, fmt.Sprintf("-e%d-", vm.EngineVersion)) {
		t.Fatalf("path %q does not carry the engine version", rel)
	}
}
