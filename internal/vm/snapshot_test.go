package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// counterProgram is a multi-stream guest with observable state: each
// stream writes the 4-byte counter to stdout, increments it, and signals
// done. Without a reset, successive streams see 0, 1, 2, ...
func counterProgram(u *asm.Unit) {
	u.DefBSS("ctr", 4, 4)
	u.Label("start")
	u.Label("loop")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("ctr"))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(4))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("ctr"))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.M(x86.ECX, 0))
	u.Op1(x86.INC, x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.M(x86.ECX, 0), x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Jmp("loop")
}

func runStream(t *testing.T, v *VM) []byte {
	t.Helper()
	var out bytes.Buffer
	v.Stdout = &out
	if st, err := v.Run(); err != nil || st != StatusDone {
		t.Fatalf("run: st=%v err=%v", st, err)
	}
	return out.Bytes()
}

func counterValue(t *testing.T, out []byte) uint32 {
	t.Helper()
	if len(out) != 4 {
		t.Fatalf("stream wrote %d bytes, want 4", len(out))
	}
	return uint32(out[0]) | uint32(out[1])<<8 | uint32(out[2])<<16 | uint32(out[3])<<24
}

// TestSnapshotReset: a reset rewinds guest memory, registers and bounds
// to the captured image, erasing everything later streams did.
func TestSnapshotReset(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, counterProgram)
	snap := v.Snapshot()

	if got := counterValue(t, runStream(t, v)); got != 0 {
		t.Fatalf("stream 1 counter = %d, want 0", got)
	}
	if got := counterValue(t, runStream(t, v)); got != 1 {
		t.Fatalf("stream 2 counter = %d, want 1 (no reset)", got)
	}

	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	if v.Stdin != nil || v.Stdout != nil || v.Stderr != nil {
		t.Fatal("reset must detach the I/O streams")
	}
	if got := counterValue(t, runStream(t, v)); got != 0 {
		t.Fatalf("post-reset counter = %d, want 0 (state leaked)", got)
	}
	if v.EIP() == snap.eip {
		// The VM is parked after the done gate; only right after Reset
		// should it sit at the snapshot entry again.
		t.Fatal("expected the VM to have advanced past the entry point")
	}
}

// TestSnapshotRestoresBounds: heap growth (setperm) is rolled back.
func TestSnapshotRestoresBounds(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
		u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(PageSize))
		u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(1<<20))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
		u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
		u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	})
	snap := v.Snapshot()
	brk0 := v.Brk()
	v.Stdout = &bytes.Buffer{}
	if st, err := v.Run(); err != nil || st != StatusDone {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if v.Brk() <= brk0 {
		t.Fatalf("setperm did not grow the heap (brk=%#x)", v.Brk())
	}
	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	if v.Brk() != brk0 {
		t.Fatalf("post-reset brk = %#x, want %#x", v.Brk(), brk0)
	}
}

// heapProbeProgram grows the heap by 1 MiB, writes the probe byte (well
// above the program image) to stdout, then dirties it, once per stream.
func heapProbeProgram(u *asm.Unit) {
	const probe = 0x90000
	u.Label("start")
	u.Label("loop")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(PageSize))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(1<<20))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysWrite))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.I(1))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(probe))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(1))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(probe))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(0xAB))
	u.Op2(x86.MOV, x86.M(x86.ECX, 0), x86.R(x86.EAX))
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
	u.Jmp("loop")
}

// TestSetPermZeroesReusedHeap: heap bytes a previous stream dirtied must
// read zero after Reset rolls brk back and setperm re-exposes them. This
// pins the dirty-high-water-mark fast path: pristine pages are exposed
// without clearing, but anything below the mark is scrubbed.
func TestSetPermZeroesReusedHeap(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, heapProbeProgram)
	snap := v.Snapshot()

	if got := runStream(t, v); len(got) != 1 || got[0] != 0 {
		t.Fatalf("fresh heap probe = %#v, want [0]", got)
	}
	// Without a reset the heap persists: the second setperm finds the
	// region already accessible and the dirtied byte survives.
	if got := runStream(t, v); len(got) != 1 || got[0] != 0xAB {
		t.Fatalf("no-reset probe = %#v, want [0xAB]", got)
	}
	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	if got := runStream(t, v); len(got) != 1 || got[0] != 0 {
		t.Fatalf("post-reset probe = %#v, want [0] (dirty heap leaked through setperm)", got)
	}
	// A sibling materialized from the same snapshot starts pristine and
	// exposes the pure skip path (nothing below its mark to scrub).
	v2 := snap.NewVM()
	if got := runStream(t, v2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sibling VM probe = %#v, want [0]", got)
	}
}

// TestSnapshotNewVM: VMs materialized from one snapshot are independent.
func TestSnapshotNewVM(t *testing.T) {
	v1, _ := buildVM(t, Config{}, nil, counterProgram)
	snap := v1.Snapshot()

	runStream(t, v1)
	runStream(t, v1) // v1's counter is now 2

	v2 := snap.NewVM()
	if got := counterValue(t, runStream(t, v2)); got != 0 {
		t.Fatalf("fresh-from-snapshot counter = %d, want 0", got)
	}
	if got := counterValue(t, runStream(t, v1)); got != 2 {
		t.Fatalf("original VM counter = %d, want 2 (snapshot VMs must not alias)", got)
	}
}

// TestAbsorbBlocks: read-only-text fragments decoded by one VM warm the
// snapshot, so later VMs start with a populated translation cache.
func TestAbsorbBlocks(t *testing.T) {
	v1, _ := buildVM(t, Config{}, nil, counterProgram)
	snap := v1.Snapshot()
	if snap.BlockCount() != 0 {
		t.Fatalf("pristine snapshot has %d blocks", snap.BlockCount())
	}
	runStream(t, v1)
	snap.AbsorbBlocks(v1)
	if snap.BlockCount() == 0 {
		t.Fatal("AbsorbBlocks picked up nothing from a warmed-up VM")
	}

	v2 := snap.NewVM()
	runStream(t, v2)
	if built := v2.Stats().BlocksBuilt; built != 0 {
		t.Fatalf("warm-cache VM built %d blocks, want 0", built)
	}
}

// TestSetFuel: the budget is absolute, not additive.
func TestSetFuel(t *testing.T) {
	v, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	v.SetFuel(7)
	v.SetFuel(7)
	if v.FuelRemaining() != 7 {
		t.Fatalf("fuel = %d, want 7 (SetFuel must not accumulate)", v.FuelRemaining())
	}
	v.SetFuel(10)
	v.SetFuel(7)
	if v.FuelRemaining() != 7 {
		t.Fatalf("fuel = %d, want 7 (SetFuel is absolute)", v.FuelRemaining())
	}
}

// TestSnapshotInvalidatesChains: block chaining is per-VM state. After a
// Reset every chained successor link must be dropped, and VMs
// materialized from one snapshot must chain independently — the shared
// decoded blocks themselves stay common.
func TestSnapshotInvalidatesChains(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, counterProgram)
	snap := v.Snapshot()
	runStream(t, v)
	snap.AbsorbBlocks(v)

	if chained := v.Stats().BlocksChained; chained == 0 {
		t.Fatal("running the counter program installed no chain links")
	}
	for _, br := range v.blocks {
		if br.taken != nil || br.fall != nil || br.ind != nil {
			// Found at least one link; verify Reset drops them all.
			if err := v.Reset(snap); err != nil {
				t.Fatal(err)
			}
			for addr, nbr := range v.blocks {
				if nbr.taken != nil || nbr.fall != nil || nbr.ind != nil {
					t.Fatalf("block %#x kept a chain link across Reset", addr)
				}
			}
			// And the VM still runs correctly from the invalidated state.
			if got := counterValue(t, runStream(t, v)); got != 0 {
				t.Fatalf("post-reset counter = %d, want 0", got)
			}
			return
		}
	}
	t.Fatal("no chain links found on any cached block")
}

// TestSnapshotSharedUopCacheRace: many VMs materialized from one warmed
// snapshot run concurrently, each building its own chain links over the
// shared immutable uop arrays. Run with -race this pins the sharing
// contract: blocks are read-only, chains are per-VM.
func TestSnapshotSharedUopCacheRace(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, counterProgram)
	snap := v.Snapshot()
	runStream(t, v)
	snap.AbsorbBlocks(v)

	const vms = 8
	done := make(chan error, vms)
	for i := 0; i < vms; i++ {
		go func() {
			w := snap.NewVM()
			for s := 0; s < 4; s++ {
				var out bytes.Buffer
				w.Stdout = &out
				if st, err := w.Run(); err != nil || st != StatusDone {
					done <- err
					return
				}
				if got := uint32(out.Bytes()[0]); got != uint32(s) {
					done <- &Trap{Msg: "bad counter"}
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < vms; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuelBudgetEnforced: a looping guest with a tiny absolute budget
// stops with a fuel trap.
func TestFuelBudgetEnforced(t *testing.T) {
	v, _ := buildVM(t, Config{}, nil, func(u *asm.Unit) {
		u.Label("start")
		u.Label("spin")
		u.Jmp("spin")
	})
	v.SetFuel(100)
	_, err := v.Run()
	if k, ok := trapKind(err); !ok || k != TrapFuel {
		t.Fatalf("err = %v, want fuel trap", err)
	}
}

// TestResetSizeMismatch: restoring across address-space sizes is refused.
func TestResetSizeMismatch(t *testing.T) {
	small, err := New(Config{MemSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(Config{MemSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Reset(small.Snapshot()); err == nil {
		t.Fatal("reset across memory sizes must fail")
	}
}

// pokeProgram is a guest that does what its input stream tells it: every
// 12-byte command (op, addr, value) is either a one-byte store of value
// at addr (op 0) or setperm(addr, value) (op 1); at end of input it
// signals done. The command lands in the BSS buffer "cmd"; the guest
// uses no stack of its own.
func pokeProgram(u *asm.Unit) {
	gate := x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1}
	u.DefBSS("cmd", 12, 4)
	u.Label("start")
	u.Label("next")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysRead))
	u.Op2(x86.XOR, x86.R(x86.EBX), x86.R(x86.EBX))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.ISym("cmd"))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.I(12))
	u.Op1(x86.INT, gate)
	u.Op2(x86.CMP, x86.R(x86.EAX), x86.I(12))
	u.Jcc(x86.CCNE, "finish")
	u.Op2(x86.MOV, x86.R(x86.ESI), x86.MAbs("cmd", 0, 4))
	u.Op2(x86.MOV, x86.R(x86.EDI), x86.MAbs("cmd", 4, 4))
	u.Op2(x86.MOV, x86.R(x86.EDX), x86.MAbs("cmd", 8, 4))
	u.Op2(x86.TEST, x86.R(x86.ESI), x86.R(x86.ESI))
	u.Jcc(x86.CCNE, "grow")
	u.Op2(x86.MOV, x86.M8(x86.EDI, 0), x86.R8(x86.EDX))
	u.Jmp("next")
	u.Label("grow")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysSetPerm))
	u.Op2(x86.MOV, x86.R(x86.EBX), x86.R(x86.EDI))
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.R(x86.EDX))
	u.Op1(x86.INT, gate)
	u.Jmp("next")
	u.Label("finish")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
	u.Op1(x86.INT, gate)
	u.Jmp("next")
}

// TestSparseImageProperty: whatever a VM has been through — guest stores
// into heap and stack, heap growth, resets that shrink the heap again —
// a snapshot of it restores to exactly the memory it had, on a fresh
// mapping, on a reused VM however dirty, and on an address space that is
// plain heap memory (the allocator's fallback). The test keeps a dense
// model of guest memory, applies every command to it that the guest
// executes, and compares all of the accessible regions after every
// stream and every restore; memory that growth exposes must be zero even
// where an earlier life of the VM left something.
func TestSparseImageProperty(t *testing.T) {
	cfg := Config{MemSize: 1 << 20, StackSize: 64 << 10}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v, _ := buildVM(t, cfg, nil, pokeProgram)
		memSize, stackBase, roLimit := uint32(len(v.mem)), v.stackBase, v.roLimit
		cmdAddr := v.m.Brk - 12 // the BSS buffer ends the image
		for cmdAddr%4 != 0 {
			cmdAddr--
		}

		// The model: every byte of guest memory and the heap end.
		ref := append([]byte(nil), v.mem...)
		brk := v.m.Brk
		check := func(what string) {
			t.Helper()
			if v.m.Brk != brk {
				t.Fatalf("seed %d, %s: brk %#x, model %#x", seed, what, v.m.Brk, brk)
			}
			if !bytes.Equal(v.mem[:brk], ref[:brk]) {
				i := 0
				for v.mem[i] == ref[i] {
					i++
				}
				t.Fatalf("seed %d, %s: heap differs from the model at %#x: %#x, want %#x", seed, what, i, v.mem[i], ref[i])
			}
			if !bytes.Equal(v.mem[stackBase:], ref[stackBase:]) {
				t.Fatalf("seed %d, %s: stack differs from the model", seed, what)
			}
		}

		// stream runs one batch of commands through the guest and the model.
		stream := func() {
			var in []byte
			cmd := func(op, addr, val uint32) {
				var c [12]byte
				binary.LittleEndian.PutUint32(c[0:], op)
				binary.LittleEndian.PutUint32(c[4:], addr)
				binary.LittleEndian.PutUint32(c[8:], val)
				in = append(in, c[:]...)
				copy(ref[cmdAddr:], c[:])
				if op == 0 {
					ref[addr] = byte(val)
				} else {
					brk = max(brk, addr+val)
				}
			}
			for n := rng.Intn(12); n > 0; n-- {
				val := uint32(1 + rng.Intn(255))
				switch rng.Intn(6) {
				case 0: // grow the heap by up to eight pages, if there is room
					if grow := uint32(1+rng.Intn(8)) * PageSize; brk+grow <= stackBase-PageSize {
						cmd(1, brk, grow)
					}
				case 1: // the stack's first byte, and its last
					cmd(0, stackBase, val)
					cmd(0, memSize-1, val)
				case 2: // anywhere in the stack
					cmd(0, stackBase+uint32(rng.Intn(int(memSize-stackBase))), val)
				default: // anywhere in the writable heap
					cmd(0, roLimit+uint32(rng.Intn(int(brk-roLimit))), val)
				}
			}
			v.Stdin = bytes.NewReader(in)
			runStream(t, v)
			check("after a stream")
		}

		var snap *Snapshot
		var dense []byte // the model when snap was taken
		var denseBrk uint32
		restored := func(what string) {
			ref, brk = append(ref[:0], dense...), denseBrk
			check(what)
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(8); {
			case snap == nil || op == 0:
				snap = v.Snapshot()
				dense, denseBrk = append([]byte(nil), ref...), brk
				if rng.Intn(2) == 0 { // as an artifact would bring it back
					data, err := snap.Serialize()
					if err != nil {
						t.Fatal(err)
					}
					if snap, err = Deserialize(data); err != nil {
						t.Fatal(err)
					}
				}
			case op == 1:
				if err := v.Reset(snap); err != nil {
					t.Fatal(err)
				}
				restored("after Reset")
			case op == 2:
				v = snap.NewVM()
				restored("after NewVM")
			case op == 3:
				// What allocGuestMem falls back to when the kernel gives it
				// no mapping.
				v = &VM{mem: make([]byte, memSize), memOwner: &guestMem{}, dirtyBrk: PageSize, stackLow: memSize}
				snap.restore(v)
				restored("after a restore onto heap memory")
			default:
				stream()
			}
		}
	}
}

// TestResetAcrossStackSizes: a VM rewound onto a snapshot with a larger
// stack than the one it came from gets a zero stack even where its old
// heap had grown into what is now the stack window.
func TestResetAcrossStackSizes(t *testing.T) {
	small := Config{MemSize: 1 << 20, StackSize: 16 << 10}
	v, _ := buildVM(t, small, nil, pokeProgram)
	top := v.stackBase - PageSize // as far as the heap may grow
	var in []byte
	for _, c := range [][3]uint32{{1, v.m.Brk, top - v.m.Brk}, {0, top - 1, 0xEE}, {0, top - 3*PageSize, 0xEE}} {
		for _, x := range c {
			in = binary.LittleEndian.AppendUint32(in, x)
		}
	}
	v.Stdin = bytes.NewReader(in)
	runStream(t, v)

	w, err := New(Config{MemSize: 1 << 20, StackSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big := w.Snapshot()
	if big.stackBase >= top-3*PageSize {
		t.Fatal("the second snapshot's stack does not reach the first VM's heap")
	}
	if err := v.Reset(big); err != nil {
		t.Fatal(err)
	}
	if stack := v.mem[v.stackBase:]; !bytes.Equal(stack, make([]byte, len(stack))) {
		t.Fatal("bytes of the old heap survived the reset inside the new stack window")
	}
}
