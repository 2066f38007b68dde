package vm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// warmSnapshot builds the counter program, runs one stream to populate
// the translation cache, absorbs it, and returns the snapshot plus the
// first stream's output (the golden bytes every restored VM must
// reproduce).
func warmSnapshot(t *testing.T) (*Snapshot, []byte) {
	t.Helper()
	v, _ := buildVM(t, Config{MemSize: 4 << 20}, nil, counterProgram)
	snap := v.Snapshot()
	out := runStream(t, v)
	snap.AbsorbBlocks(v)
	if snap.BlockCount() == 0 {
		t.Fatal("warm snapshot has no blocks")
	}
	return snap, out
}

// TestSerializeRoundTrip: a deserialized snapshot materializes VMs that
// behave identically to the original — same guest output, and the warm
// block cache survives (no re-translation).
func TestSerializeRoundTrip(t *testing.T) {
	snap, golden := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockCount() != snap.BlockCount() {
		t.Fatalf("restored %d blocks, want %d", got.BlockCount(), snap.BlockCount())
	}
	if got.Footprint() != snap.Footprint() {
		t.Fatalf("restored footprint %d, want %d", got.Footprint(), snap.Footprint())
	}
	v := got.NewVM()
	if out := runStream(t, v); !bytes.Equal(out, golden) {
		t.Fatalf("restored VM output %x, want %x", out, golden)
	}
	if built := v.Stats().BlocksBuilt; built != 0 {
		t.Fatalf("restored VM built %d blocks, want 0 (uop cache lost)", built)
	}
	// Second stream without reset continues where the first stopped —
	// restored snapshots carry live state, not just the image.
	if ctr := counterValue(t, runStream(t, v)); ctr != 1 {
		t.Fatalf("second stream counter = %d, want 1", ctr)
	}
}

// TestSerializeDeterministic: the same snapshot always serializes to
// the same bytes (blocks are emitted in address order, not map order) —
// the property that makes artifact re-save cheap to detect.
func TestSerializeDeterministic(t *testing.T) {
	snap, _ := warmSnapshot(t)
	a, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two serializations of one snapshot differ")
	}
}

// TestDeserializeTruncated: every truncation either decodes to an error
// or (for a full-length payload) succeeds — never panics.
func TestDeserializeTruncated(t *testing.T) {
	snap, _ := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{}
	for n := 0; n < len(data) && n < 256; n++ {
		lengths = append(lengths, n)
	}
	for n := 256; n < len(data); n += 4099 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, len(data)-1)
	for _, n := range lengths {
		if _, err := Deserialize(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
}

// TestDeserializeRejects: targeted corruptions of the structural fields
// are all refused; a block outside the read-only text and a superblock
// that leaves it, each by its own check.
func TestDeserializeRejects(t *testing.T) {
	snap, _ := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian

	corrupt := func(name string, mutate func(d []byte)) error {
		d := append([]byte(nil), data...)
		mutate(d)
		_, err := Deserialize(d)
		if err == nil {
			t.Errorf("%s: corrupted payload decoded cleanly", name)
		}
		return err
	}
	// refusedFor reports a refusal by another check than the one named.
	refusedFor := func(name string, err error, want string) {
		if err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: refused with %q, want the %q check to fire", name, err, want)
		}
	}

	corrupt("magic", func(d []byte) { d[0] ^= 0xff })
	corrupt("engine version", func(d []byte) { le.PutUint32(d[4:], EngineVersion+1) })
	corrupt("memSize not page multiple", func(d []byte) { le.PutUint32(d[8:], le.Uint32(d[8:])+1) })
	corrupt("brk past memSize", func(d []byte) { le.PutUint32(d[12:], le.Uint32(d[8:])+PageSize) })
	corrupt("roLimit past brk", func(d []byte) { le.PutUint32(d[16:], le.Uint32(d[12:])+1) })
	corrupt("brk past stackBase", func(d []byte) { le.PutUint32(d[12:], le.Uint32(d[20:])+1) })
	corrupt("stackBase not page multiple", func(d []byte) { le.PutUint32(d[20:], le.Uint32(d[20:])+1) })
	corrupt("extent count overrun", func(d []byte) { le.PutUint32(d[80:], le.Uint32(d[80:])+1) })
	corrupt("block count overrun", func(d []byte) { le.PutUint32(d[84:], le.Uint32(d[84:])+1) })
	// The read-only text ends before the first block does.
	err = corrupt("block outside the text", func(d []byte) { le.PutUint32(d[16:], PageSize) })
	refusedFor("block outside the text", err, "outside the read-only text")
	if _, err := Deserialize(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}

	// Corrupt the first uop's Kind inside the first block. The block
	// section follows the image (an 8-byte table entry and the bytes of
	// each extent); a block is its header, then its raw micro-ops.
	blockOff := snapHeaderLen
	for i := 0; i < int(le.Uint32(data[80:])); i++ {
		blockOff += 8 + int(le.Uint32(data[snapHeaderLen+8*i+4:]))
	}
	uopOff := blockOff + blockHdrLen
	corrupt("uop kind out of range", func(d []byte) { d[uopOff] = 0xff })
	corrupt("uop register out of range", func(d []byte) { d[uopOff+2] = 0x7f })

	// A superblock whose last micro-op ends past the read-only text.
	hot := hotLoopSnapshot(t)
	for _, r := range hot.sbs {
		lie := *r.b
		lie.uops = slices.Clone(lie.uops)
		lie.uops[len(lie.uops)-1].Next = hot.roLimit + 1
		r.b = &lie
		break
	}
	if data, err = hot.Serialize(); err != nil {
		t.Fatal(err)
	}
	_, err = Deserialize(data)
	if err == nil {
		t.Error("superblock leaving the text: decoded cleanly")
	}
	refusedFor("superblock leaving the text", err, "leaves the read-only text")
}

// TestDeserializeRejectsExtents: restore copies every extent of the image
// to its offset unchecked, so the table of a payload — which arrives from
// a shared directory — is refused unless it is what Snapshot writes:
// aligned, ordered, disjoint, inside the accessible windows, all there.
func TestDeserializeRejectsExtents(t *testing.T) {
	const heapA, heapB = 2 * PageSize, 5 * PageSize
	v, err := New(Config{MemSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := v.MapSegment(heapA, page, PageSize, false); err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(heapB, page, 2*PageSize, false); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteMem(v.stackBase+PageSize, page); err != nil {
		t.Fatal(err)
	}
	snap := v.Snapshot()
	if len(snap.image) != 3 {
		t.Fatalf("test image has %d extents, want 3", len(snap.image))
	}
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deserialize(data); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// off and size address the table entry of extent i.
	off := func(d []byte, i int) []byte { return d[snapHeaderLen+8*i:] }
	size := func(d []byte, i int) []byte { return d[snapHeaderLen+8*i+4:] }
	brk, stackBase, memSize := snap.brk, snap.stackBase, snap.memSize

	for _, c := range []struct {
		name, want string
		mutate     func(d []byte)
	}{
		{"unaligned", "not page-aligned", func(d []byte) { le.PutUint32(off(d, 0), heapA+16) }},
		{"empty", "empty image extent", func(d []byte) { le.PutUint32(size(d, 1), 0) }},
		{"overlapping", "overlaps or precedes", func(d []byte) { le.PutUint32(off(d, 1), heapA) }},
		{"out of order", "overlaps or precedes", func(d []byte) {
			le.PutUint32(off(d, 0), heapB)
			le.PutUint32(off(d, 1), heapA)
		}},
		{"in the guard page", "outside the accessible windows", func(d []byte) { le.PutUint32(off(d, 0), 0) }},
		{"at brk", "outside the accessible windows", func(d []byte) { le.PutUint32(off(d, 1), (brk+PageSize-1)&^(PageSize-1)) }},
		{"across brk", "outside the accessible windows", func(d []byte) { le.PutUint32(size(d, 1), brk-heapB+1) }},
		{"below stackBase", "outside the accessible windows", func(d []byte) { le.PutUint32(off(d, 2), stackBase-PageSize) }},
		{"across stackBase", "outside the accessible windows", func(d []byte) { le.PutUint32(size(d, 1), stackBase+PageSize-heapB) }},
		{"past the end of memory", "outside the accessible windows", func(d []byte) { le.PutUint32(size(d, 2), memSize-stackBase) }},
		{"longer than the payload", "truncated", func(d []byte) { le.PutUint32(size(d, 2), memSize-stackBase-PageSize) }},
		{"more extents than pages", "image extents in", func(d []byte) { le.PutUint32(d[80:], memSize/PageSize+1) }},
	} {
		d := append([]byte(nil), data...)
		c.mutate(d)
		if _, err := Deserialize(d); err == nil {
			t.Errorf("%s: decoded cleanly", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want the %q check to fire", c.name, err, c.want)
		}
	}
}

// TestDeserializeRejectsSuperblockCost: tier-1 charges a superblock the
// cost its record carries and a compiled trace the sum over its
// micro-ops, so a payload in which the two differ is refused — or the
// instruction count of a stream would depend on which tier ran it.
func TestDeserializeRejectsSuperblockCost(t *testing.T) {
	snap := soakSharedSnapshot(t, 64, tier2Cfg)
	v := snap.NewVM()
	if _, err := soakStream(v); err != nil {
		t.Fatal(err)
	}
	snap.AbsorbBlocks(v)
	if snap.SBCount() == 0 {
		t.Fatal("no superblock to serialize")
	}
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SBCount() != snap.SBCount() {
		t.Fatalf("round trip kept %d of %d superblocks", back.SBCount(), snap.SBCount())
	}
	for _, r := range snap.sbs {
		lie := *r.b
		lie.cost++
		r.b = &lie
		break
	}
	if data, err = snap.Serialize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Deserialize(data); err == nil {
		t.Fatal("a superblock whose recorded cost is not its micro-ops' sum decoded cleanly")
	}
}

// hotLoopProgram runs a loop of two blocks — an add, a test and branch,
// a xor on one side — 64 times and stops: hot enough for a superblock
// that holds a fused compare guard and a register ALU op.
func hotLoopProgram(u *asm.Unit) {
	u.Label("start")
	u.Op2(x86.MOV, x86.R(x86.ECX), x86.I(0))
	u.Label("loop")
	u.Op2(x86.ADD, x86.R(x86.EAX), x86.R(x86.ECX))
	u.Op2(x86.TEST, x86.R(x86.ECX), x86.I(1))
	u.Jcc(x86.CCE, "skip")
	u.Op2(x86.XOR, x86.R(x86.EAX), x86.I(5))
	u.Label("skip")
	u.Op1(x86.INC, x86.R(x86.ECX))
	u.Op2(x86.CMP, x86.R(x86.ECX), x86.I(64))
	u.Jcc(x86.CCL, "loop")
	u.Op2(x86.MOV, x86.R(x86.EAX), x86.I(SysDone))
	u.Op1(x86.INT, x86.Arg{Kind: x86.KindImm, Imm: 0x80, Size: 1})
}

// hotLoopSnapshot is hotLoopProgram's pristine snapshot with the blocks
// and superblocks of one stream absorbed.
func hotLoopSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	v, _ := buildVM(t, tier2Cfg, nil, hotLoopProgram)
	snap := v.Snapshot()
	runStream(t, v)
	snap.AbsorbBlocks(v)
	if snap.SBCount() == 0 {
		t.Fatal("no superblock formed")
	}
	return snap
}

// TestDeserializeRefusesOperandDomains: the native emitter encodes a
// condition code, an AluOp, a ShOp, a byte-slot shift and a scale into
// host instructions (a condition code is ORed into a jcc's opcode byte),
// so the loader refuses each outside its domain, in a superblock and in
// a block, with an error naming the field; and a register past the
// register file. A block persists what lowering made of its instructions,
// so a record of another cost or of a kind only the optimizer or
// superblock formation makes (a guard, a fused or an NF form) is refused
// there, and so is a control transfer before its last instruction. The
// tier-1-only kinds are held to their domains too: a StrOp, a ShOp and a
// count register. A superblock holds optimized micro-ops, so an NF twin
// is accepted there (want ""). A field the kind does not use is left
// alone.
func TestDeserializeRefusesOperandDomains(t *testing.T) {
	snap := hotLoopSnapshot(t)
	var sb, blk *block
	for _, r := range snap.sbs {
		sb = r.b
	}
	for _, b := range snap.blocks {
		blk = b
	}
	// load replaces the first micro-op of what b persists — a block's raw
	// micro-ops, a superblock's uops — by forged, at the original's EIP,
	// Next and (unless forged has one) Cost, and returns what Deserialize
	// makes of the snapshot then.
	load := func(b *block, forged uop.Uop) error {
		rec := &b.uops
		if b.raw != nil {
			rec = &b.raw
		}
		orig := *rec
		defer func() { *rec = orig }()
		*rec = slices.Clone(orig)
		forged.EIP, forged.Next = orig[0].EIP, orig[0].Next
		if forged.Cost == 0 {
			forged.Cost = orig[0].Cost
		}
		(*rec)[0] = forged
		data, err := snap.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Deserialize(data)
		return err
	}
	z := uop.RegZero
	for _, c := range []struct {
		want string
		b    *block
		u    uop.Uop
	}{
		{"condition code", sb, uop.Uop{Kind: uop.KindGuardTestRI, Sub: 0x20, Imm: 1}},
		{"condition code", blk, uop.Uop{Kind: uop.KindSetccR8, Sub: 16}},
		{"AluOp", sb, uop.Uop{Kind: uop.KindAluRR, Sub: 9, Src: 1}},
		{"AluOp", blk, uop.Uop{Kind: uop.KindAlu8MI, Sub: 0xFF, Base: z, Idx: z}},
		{"ShOp", sb, uop.Uop{Kind: uop.KindShiftRI, Sub: 3, Imm: 1}},
		{"Dsh", sb, uop.Uop{Kind: uop.KindMovRI8, Dsh: 4}},
		{"Ssh", blk, uop.Uop{Kind: uop.KindStore8, Ssh: 16, Base: z, Idx: z}},
		{"Scale", sb, uop.Uop{Kind: uop.KindLoad, Base: z, Idx: 1, Scale: 3}},
		{"register slot", blk, uop.Uop{Kind: uop.KindMovRR, Src: 0x40}},
		{"register slot", sb, uop.Uop{Kind: uop.KindLoad, Base: 0x40, Idx: z}},
		{"not a micro-op Lower emits", blk, uop.Uop{Kind: uop.KindMovRR, Cost: 2}},
		{"not a micro-op Lower emits", blk, uop.Uop{Kind: uop.KindGuardCmpRR}},
		{"not a micro-op Lower emits", blk, uop.Uop{Kind: uop.KindCmpJccRR}},
		{"not a micro-op Lower emits", blk, uop.Uop{Kind: uop.KindAddRRNF}},
		{"not a micro-op Lower emits", blk, uop.Uop{Kind: uop.KindAluMINF, Base: z, Idx: z}},
		{"", sb, uop.Uop{Kind: uop.KindAluMINF, Base: z, Idx: z}},
		{"one control transfer", blk, uop.Uop{Kind: uop.KindJmp}},
		{"StrOp", blk, uop.Uop{Kind: uop.KindStr, Sub: 8}},
		{"ShOp", sb, uop.Uop{Kind: uop.KindShiftM, Sub: 3, Base: z, Idx: z, Aux: z}},
		{"register slot", blk, uop.Uop{Kind: uop.KindRot8R, Aux: 0x40}},
	} {
		if err := load(c.b, c.u); c.want == "" {
			if err != nil {
				t.Errorf("%v: refused with %q, to be accepted", c.u.Kind, err)
			}
		} else if err == nil {
			t.Errorf("%v, to be refused for %q, decoded cleanly", c.u.Kind, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: refused with %q, want the %s named", c.u.Kind, err, c.want)
		}
	}
	unused := uop.Uop{Kind: uop.KindMovRR, Sub: 0xEE, Dsh: 0x55, Ssh: 3, Scale: 7}
	for _, b := range []*block{sb, blk} {
		if err := load(b, unused); err != nil {
			t.Errorf("fields MovRR does not use were checked: %v", err)
		}
	}
}
