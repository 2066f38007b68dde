package vm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
)

// EngineVersion identifies the translation engine's serialized-state
// compatibility generation. It is part of the content address of every
// persisted snapshot artifact: a loader only accepts payloads written
// by the same generation, so stale artifacts from an older engine fall
// back to a fresh ELF build instead of feeding the executor micro-ops
// it no longer understands.
//
// Bump it whenever any of the following changes: the Snapshot or block
// layout serialized below, the uop.Uop field set or Kind numbering, the
// lowering/optimizer semantics (same guest bytes must produce the same
// uops for a cached block to be interchangeable with a fresh
// translation), or the guest-visible restore semantics.
//
// History: 2 added the absorbed-superblock section after the block
// section. 3 added the NoTier2 policy bit to the header; tier-2
// compiled traces themselves are never serialized — they are rebuilt
// per-VM from the persisted superblocks once those re-prove hot. 4
// removed ten stack-shuffle fused kinds (renumbering Kind) and replaced
// the header's five policy bits with the configured OptLevel. 5 made the
// memory image sparse: an extent table and the non-zero pages it names
// replace the two dense regions, whose lengths left the header. 6 made a
// block record its address and its raw micro-ops alone (the decoded
// instructions, the optimized micro-ops, the end and the cost are derived
// on load) and dropped the escape-payload word from every micro-op: an
// escape's instruction is decoded from the image. 7 gave every recording
// kind Lower emits an NF twin, which superblocks persist (renumbering
// Kind). 8 made lowering total: the two escape kinds left, every form
// they carried has a tier-1-only kind of its own, and nothing is decoded
// from the image. 9 retired the blocks and optimized levels, renumbering
// the configured OptLevel the header carries.
const EngineVersion uint32 = 9

// snapMagic brands a serialized snapshot payload.
const snapMagic = "VXSN"

// snapHeaderLen is the fixed prefix before the extent table.
const snapHeaderLen = 88

// Flag bit positions in the serialized header.
const (
	sfCF = 1 << iota
	sfZF
	sfSF
	sfOF
	sfPF
)

// uopWireLen is the fixed size of one micro-op record (see appendUop);
// a block record is an 8-byte header and its raw micro-ops, a superblock
// record a 20-byte header and its micro-ops.
const (
	uopWireLen  = 32
	blockHdrLen = 8
	sbRecHdrLen = 20
)

// placed is one fragment of the block cache with its entry address.
type placed struct {
	addr uint32
	b    *block
}

// Serialize renders the snapshot — header, the extents of the memory
// image, the translated block cache and the absorbed superblocks — into the
// self-contained binary payload the artifact store persists. Blocks and
// superblocks are written in address order, so the same snapshot state
// always serializes to the same bytes. A block is written as its raw
// micro-ops alone, a superblock as the micro-ops it runs.
func (s *Snapshot) Serialize() ([]byte, error) {
	// Freeze a view of the block cache; AbsorbBlocks may grow it
	// concurrently and the map must not be read outside the lock.
	s.mu.Lock()
	blocks := make([]placed, 0, len(s.blocks))
	for addr, b := range s.blocks {
		blocks = append(blocks, placed{addr, b})
	}
	sbs := make([]placed, 0, len(s.sbs))
	for addr, r := range s.sbs {
		sbs = append(sbs, placed{addr, r.b})
	}
	s.mu.Unlock()
	byAddr := func(a, b placed) int { return cmp.Compare(a.addr, b.addr) }
	slices.SortFunc(blocks, byAddr)
	slices.SortFunc(sbs, byAddr)

	size := snapHeaderLen + 4
	for _, e := range s.image {
		size += 8 + len(e.data)
	}
	for _, p := range blocks {
		size += blockHdrLen + len(p.b.raw)*uopWireLen
	}
	for _, p := range sbs {
		size += sbRecHdrLen + len(p.b.uops)*uopWireLen
	}
	out := make([]byte, snapHeaderLen, size)

	copy(out[0:4], snapMagic)
	le := binary.LittleEndian
	le.PutUint32(out[4:], EngineVersion)
	le.PutUint32(out[8:], s.memSize)
	le.PutUint32(out[12:], s.brk)
	le.PutUint32(out[16:], s.roLimit)
	le.PutUint32(out[20:], s.stackBase)
	le.PutUint32(out[24:], s.eip)
	for i, r := range s.regs {
		le.PutUint32(out[28+4*i:], r)
	}
	out[60] = packBits(s.cf, sfCF) | packBits(s.zf, sfZF) | packBits(s.sf, sfSF) |
		packBits(s.of, sfOF) | packBits(s.pf, sfPF)
	out[61] = byte(s.opt) // as configured: the process override is never persisted
	le.PutUint64(out[64:], uint64(s.fuel))
	le.PutUint64(out[72:], uint64(s.wallBudget))
	le.PutUint32(out[80:], uint32(len(s.image)))
	le.PutUint32(out[84:], uint32(len(blocks)))

	// The image: where every extent goes and how long it is, then their
	// bytes in the same order.
	for _, e := range s.image {
		out = le.AppendUint32(out, e.off)
		out = le.AppendUint32(out, uint32(len(e.data)))
	}
	for _, e := range s.image {
		out = append(out, e.data...)
	}
	// A block: its address, how many instructions, their raw micro-ops.
	for _, p := range blocks {
		out = le.AppendUint32(out, p.addr)
		out = le.AppendUint32(out, uint32(len(p.b.raw)))
		for i := range p.b.raw {
			out = appendUop(out, &p.b.raw[i])
		}
	}
	// A superblock: entry address, trace end, fuel cost, micro-op count,
	// the micro-ops. Guard slot numbering is re-derived on load, so
	// nothing per-VM is persisted.
	out = le.AppendUint32(out, uint32(len(sbs)))
	for _, p := range sbs {
		out = le.AppendUint32(out, p.addr)
		out = le.AppendUint32(out, p.b.end)
		out = le.AppendUint64(out, uint64(p.b.cost))
		out = le.AppendUint32(out, uint32(len(p.b.uops)))
		for i := range p.b.uops {
			out = appendUop(out, &p.b.uops[i])
		}
	}
	return out, nil
}

func packBits(b bool, bit byte) byte {
	if b {
		return bit
	}
	return 0
}

func appendUop(out []byte, u *uop.Uop) []byte {
	var w [uopWireLen]byte
	w[0] = byte(u.Kind)
	w[1] = u.Sub
	w[2] = u.Dst
	w[3] = u.Src
	w[4] = u.Dsh
	w[5] = u.Ssh
	w[6] = u.Base
	w[7] = u.Idx
	w[8] = u.Scale
	w[9] = u.Aux
	w[10] = u.Cost
	// w[11] reserved
	le := binary.LittleEndian
	le.PutUint32(w[12:], u.Imm)
	le.PutUint32(w[16:], u.Disp)
	le.PutUint32(w[20:], u.EIP)
	le.PutUint32(w[24:], u.Next)
	le.PutUint32(w[28:], u.Target)
	return append(out, w[:]...)
}

// decCursor is a bounds-checked reader over a serialized payload.
// Every read either succeeds or flips err; nothing ever panics on a
// truncated or corrupt payload.
type decCursor struct {
	data []byte
	off  int
	err  error
}

func (c *decCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("vm: snapshot decode: "+format, args...)
	}
}

func (c *decCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) {
		c.fail("truncated at offset %d (+%d of %d)", c.off, n, len(c.data))
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *decCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *decCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Deserialize reconstructs a Snapshot from a payload produced by
// Serialize. The image's extents are aliased, not copied: the
// returned snapshot's restore source points directly into data, so a
// memory-mapped payload lets every process serving the same decoder
// share one page-cache copy of the pristine image. The caller must keep
// data alive and immutable for the lifetime of the snapshot and no
// longer (the artifact store unmaps a payload when the snapshot over it
// is collected; heap payloads are pinned by the alias itself). Nothing
// but the snapshot aliases data: blocks are rebuilt on the heap, and a
// VM copies its image out.
//
// The payload comes from a directory other processes write, so decoding
// trusts none of it. Truncation, bad magic, a foreign engine version and
// out-of-range structural fields are errors; every micro-op field is held
// to its domain (decodeUop); and a block record must be what lowering
// makes of a run of instructions. A forged payload that passes can make
// a decoder produce wrong bytes — which the archive's checksums catch —
// but it cannot make the VM panic or the native emitter encode anything
// but the host code it emits for a valid micro-op.
func Deserialize(data []byte) (*Snapshot, error) {
	c := &decCursor{data: data}
	if magic := c.take(4); c.err != nil || string(magic) != snapMagic {
		return nil, fmt.Errorf("vm: snapshot decode: bad magic")
	}
	if v := c.u32(); c.err == nil && v != EngineVersion {
		return nil, fmt.Errorf("vm: snapshot decode: engine version %d, want %d", v, EngineVersion)
	}
	// VMs of this snapshot never pass through New: a bad process override
	// is reported here instead.
	if _, err := processOpt(); err != nil {
		return nil, err
	}
	s := &Snapshot{id: snapshotIDs.Add(1)}
	s.memSize = c.u32()
	s.brk = c.u32()
	s.roLimit = c.u32()
	s.stackBase = c.u32()
	s.eip = c.u32()
	for i := range s.regs {
		s.regs[i] = c.u32()
	}
	bits := c.take(4) // flags, configured OptLevel, 2 reserved
	if c.err != nil {
		return nil, c.err
	}
	s.cf, s.zf, s.sf, s.of, s.pf = bits[0]&sfCF != 0, bits[0]&sfZF != 0,
		bits[0]&sfSF != 0, bits[0]&sfOF != 0, bits[0]&sfPF != 0
	if s.opt = OptLevel(bits[1]); s.opt > OptTier2 {
		return nil, fmt.Errorf("vm: snapshot decode: optimization level %d", bits[1])
	}
	s.fuel = int64(c.u64())
	s.wallBudget = time.Duration(c.u64())
	nExtents := c.u32()
	nBlocks := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if s.memSize == 0 || s.memSize > MaxMemSize || s.memSize%PageSize != 0 ||
		s.brk > s.stackBase || s.roLimit > s.brk || s.stackBase > s.memSize || s.stackBase%PageSize != 0 {
		return nil, fmt.Errorf("vm: snapshot decode: inconsistent layout (mem=%d brk=%d ro=%d stack=%d)",
			s.memSize, s.brk, s.roLimit, s.stackBase)
	}
	if err := decodeImage(c, s, nExtents); err != nil {
		return nil, err
	}
	s.arena = tier2.NewArena(tier2.ArenaSize)

	// A count is only a promise; every record is at least its header, so
	// the payload left bounds what a table may be sized for.
	if uint64(nBlocks)*blockHdrLen > uint64(len(c.data)-c.off) {
		return nil, fmt.Errorf("vm: snapshot decode: %d blocks in %d bytes", nBlocks, len(c.data)-c.off)
	}
	// The blocks run optimized, as buildBlock made them: only a level
	// above OptReference caches fragments.
	var xl xlate
	s.blocks = make(map[uint32]*block, nBlocks)
	for i := uint32(0); i < nBlocks; i++ {
		addr, b, err := s.decodeBlock(c, &xl)
		if err != nil {
			return nil, err
		}
		s.blocks[addr] = b
	}

	nSBs := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if uint64(nSBs)*sbRecHdrLen > uint64(len(c.data)-c.off) {
		return nil, fmt.Errorf("vm: snapshot decode: %d superblocks in %d bytes", nSBs, len(c.data)-c.off)
	}
	s.sbs = make(map[uint32]*sbRecord, nSBs)
	for i := uint32(0); i < nSBs; i++ {
		addr, r, err := s.decodeSB(c)
		if err != nil {
			return nil, err
		}
		s.sbs[addr] = r
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("vm: snapshot decode: %d trailing bytes", len(c.data)-c.off)
	}
	return s, nil
}

// decodeImage reads the extent table and points each extent at its bytes
// in the payload. restore copies every extent to its offset in guest
// memory unchecked, so the table is held to exactly what Snapshot
// produces: page-aligned starts, in address order without overlap, none
// empty, each inside one of the two accessible windows ([PageSize, brk)
// and [stackBase, memSize)) and all of it present in the payload.
func decodeImage(c *decCursor, s *Snapshot, n uint32) error {
	if n > s.memSize/PageSize {
		return fmt.Errorf("vm: snapshot decode: %d image extents in %d pages", n, s.memSize/PageSize)
	}
	table := c.take(int(n) * 8)
	if c.err != nil {
		return c.err
	}
	s.image = make([]extent, n)
	le := binary.LittleEndian
	var prevEnd uint64
	for i := range s.image {
		off, size := le.Uint32(table[8*i:]), le.Uint32(table[8*i+4:])
		end := uint64(off) + uint64(size)
		switch {
		case off%PageSize != 0:
			return fmt.Errorf("vm: snapshot decode: image extent at %#x is not page-aligned", off)
		case size == 0:
			return fmt.Errorf("vm: snapshot decode: empty image extent at %#x", off)
		case uint64(off) < prevEnd:
			return fmt.Errorf("vm: snapshot decode: image extent at %#x overlaps or precedes the one before it (which ends at %#x)", off, prevEnd)
		case !(off >= PageSize && end <= uint64(s.brk)) && !(off >= s.stackBase && end <= uint64(s.memSize)):
			return fmt.Errorf("vm: snapshot decode: image extent [%#x,%#x) outside the accessible windows (brk=%#x stack=%#x mem=%#x)",
				off, end, s.brk, s.stackBase, s.memSize)
		}
		prevEnd = end
		s.image[i] = extent{off: off, data: c.take(int(size))}
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// decodeBlock reconstructs one block from its raw micro-ops. The record
// must be what buildBlock lowers a run of instructions to: one micro-op
// of a kind Lower emits per instruction, at Cost 1, each starting where
// the one before it ends; no control transfer but the last (a run also
// ends at maxBlockLen instructions, or before one that cannot be
// fetched); all of it inside the read-only text, the only bytes the
// engine fetches from. Its end and cost follow from the record;
// xl.fragment derives its uops, as buildBlock's do.
func (s *Snapshot) decodeBlock(c *decCursor, xl *xlate) (uint32, *block, error) {
	addr, n := c.u32(), c.u32()
	if c.err != nil {
		return 0, nil, c.err
	}
	if n == 0 || n > maxBlockLen {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x has %d instructions", addr, n)
	}
	raw := xl.scratch()[:n]
	end := addr
	for i := range raw {
		u := &raw[i]
		if err := s.decodeUop(c, u); err != nil {
			return 0, nil, err
		}
		last := i == len(raw)-1
		switch {
		case !u.Kind.Lowered() || u.Cost != 1:
			return 0, nil, fmt.Errorf("vm: snapshot decode: %s of cost %d in block %#x: not a micro-op Lower emits", u.Kind, u.Cost, addr)
		case u.EIP != end || u.Next <= u.EIP:
			return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x: instruction [%#x,%#x) does not follow on from %#x", addr, u.EIP, u.Next, end)
		case uop.Kinds[u.Kind].Term && !last:
			return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x: %s is instruction %d of %d: a fragment ends at its one control transfer",
				addr, u.Kind, i+1, n)
		}
		end = u.Next
	}
	if !inText(addr, end, s.roLimit) {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block [%#x,%#x) outside the read-only text", addr, end)
	}
	b, _ := xl.fragment(raw, end, true)
	return addr, b, nil
}

// decodeSB reconstructs one absorbed superblock. Structural defenses
// mirror decodeBlock's: bounded micro-op count, an entry address that
// must name a decoded base block, and the whole trace confined to the
// read-only text. Guard chain slots are re-numbered from scratch with
// the same scan formSuperblock uses, so the wire's Aux bytes for guards
// are never trusted as array indices.
func (s *Snapshot) decodeSB(c *decCursor) (uint32, *sbRecord, error) {
	addr := c.u32()
	b := &block{end: c.u32(), cost: int64(c.u64())}
	nUops := int(c.u32())
	if c.err != nil {
		return 0, nil, c.err
	}
	// Growth appends the final block's lowering after the size check
	// passes, so a legitimate trace can overshoot sbMaxUops by at most
	// one block plus the synthetic tail jump.
	if nUops <= 0 || nUops > sbMaxUops+maxBlockLen+1 || b.cost < 0 {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x has %d uops, cost %d", addr, nUops, b.cost)
	}
	b.uops = make([]uop.Uop, nUops)
	for i := range b.uops {
		if err := s.decodeUop(c, &b.uops[i]); err != nil {
			return 0, nil, err
		}
	}
	// Tier-1 charges a superblock its recorded cost, a compiled trace the
	// sum over its micro-ops; a file where the two differ would make the
	// instruction count depend on the tier.
	if sum := uop.Cost(b.uops); sum != b.cost {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x records cost %d, its micro-ops sum to %d", addr, b.cost, sum)
	}
	guards, rets := sbNumberSlots(b.uops)
	if _, ok := s.blocks[addr]; !ok {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x has no entry block", addr)
	}
	if !sbInRO(b, s.roLimit) {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x leaves the read-only text", addr)
	}
	return addr, &sbRecord{b: b, guards: guards, rets: rets}, nil
}

// decodeUop decodes one micro-op record. The executor indexes its jump
// table by Kind and the 9-slot register file (RegZero included) by the
// register fields, and the native emitter encodes the fields the kind's
// row names into host instructions, so every one of them is held to its
// domain here: out of range it would be memory corruption or foreign
// host code, not just a wrong answer. A guard's Aux is a slot index
// formSuperblock's numbering rewrites, not a register.
func (s *Snapshot) decodeUop(c *decCursor, u *uop.Uop) error {
	w := c.take(uopWireLen)
	if w == nil {
		return c.err
	}
	u.Kind = uop.Kind(w[0])
	u.Sub = w[1]
	u.Dst = w[2]
	u.Src = w[3]
	u.Dsh = w[4]
	u.Ssh = w[5]
	u.Base = w[6]
	u.Idx = w[7]
	u.Scale = w[8]
	u.Aux = w[9]
	u.Cost = w[10]
	le := binary.LittleEndian
	u.Imm = le.Uint32(w[12:])
	u.Disp = le.Uint32(w[16:])
	u.EIP = le.Uint32(w[20:])
	u.Next = le.Uint32(w[24:])
	u.Target = le.Uint32(w[28:])

	if int(u.Kind) >= len(uop.Kinds) {
		return fmt.Errorf("vm: snapshot decode: unknown uop kind %d at eip %#x", u.Kind, u.EIP)
	}
	r := &uop.Kinds[u.Kind]
	slot := r.Guard || u.Kind == uop.KindRetGuard
	if u.Dst > uop.RegZero || u.Src > uop.RegZero || u.Base > uop.RegZero ||
		u.Idx > uop.RegZero || !slot && u.Aux > uop.RegZero {
		return fmt.Errorf("vm: snapshot decode: register slot out of range at eip %#x", u.EIP)
	}
	if f := u.BadField(); f != "" {
		return fmt.Errorf("vm: snapshot decode: %s out of range for %s at eip %#x", f, u.Kind, u.EIP)
	}
	return nil
}
