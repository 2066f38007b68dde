// Package zipfile reads and writes the vxZIP archive container: the
// standard ZIP format (local file headers, central directory, end
// record) extended exactly as the paper's §3.1-3.2 describe:
//
//   - every archived file carries a VXA extension header (extra field
//     ID 0x5658, "VX") pointing, by archive offset, at its decoder;
//   - decoders are stored as pseudo-files with empty filenames and their
//     own local headers, deflate-compressed, and are deliberately absent
//     from the central directory so VXA-unaware tools never see them;
//   - files compressed with traditional methods keep their standard
//     method tags (0 = store, 8 = deflate) so old tools can extract
//     them; formats with no traditional tag use the reserved VXA method.
//
// The package is deliberately independent of archive/zip: writing the
// container from scratch is part of the reproduction, and archive/zip
// serves as the "older UnZIP tool" in compatibility tests.
package zipfile

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ZIP method tags.
const (
	MethodStore   uint16 = 0
	MethodDeflate uint16 = 8
	// MethodVXA is the reserved "special" tag for files that can only be
	// extracted with their attached VXA decoder (§3.1).
	MethodVXA uint16 = 0x5658
)

// VXAExtraID is the extra-field header ID of the VXA extension ("VX").
const VXAExtraID uint16 = 0x5658

// Signatures.
const (
	sigLocal   = 0x04034b50
	sigCentral = 0x02014b50
	sigEOCD    = 0x06054b50
)

// ErrFormat reports a structurally invalid archive.
var ErrFormat = errors.New("zipfile: malformed archive")

// VXAHeader is the VXA extension attached to each archived file.
type VXAHeader struct {
	Codec         string // codec tag, e.g. "zlib"
	DecoderOffset uint32 // archive offset of the decoder pseudo-file
	PreCompressed bool   // input was already compressed; stored as-is
}

func (h *VXAHeader) encode() []byte {
	body := make([]byte, 0, 8+len(h.Codec))
	body = append(body, 1) // version
	flags := byte(0)
	if h.PreCompressed {
		flags |= 1
	}
	body = append(body, flags, byte(len(h.Codec)))
	body = append(body, h.Codec...)
	var off [4]byte
	binary.LittleEndian.PutUint32(off[:], h.DecoderOffset)
	body = append(body, off[:]...)

	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint16(out[0:], VXAExtraID)
	binary.LittleEndian.PutUint16(out[2:], uint16(len(body)))
	copy(out[4:], body)
	return out
}

// parseVXAExtra extracts a VXA header from a ZIP extra field, if present.
func parseVXAExtra(extra []byte) (*VXAHeader, error) {
	for len(extra) >= 4 {
		id := binary.LittleEndian.Uint16(extra[0:])
		size := int(binary.LittleEndian.Uint16(extra[2:]))
		if 4+size > len(extra) {
			return nil, fmt.Errorf("%w: extra field overflow", ErrFormat)
		}
		body := extra[4 : 4+size]
		if id == VXAExtraID {
			if len(body) < 7 || body[0] != 1 {
				return nil, fmt.Errorf("%w: bad VXA extension", ErrFormat)
			}
			nameLen := int(body[2])
			if 3+nameLen+4 > len(body) {
				return nil, fmt.Errorf("%w: bad VXA extension length", ErrFormat)
			}
			return &VXAHeader{
				Codec:         string(body[3 : 3+nameLen]),
				DecoderOffset: binary.LittleEndian.Uint32(body[3+nameLen:]),
				PreCompressed: body[1]&1 != 0,
			}, nil
		}
		extra = extra[4+size:]
	}
	return nil, nil
}

// FileHeader describes one archived file.
type FileHeader struct {
	Name   string
	Method uint16
	CRC32  uint32 // of the original (uncompressed) data
	CSize  uint32
	USize  uint32
	Mode   uint32 // unix permission bits (security attributes, §2.4)
	VXA    *VXAHeader
	Offset uint32 // local header offset
}

// ---------- writer ----------

// Writer writes a vxZIP archive.
type Writer struct {
	w       io.Writer
	off     uint32
	central []FileHeader
	err     error
	// fw compresses every decoder this Writer stores: one deflater's
	// tables (about 800 KB at BestCompression) Reset per decoder in
	// place of a new one each, dropped at Close.
	fw *flate.Writer
}

// NewWriter begins an archive.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (zw *Writer) write(b []byte) {
	if zw.err != nil {
		return
	}
	n, err := zw.w.Write(b)
	zw.off += uint32(n)
	zw.err = err
}

// localHeader emits a local file header.
func (zw *Writer) localHeader(name string, method uint16, crc, csize, usize uint32, extra []byte) {
	h := make([]byte, 30)
	binary.LittleEndian.PutUint32(h[0:], sigLocal)
	binary.LittleEndian.PutUint16(h[4:], 20) // version needed
	binary.LittleEndian.PutUint16(h[6:], 0)  // flags
	binary.LittleEndian.PutUint16(h[8:], method)
	binary.LittleEndian.PutUint16(h[10:], 0)    // mod time
	binary.LittleEndian.PutUint16(h[12:], 0x21) // mod date (1980-01-01)
	binary.LittleEndian.PutUint32(h[14:], crc)
	binary.LittleEndian.PutUint32(h[18:], csize)
	binary.LittleEndian.PutUint32(h[22:], usize)
	binary.LittleEndian.PutUint16(h[26:], uint16(len(name)))
	binary.LittleEndian.PutUint16(h[28:], uint16(len(extra)))
	zw.write(h)
	zw.write([]byte(name))
	zw.write(extra)
}

// AddDecoder stores a VXA decoder as a pseudo-file: an anonymous local
// header holding the deflate-compressed ELF image, not referenced by the
// central directory (§3.2). It returns the pseudo-file's offset for use
// in VXA extension headers.
func (zw *Writer) AddDecoder(elf []byte) (uint32, error) {
	if zw.err != nil {
		return 0, zw.err
	}
	var comp bytes.Buffer
	if zw.fw == nil {
		fw, err := flate.NewWriter(&comp, flate.BestCompression)
		if err != nil {
			return 0, err
		}
		zw.fw = fw
	} else {
		zw.fw.Reset(&comp)
	}
	if _, err := zw.fw.Write(elf); err != nil {
		return 0, err
	}
	if err := zw.fw.Close(); err != nil {
		return 0, err
	}
	off := zw.off
	crc := crc32.ChecksumIEEE(elf)
	zw.localHeader("", MethodDeflate, crc, uint32(comp.Len()), uint32(len(elf)), nil)
	zw.write(comp.Bytes())
	return off, zw.err
}

// AddFile writes one archived file entry with pre-compressed payload.
// crc must be the CRC-32 of the original uncompressed data.
func (zw *Writer) AddFile(hdr FileHeader, payload []byte) error {
	if zw.err != nil {
		return zw.err
	}
	var extra []byte
	if hdr.VXA != nil {
		extra = hdr.VXA.encode()
	}
	hdr.Offset = zw.off
	hdr.CSize = uint32(len(payload))
	zw.localHeader(hdr.Name, hdr.Method, hdr.CRC32, hdr.CSize, hdr.USize, extra)
	zw.write(payload)
	zw.central = append(zw.central, hdr)
	return zw.err
}

// Close writes the central directory and end-of-central-directory record.
func (zw *Writer) Close() error {
	zw.fw = nil
	if zw.err != nil {
		return zw.err
	}
	cdStart := zw.off
	for _, f := range zw.central {
		var extra []byte
		if f.VXA != nil {
			extra = f.VXA.encode()
		}
		h := make([]byte, 46)
		binary.LittleEndian.PutUint32(h[0:], sigCentral)
		binary.LittleEndian.PutUint16(h[4:], 3<<8|20) // made by unix
		binary.LittleEndian.PutUint16(h[6:], 20)      // version needed
		binary.LittleEndian.PutUint16(h[8:], 0)
		binary.LittleEndian.PutUint16(h[10:], f.Method)
		binary.LittleEndian.PutUint16(h[12:], 0)
		binary.LittleEndian.PutUint16(h[14:], 0x21)
		binary.LittleEndian.PutUint32(h[16:], f.CRC32)
		binary.LittleEndian.PutUint32(h[20:], f.CSize)
		binary.LittleEndian.PutUint32(h[24:], f.USize)
		binary.LittleEndian.PutUint16(h[28:], uint16(len(f.Name)))
		binary.LittleEndian.PutUint16(h[30:], uint16(len(extra)))
		// comment len, disk start, internal attrs: zero
		binary.LittleEndian.PutUint32(h[38:], f.Mode<<16) // external attrs
		binary.LittleEndian.PutUint32(h[42:], f.Offset)
		zw.write(h)
		zw.write([]byte(f.Name))
		zw.write(extra)
	}
	cdSize := zw.off - cdStart
	e := make([]byte, 22)
	binary.LittleEndian.PutUint32(e[0:], sigEOCD)
	binary.LittleEndian.PutUint16(e[8:], uint16(len(zw.central)))
	binary.LittleEndian.PutUint16(e[10:], uint16(len(zw.central)))
	binary.LittleEndian.PutUint32(e[12:], cdSize)
	binary.LittleEndian.PutUint32(e[16:], cdStart)
	zw.write(e)
	return zw.err
}

// ---------- reader ----------

// Reader reads a vxZIP archive from any random-access source. Parsing
// is lazy and section-at-a-time: opening reads only the end-of-central-
// directory record and the central directory; each payload access reads
// that entry's local header and (on demand) its stored bytes. A
// multi-gigabyte archive is never resident in memory — only the
// sections actually touched are.
//
// A Reader is safe for concurrent use as long as the underlying
// io.ReaderAt is (os.File and bytes.Reader both are).
type Reader struct {
	ra    io.ReaderAt
	size  int64
	Files []FileHeader
}

// inflater is a flate reader and the byte reader under it. Decoder takes
// one from inflaters and resets it onto each pseudo-file rather than
// building one per call (tens of KB of tables and window each time).
type inflater struct {
	sec io.SectionReader
	br  *bufio.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	d := new(inflater)
	d.br = bufio.NewReader(&d.sec)
	d.fr = flate.NewReader(d.br)
	return d
}}

// reset points the inflater at the deflate stream in [off, off+n) of ra.
func (d *inflater) reset(ra io.ReaderAt, off, n int64) io.Reader {
	d.sec = *io.NewSectionReader(ra, off, n)
	d.br.Reset(&d.sec)
	d.fr.(flate.Resetter).Reset(d.br, nil)
	return d.fr
}

// release drops the inflater's hold on the archive and puts it back.
func (d *inflater) release() {
	d.sec = io.SectionReader{}
	d.br.Reset(&d.sec)
	inflaters.Put(d)
}

// NewReader opens an archive held in memory (an adapter over
// NewReaderAt for callers that already have the whole container).
func NewReader(data []byte) (*Reader, error) {
	return NewReaderAt(bytes.NewReader(data), int64(len(data)))
}

// readFullAt reads exactly len(buf) bytes at off, tolerating the
// io.ReaderAt contract's permitted (n == len(buf), io.EOF) return for a
// read ending exactly at the end of the source — common for the tail
// sections a ZIP reader lives on.
func readFullAt(ra io.ReaderAt, buf []byte, off int64) error {
	n, err := ra.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// maxEOCDScan bounds the tail window searched for the end-of-central-
// directory record: the 22-byte record plus the maximum ZIP comment.
const maxEOCDScan = 22 + 0xFFFF

// NewReaderAt opens an archive from a random-access source of the given
// size, parsing only the end record and central directory.
func NewReaderAt(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < 22 {
		return nil, fmt.Errorf("%w: too small", ErrFormat)
	}
	// Find EOCD: read the tail window once, scan backwards over a
	// possible comment.
	window := int64(maxEOCDScan)
	if window > size {
		window = size
	}
	tail := make([]byte, window)
	if err := readFullAt(ra, tail, size-window); err != nil {
		return nil, fmt.Errorf("zipfile: reading end record: %w", err)
	}
	eocd := -1
	for i := len(tail) - 22; i >= 0; i-- {
		if binary.LittleEndian.Uint32(tail[i:]) == sigEOCD {
			eocd = i
			break
		}
	}
	if eocd < 0 {
		return nil, fmt.Errorf("%w: no end-of-central-directory record", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint16(tail[eocd+10:]))
	cdSize := int64(binary.LittleEndian.Uint32(tail[eocd+12:]))
	cdOff := int64(binary.LittleEndian.Uint32(tail[eocd+16:]))
	if cdOff+cdSize > size || cdSize < 0 {
		return nil, fmt.Errorf("%w: central directory outside archive", ErrFormat)
	}
	// Read the central directory section in one piece; it is small
	// (tens of bytes per entry) even for huge archives.
	cd := make([]byte, cdSize)
	if err := readFullAt(ra, cd, cdOff); err != nil {
		return nil, fmt.Errorf("zipfile: reading central directory: %w", err)
	}
	r := &Reader{ra: ra, size: size}
	pos := 0
	for i := 0; i < count; i++ {
		if pos+46 > len(cd) || binary.LittleEndian.Uint32(cd[pos:]) != sigCentral {
			return nil, fmt.Errorf("%w: bad central directory entry", ErrFormat)
		}
		h := cd[pos:]
		nameLen := int(binary.LittleEndian.Uint16(h[28:]))
		extraLen := int(binary.LittleEndian.Uint16(h[30:]))
		commentLen := int(binary.LittleEndian.Uint16(h[32:]))
		if pos+46+nameLen+extraLen+commentLen > len(cd) {
			return nil, fmt.Errorf("%w: truncated central directory", ErrFormat)
		}
		f := FileHeader{
			Name:   string(h[46 : 46+nameLen]),
			Method: binary.LittleEndian.Uint16(h[10:]),
			CRC32:  binary.LittleEndian.Uint32(h[16:]),
			CSize:  binary.LittleEndian.Uint32(h[20:]),
			USize:  binary.LittleEndian.Uint32(h[24:]),
			Mode:   binary.LittleEndian.Uint32(h[38:]) >> 16,
			Offset: binary.LittleEndian.Uint32(h[42:]),
		}
		vxa, err := parseVXAExtra(h[46+nameLen : 46+nameLen+extraLen])
		if err != nil {
			return nil, err
		}
		f.VXA = vxa
		r.Files = append(r.Files, f)
		pos += 46 + nameLen + extraLen + commentLen
	}
	return r, nil
}

// sectionAt parses the local header at off and returns the payload's
// position within the archive plus the header fields.
func (r *Reader) sectionAt(off uint32) (start, csize int64, method uint16, usize uint32, err error) {
	var h [30]byte
	if int64(off)+30 > r.size {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad local header at %#x", ErrFormat, off)
	}
	if err := readFullAt(r.ra, h[:], int64(off)); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("zipfile: reading local header at %#x: %w", off, err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != sigLocal {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad local header at %#x", ErrFormat, off)
	}
	method = binary.LittleEndian.Uint16(h[8:])
	csize = int64(binary.LittleEndian.Uint32(h[18:]))
	usize = binary.LittleEndian.Uint32(h[22:])
	nameLen := int64(binary.LittleEndian.Uint16(h[26:]))
	extraLen := int64(binary.LittleEndian.Uint16(h[28:]))
	start = int64(off) + 30 + nameLen + extraLen
	if start+csize > r.size {
		return 0, 0, 0, 0, fmt.Errorf("%w: truncated payload", ErrFormat)
	}
	return start, csize, method, usize, nil
}

// PayloadSection returns a reader over the raw stored bytes of an
// archived file (compressed form, exactly as archived) without loading
// them: the archive-native way to stream a payload into a decoder.
func (r *Reader) PayloadSection(f *FileHeader) (*io.SectionReader, error) {
	start, csize, _, _, err := r.sectionAt(f.Offset)
	if err != nil {
		return nil, err
	}
	return io.NewSectionReader(r.ra, start, csize), nil
}

// Payload returns the raw stored bytes of an archived file, fully read.
// Prefer PayloadSection when the bytes are only streamed through.
func (r *Reader) Payload(f *FileHeader) ([]byte, error) {
	start, csize, _, _, err := r.sectionAt(f.Offset)
	if err != nil {
		return nil, err
	}
	out := make([]byte, csize)
	if err := readFullAt(r.ra, out, start); err != nil {
		return nil, fmt.Errorf("zipfile: reading payload: %w", err)
	}
	return out, nil
}

// MaxDecoderSize caps a decoder pseudo-file's decompressed size. Real
// VXA decoders are tens of kilobytes (Table 2); the cap stops a
// malicious archive from using the decoder slot as a decompression
// bomb before the sandbox is even involved.
const MaxDecoderSize = 16 << 20

// Decoder extracts and decompresses the decoder pseudo-file at the given
// archive offset (decoders are always deflate-compressed, §3.2).
func (r *Reader) Decoder(off uint32) ([]byte, error) {
	start, csize, method, usize, err := r.sectionAt(off)
	if err != nil {
		return nil, err
	}
	if method != MethodDeflate {
		return nil, fmt.Errorf("%w: decoder pseudo-file not deflated", ErrFormat)
	}
	if usize > MaxDecoderSize {
		return nil, fmt.Errorf("%w: decoder pseudo-file claims %d bytes (cap %d)", ErrFormat, usize, MaxDecoderSize)
	}
	dec := inflaters.Get().(*inflater)
	defer dec.release()
	fr := dec.reset(r.ra, start, csize)
	// Inflate into the claimed size, then probe for one byte more. A
	// stream that stops short and one that goes on past the claim are
	// both a size mismatch; ReadFull reports the first as io.EOF or
	// io.ErrUnexpectedEOF, which a truncated stream also returns, so the
	// probe (the flate reader's error is sticky) tells a clean end from
	// a cut one.
	out := make([]byte, usize)
	n, err := io.ReadFull(fr, out)
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		var probe [1]byte
		extra, perr := io.ReadFull(fr, probe[:])
		switch {
		case perr == io.EOF && n == len(out):
			return out, nil
		case perr == io.EOF || extra > 0:
			return nil, fmt.Errorf("%w: decoder size mismatch", ErrFormat)
		}
		err = perr
	}
	return nil, fmt.Errorf("%w: decoder decompression: %v", ErrFormat, err)
}
