// Package deflate provides the two DEFLATE-based codecs of the vxZIP
// prototype: "zlib" (the paper's general-purpose default, RFC 1950/1951)
// and a "gzip" recognizer-decoder (RFC 1952). The native encoder and
// decoder are the Go standard library; the VXA decoder is a complete
// from-scratch inflate in VXC, including zlib Adler-32 and gzip CRC-32
// integrity verification.
package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"io"

	"vxa/internal/codec"
	"vxa/internal/codec/vxcsrc"
	"vxa/internal/vxcc"
)

// inflateCore is RFC 1951 DEFLATE decompression in VXC. It decodes into
// the 32 KiB window, __win[0, __wpos) being what is not written out yet,
// and writes the window out with libvx's writen when it wraps and when
// the stream ends; the stream wrapper (zlib, gzip or raw) supplies
// inf_sum(), which sees every chunk written. Every Huffman symbol is one
// table lookup (vxcsrc.Huff). A match is copied in runs that neither end
// of the window interrupts, four bytes at a time, except a match less
// than four bytes back, which overlaps its own source and must go a byte
// at a time to repeat it. The copy is written out in inf_codes: as a
// call vxcc expands in place, it took 2% more instructions. A stored
// block's bytes go through getbits(8) one by one, since the bit reader
// may hold some of them; no workload stores enough to pay for more.
var inflateCore = vxcc.Source{Name: "inflate.vxc", Text: `
// DEFLATE (RFC 1951) decoder core.

enum { WINSIZE = 32768, WINMASK = 32767 };

byte __win[WINSIZE];
int __wpos;
int __wfull; // the window has wrapped: all of it is history

void inf_sum(byte *p, int n); // provided by the stream wrapper

void inf_flush() {
	writen(__win, __wpos);
	inf_sum(__win, __wpos);
}

void inf_wrap() {
	inf_flush();
	__wpos = 0;
	__wfull = 1;
}

// Length and distance code tables (RFC 1951 section 3.2.5).
const int lenbase[29] = {3,4,5,6,7,8,9,10,11,13,15,17,19,23,27,31,35,43,
	51,59,67,83,99,115,131,163,195,227,258};
const int lenext[29] = {0,0,0,0,0,0,0,0,1,1,1,1,2,2,2,2,3,3,3,3,4,4,4,4,
	5,5,5,5,0};
const int distbase[30] = {1,2,3,4,5,7,9,13,17,25,33,49,65,97,129,193,257,
	385,513,769,1025,1537,2049,3073,4097,6145,8193,12289,16385,24577};
const int distext[30] = {0,0,0,0,1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,
	10,11,11,12,12,13,13};

int lcnt[16];
int lsym[288];
int ltab[512];
int dcnt[16];
int dsym[30];
int dtab[512];

// inf_codes decodes one block's literal/length/distance code stream.
void inf_codes() {
	while (1) {
		int sym = huff_decode(lcnt, lsym, ltab);
		if (sym < 256) {
			__win[__wpos++] = (byte)sym;
			if (__wpos == WINSIZE) inf_wrap();
			continue;
		}
		if (sym == 256) return; // end of block
		sym -= 257;
		if (sym >= 29) die("bad length code");
		int len = lenbase[sym] + getbits(lenext[sym]);
		int d = huff_decode(dcnt, dsym, dtab);
		if (d >= 30) die("bad distance code");
		int dist = distbase[d] + getbits(distext[d]);
		if (dist > __wpos && !__wfull) die("distance too far back");
		int from = (__wpos - dist) & WINMASK;
		while (len > 0) {
			int n = len;
			if (n > WINSIZE - __wpos) n = WINSIZE - __wpos;
			if (n > WINSIZE - from) n = WINSIZE - from;
			len -= n;
			byte *to = __win + __wpos;
			byte *end = to + n;
			int off = from - __wpos;
			__wpos += n;
			from = (from + n) & WINMASK;
			if (dist >= 4) for (; to + 4 <= end; to += 4) *(uint*)to = *(uint*)(to + off);
			for (; to < end; to++) *to = to[off];
			if (__wpos == WINSIZE) inf_wrap();
		}
	}
}

void inf_stored() {
	alignbyte();
	int len = getbits(16);
	if ((len ^ getbits(16)) != 0xFFFF) die("stored block length check failed");
	while (len-- > 0) {
		__win[__wpos++] = (byte)getbits(8);
		if (__wpos == WINSIZE) inf_wrap();
	}
}

byte __fixlen[288];
void inf_fixed() {
	int i;
	for (i = 0; i < 144; i++) __fixlen[i] = 8;
	for (i = 144; i < 256; i++) __fixlen[i] = 9;
	for (i = 256; i < 280; i++) __fixlen[i] = 7;
	for (i = 280; i < 288; i++) __fixlen[i] = 8;
	huff_build(__fixlen, 288, lcnt, lsym, ltab);
	byte dlen[30];
	for (i = 0; i < 30; i++) dlen[i] = 5;
	huff_build(dlen, 30, dcnt, dsym, dtab);
	inf_codes();
}

const byte clorder[19] = {16,17,18,0,8,7,9,6,10,5,11,4,12,3,13,2,14,1,15};
byte __cllen[19];
int clcnt[16];
int clsym[19];
int cltab[512];
byte __alllen[320];

void inf_dynamic() {
	int hlit = getbits(5) + 257;
	int hdist = getbits(5) + 1;
	int hclen = getbits(4) + 4;
	if (hlit > 286 || hdist > 30) die("bad code counts");
	int i;
	for (i = 0; i < 19; i++) __cllen[i] = 0;
	for (i = 0; i < hclen; i++) __cllen[clorder[i]] = (byte)getbits(3);
	huff_build(__cllen, 19, clcnt, clsym, cltab);

	int n = 0;
	int total = hlit + hdist;
	while (n < total) {
		int sym = huff_decode(clcnt, clsym, cltab);
		if (sym < 16) {
			__alllen[n++] = (byte)sym;
		} else if (sym == 16) {
			if (n == 0) die("repeat with no previous length");
			int prev = __alllen[n - 1];
			int rep = 3 + getbits(2);
			while (rep-- > 0) {
				if (n >= total) die("repeat overflows code lengths");
				__alllen[n++] = (byte)prev;
			}
		} else if (sym == 17) {
			int rep = 3 + getbits(3);
			while (rep-- > 0) {
				if (n >= total) die("repeat overflows code lengths");
				__alllen[n++] = 0;
			}
		} else {
			int rep = 11 + getbits(7);
			while (rep-- > 0) {
				if (n >= total) die("repeat overflows code lengths");
				__alllen[n++] = 0;
			}
		}
	}
	if (__alllen[256] == 0) die("missing end-of-block code");
	huff_build(__alllen, hlit, lcnt, lsym, ltab);
	huff_build(__alllen + hlit, hdist, dcnt, dsym, dtab);
	inf_codes();
}

// inflate decodes one complete DEFLATE stream.
void inflate() {
	__wpos = 0;
	__wfull = 0;
	int final;
	do {
		final = getbit();
		int type = getbits(2);
		if (type == 0) inf_stored();
		else if (type == 1) inf_fixed();
		else if (type == 2) inf_dynamic();
		else die("invalid block type");
	} while (!final);
	inf_flush();
}
`}

// zlibMain wraps inflateCore with the RFC 1950 container: header
// validation and Adler-32 verification over the decoded output.
var zlibMain = vxcc.Source{Name: "zlib.vxc", Text: `
// zlib (RFC 1950) stream decoder: VXA codec "zlib".

uint __s1;
uint __s2;

// inf_sum runs Adler-32 over a chunk, reducing the sums at least every
// 5552 bytes, the most that cannot overflow 32 bits.
void inf_sum(byte *p, int n) {
	uint s1 = __s1;
	uint s2 = __s2;
	while (n > 0) {
		int k = n;
		if (k > 5552) k = 5552;
		n -= k;
		byte *end = p + k;
		for (; p < end; p++) {
			s1 += *p;
			s2 += s1;
		}
		s1 %= 65521u;
		s2 %= 65521u;
	}
	__s1 = s1;
	__s2 = s2;
}

int main(void) {
	while (1) {
		__stdio_reset();
		bits_reset();
		__s1 = 1u;
		__s2 = 0u;
		int cmf = mustgetb();
		int flg = mustgetb();
		if ((cmf & 15) != 8) die("not a zlib stream (method)");
		if (((cmf << 8) | flg) % 31 != 0) die("bad zlib header check");
		if (flg & 32) die("preset dictionary not supported");
		inflate();
		alignbyte();
		uint want = 0u;
		int i;
		for (i = 0; i < 4; i++) want = (want << 8) | (uint)getbits(8);
		if (want != ((__s2 << 16) | __s1)) die("adler32 mismatch: corrupt stream");
		vxa_done();
	}
	return 0;
}
`}

// gzipMain wraps inflateCore with the RFC 1952 container: full header
// parsing (EXTRA/NAME/COMMENT/HCRC fields) and CRC-32 + length checks.
var gzipMain = vxcc.Source{Name: "gzip.vxc", Text: `
// gzip (RFC 1952) stream decoder: VXA redec "gzip".

uint __crctab[256];
uint __crc;
uint __isize;

void crcinit() {
	int n;
	int k;
	for (n = 0; n < 256; n++) {
		uint c = (uint)n;
		for (k = 0; k < 8; k++) {
			if (c & 1u) c = 0xEDB88320u ^ (c >> 1);
			else c = c >> 1;
		}
		__crctab[n] = c;
	}
}

void inf_sum(byte *p, int n) {
	uint crc = __crc;
	__isize += (uint)n;
	byte *end = p + n;
	for (; p < end; p++) crc = __crctab[(crc ^ *p) & 0xFFu] ^ (crc >> 8);
	__crc = crc;
}

int main(void) {
	crcinit();
	while (1) {
		__stdio_reset();
		bits_reset();
		__crc = 0xFFFFFFFFu;
		__isize = 0u;
		if (mustgetb() != 0x1F || mustgetb() != 0x8B) die("not a gzip stream");
		if (mustgetb() != 8) die("gzip method is not deflate");
		int flg = mustgetb();
		int i;
		for (i = 0; i < 6; i++) mustgetb(); // mtime, xfl, os
		if (flg & 4) { // FEXTRA
			int xlen = mustgetb();
			xlen |= mustgetb() << 8;
			for (i = 0; i < xlen; i++) mustgetb();
		}
		if (flg & 8) while (mustgetb() != 0) { }  // FNAME
		if (flg & 16) while (mustgetb() != 0) { } // FCOMMENT
		if (flg & 2) { mustgetb(); mustgetb(); }  // FHCRC
		inflate();
		alignbyte();
		uint wantcrc = (uint)getbits(32);
		uint wantlen = (uint)getbits(32);
		if ((__crc ^ 0xFFFFFFFFu) != wantcrc) die("gzip crc32 mismatch");
		if (__isize != wantlen) die("gzip length mismatch");
		vxa_done();
	}
	return 0;
}
`}

// looksLikeZlib performs the cheap RFC 1950 header check.
func looksLikeZlib(data []byte) bool {
	if len(data) < 6 {
		return false
	}
	if data[0]&0x0F != 8 || data[0]>>4 > 7 {
		return false
	}
	return (uint32(data[0])<<8|uint32(data[1]))%31 == 0
}

func init() {
	codec.Register(&codec.Codec{
		Name:   "zlib",
		Desc:   `"Deflate" algorithm from ZIP/gzip (zlib container)`,
		Output: "raw data",
		Kind:   codec.GeneralPurpose,
		Recognize: func(data []byte) bool {
			// The zlib magic is weak (one check byte), so confirm with a
			// trial decode before classifying input as pre-compressed.
			if !looksLikeZlib(data) {
				return false
			}
			r, err := zlib.NewReader(bytes.NewReader(data))
			if err != nil {
				return false
			}
			defer r.Close()
			_, err = io.Copy(io.Discard, r)
			return err == nil
		},
		Encode: func(dst io.Writer, src []byte) error {
			w := zlib.NewWriter(dst)
			if _, err := w.Write(src); err != nil {
				return err
			}
			return w.Close()
		},
		Decode: func(dst io.Writer, src io.Reader) error {
			r, err := zlib.NewReader(src)
			if err != nil {
				return err
			}
			defer r.Close()
			_, err = io.Copy(dst, r)
			return err
		},
		Sources: []vxcc.Source{vxcsrc.Bitio, vxcsrc.Huff, inflateCore, zlibMain},
	})

	codec.Register(&codec.Codec{
		Name:   "gzip",
		Desc:   "gzip recognizer-decoder (redec) for .gz files",
		Output: "raw data",
		Kind:   codec.Redec,
		Recognize: func(data []byte) bool {
			return len(data) >= 3 && data[0] == 0x1F && data[1] == 0x8B && data[2] == 8
		},
		Decode: func(dst io.Writer, src io.Reader) error {
			r, err := gzip.NewReader(src)
			if err != nil {
				return err
			}
			defer r.Close()
			_, err = io.Copy(dst, r)
			return err
		},
		Sources: []vxcc.Source{vxcsrc.Bitio, vxcsrc.Huff, inflateCore, gzipMain},
	})
}

// deflateRawMain decodes a bare RFC 1951 stream with no container —
// exactly what a ZIP method-8 entry stores. Integrity is provided by the
// archive's own CRC-32, as in standard ZIP.
var deflateRawMain = vxcc.Source{Name: "deflateraw.vxc", Text: `
// Raw DEFLATE decoder: VXA codec "deflate" (ZIP method 8).

void inf_sum(byte *p, int n) { }

int main(void) {
	while (1) {
		__stdio_reset();
		bits_reset();
		inflate();
		vxa_done();
	}
	return 0;
}
`}

func init() {
	codec.Register(&codec.Codec{
		Name:      "deflate",
		Desc:      `"Deflate" algorithm from ZIP/gzip (raw, ZIP method 8)`,
		Output:    "raw data",
		Kind:      codec.GeneralPurpose,
		ZipMethod: 8,
		// Raw deflate has no magic; it is never "recognized", only chosen
		// as the default compressor.
		Recognize: func(data []byte) bool { return false },
		Encode: func(dst io.Writer, src []byte) error {
			w, err := flate.NewWriter(dst, flate.DefaultCompression)
			if err != nil {
				return err
			}
			if _, err := w.Write(src); err != nil {
				return err
			}
			return w.Close()
		},
		Decode: func(dst io.Writer, src io.Reader) error {
			r := flate.NewReader(src)
			defer r.Close()
			_, err := io.Copy(dst, r)
			return err
		},
		Sources: []vxcc.Source{vxcsrc.Bitio, vxcsrc.Huff, inflateCore, deflateRawMain},
	})
}
