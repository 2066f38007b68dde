// Package vxcsrc holds VXC source fragments shared by the decoders:
// an LSB-first bit reader and a canonical Huffman decoder. Each decoder
// program links the fragments it needs exactly once.
//
// The fragments' own comments are kept short: vxcc sizes a compile's
// token and instruction buffers from the length of its sources, comments
// included, and every archive writer compiles these once per decoder.
package vxcsrc

import "vxa/internal/vxcc"

// Bitio is the LSB-first bit reader over the runtime's buffered stdin —
// the bit order DEFLATE uses, adopted by all bit-packed VXA formats.
//
// __bitbuf holds the stream's next __bitcnt (at most 32) bits, the first
// one lowest, and zeros above them. A request for more bits than it holds
// refills it with as many whole bytes as fit (bits_fill): in one load and
// no loop when the runtime's input buffer has four bytes left, so the
// engine traces the refill into every caller, and a byte at a time near
// the buffer's end, failing at the end of input only if the request
// cannot be met (a Huffman peek asks for none). It may therefore
// hold up to four bytes ahead of what the stream has consumed: once a
// stream's first bit has been read, every byte of it must be read through
// the bit reader (getbits(8)), never with getb. alignbyte drops only
// the partial byte.
//
// getbits(n) is one shift and mask for n up to 24. Above that it reads
// two halves, low first (vxcc evaluates operands left to right): a
// refill cannot promise more than 25 bits, and a 32-bit mask cannot be
// made with a shift, which x86 counts modulo 32.
var Bitio = vxcc.Source{Name: "<bitio>", Text: `
uint __bitbuf;
int __bitcnt;

void bits_reset() {
	__bitbuf = 0u;
	__bitcnt = 0;
}

void bits_fill(int need) {
	int n = (32 - __bitcnt) >> 3;
	if (__inlen - __inpos >= 4) {
		__bitbuf |= (*(uint*)(__inbuf + __inpos) & (0xFFFFFFFFu >> (32 - 8 * n))) << __bitcnt;
		__bitcnt += 8 * n;
		__inpos += n;
		return;
	}
	while (__bitcnt <= 24) {
		int c = getb();
		if (c < 0) break;
		__bitbuf |= (uint)c << __bitcnt;
		__bitcnt += 8;
	}
	if (__bitcnt < need) die("unexpected end of bit stream");
}

int getbits(int n) {
	if (n > 24) return getbits(16) | (getbits(n - 16) << 16);
	if (__bitcnt < n) bits_fill(n);
	int v = __bitbuf & ((1u << n) - 1u);
	__bitbuf >>= n;
	__bitcnt -= n;
	return v;
}

int getbit() {
	if (__bitcnt == 0) bits_fill(1);
	int b = __bitbuf & 1u;
	__bitbuf >>= 1;
	__bitcnt--;
	return b;
}

void alignbyte() {
	__bitbuf >>= __bitcnt & 7;
	__bitcnt &= ~7;
}
`}

// Huff is the canonical-Huffman table builder and decoder. Codes are
// assigned in canonical order, as in zlib's "puff": counts[1..15] is the
// number of codes of each length, and symbols[] lists the symbols sorted
// by (length, value).
//
// huff_build also fills table[], 512 ints, for one-lookup decoding in
// the manner of zlib's inflate_table: table[i], for i the next 9 stream
// bits, is symbol << 4 | length for a code of 9 bits or fewer, and 0
// where the next code is longer or there is none. It walks the short
// codes in canonical order, keeping each one bit-reversed (rev), the
// order the stream sends it in, and stepping it with zlib's reversed
// increment; the table is cleared first only when the short codes leave
// holes in it. The lengths must form a (sub-)prefix code.
//
// huff_decode peeks 9 bits, padded with zeros at the end of input, and
// one unsigned compare sends both a 0 entry and a code longer than the
// input's remaining bits to huff_slow: puff's bit-serial walk, which
// reads the 9 bits just peeked again to rebuild its state and looks for
// a match from length 10 on. It fails a code the end of input cut short
// where the walk runs out of bits, and a 0 entry with no longer code
// behind it at length 15.
var Huff = vxcc.Source{Name: "<huff>", Text: `
// Canonical Huffman: counts[len], symbols by (length, value), and
// a table of the codes of 9 bits or fewer by the next 9 bits.

void huff_build(byte *lengths, int n, int *counts, int *symbols, int *table) {
	int i;
	for (i = 0; i <= 15; i++) counts[i] = 0;
	for (i = 0; i < n; i++) counts[lengths[i]]++;
	if (counts[0] == n) die("empty huffman table");
	counts[0] = 0;
	int left = 1;
	int holes = 0;
	for (i = 1; i <= 15; i++) {
		left = (left << 1) - counts[i];
		if (left < 0) die("over-subscribed huffman table");
		if (i == 9) holes = left;
	}
	int offs[16];
	offs[1] = 0;
	for (i = 1; i < 15; i++) offs[i + 1] = offs[i] + counts[i];
	for (i = 0; i < n; i++)
		if (lengths[i]) symbols[offs[lengths[i]]++] = i;

	if (holes) for (i = 0; i < 512; i++) table[i] = 0;
	int rev = 0;
	int k = 0;
	int len;
	for (len = 1; len <= 9; len++) {
		int step = 1 << len;
		int c;
		for (c = counts[len]; c > 0; c--) {
			int e = (symbols[k++] << 4) | len;
			for (i = rev; i < 512; i += step) table[i] = e;
			int inc = step >> 1;
			while (rev & inc) inc >>= 1;
			rev = inc ? (rev & (inc - 1)) + inc : 0;
		}
	}
}

int huff_slow(int *counts, int *symbols) {
	int code = 0;
	int first = 0;
	int index = 0;
	int len;
	for (len = 1; len <= 15; len++) {
		code = (code << 1) | getbit();
		int count = counts[len];
		if (len > 9 && code - first < count) return symbols[index + code - first];
		index += count;
		first = (first + count) << 1;
	}
	die("bad huffman code");
	return -1;
}

int huff_decode(int *counts, int *symbols, int *table) {
	if (__bitcnt < 9) bits_fill(0);
	int e = table[__bitbuf & 511u];
	int len = e & 15;
	if ((uint)(len - 1) >= (uint)__bitcnt) return huff_slow(counts, symbols);
	__bitbuf >>= len;
	__bitcnt -= len;
	return e >> 4;
}
`}
