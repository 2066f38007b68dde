// Package adpcm implements "vxadpcm", the reproduction's stand-in for
// the paper's lossy Ogg/Vorbis audio codec: an IMA ADPCM coder that
// compresses 16-bit PCM WAV to 4 bits per sample. Like the paper's
// vorbis redec, the decoder emits uncompressed audio "in the ubiquitous
// Windows WAV audio file format" (§5.1).
//
// Stream format "VXA1" (little-endian):
//
//	magic "VXA1", u16 channels, u32 sampleRate, u32 frames
//	then ceil(frames*channels/2) bytes of 4-bit codes, two per byte
//	(low nibble first), samples interleaved by channel.
//
// Both the Go and the VXC decoders implement the identical integer
// algorithm, so their outputs are bit-exact.
package adpcm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vxa/internal/codec"
	"vxa/internal/vxcc"
	"vxa/internal/wav"
)

// ErrFormat reports a malformed VXA1 stream.
var ErrFormat = errors.New("adpcm: malformed VXA1 stream")

// stepTable is the standard IMA ADPCM step size table.
var stepTable = [89]int32{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
	41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
	190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
	724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
	6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
	16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// indexTable is the standard IMA index adjustment table.
var indexTable = [16]int32{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}

type state struct {
	pred int32 // predicted sample
	idx  int32 // step table index
}

// encodeSample quantizes one sample difference to a 4-bit code and
// updates the predictor state exactly as the decoder will.
func (s *state) encodeSample(sample int32) byte {
	step := stepTable[s.idx]
	diff := sample - s.pred
	var code byte
	if diff < 0 {
		code = 8
		diff = -diff
	}
	if diff >= step {
		code |= 4
		diff -= step
	}
	if diff >= step>>1 {
		code |= 2
		diff -= step >> 1
	}
	if diff >= step>>2 {
		code |= 1
	}
	s.decodeSample(code)
	return code
}

// decodeSample applies one 4-bit code to the predictor state and returns
// the reconstructed sample.
func (s *state) decodeSample(code byte) int32 {
	step := stepTable[s.idx]
	delta := step >> 3
	if code&4 != 0 {
		delta += step
	}
	if code&2 != 0 {
		delta += step >> 1
	}
	if code&1 != 0 {
		delta += step >> 2
	}
	if code&8 != 0 {
		s.pred -= delta
	} else {
		s.pred += delta
	}
	if s.pred > 32767 {
		s.pred = 32767
	}
	if s.pred < -32768 {
		s.pred = -32768
	}
	s.idx += indexTable[code]
	if s.idx < 0 {
		s.idx = 0
	}
	if s.idx > 88 {
		s.idx = 88
	}
	return s.pred
}

// Encode compresses a 16-bit PCM WAV file to VXA1.
func Encode(dst io.Writer, src []byte) error {
	snd, err := wav.Decode(src)
	if err != nil {
		return err
	}
	frames := snd.Frames()
	hdr := make([]byte, 14)
	copy(hdr, "VXA1")
	binary.LittleEndian.PutUint16(hdr[4:], uint16(snd.Channels))
	binary.LittleEndian.PutUint32(hdr[6:], uint32(snd.SampleRate))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(frames))
	if _, err := dst.Write(hdr); err != nil {
		return err
	}
	states := make([]state, snd.Channels)
	total := frames * snd.Channels
	out := make([]byte, 0, (total+1)/2)
	var cur byte
	for i := 0; i < total; i++ {
		ch := i % snd.Channels
		code := states[ch].encodeSample(int32(snd.Samples[i]))
		if i%2 == 0 {
			cur = code
		} else {
			out = append(out, cur|code<<4)
		}
	}
	if total%2 == 1 {
		out = append(out, cur)
	}
	_, err = dst.Write(out)
	return err
}

// Decode is the native decoder: VXA1 in, canonical WAV out.
func Decode(dst io.Writer, src io.Reader) error {
	var hdr [14]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if string(hdr[:4]) != "VXA1" {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	channels := int(binary.LittleEndian.Uint16(hdr[4:]))
	rate := int(binary.LittleEndian.Uint32(hdr[6:]))
	frames := int(binary.LittleEndian.Uint32(hdr[10:]))
	if channels < 1 || channels > 8 || frames < 0 || frames > 1<<28 {
		return fmt.Errorf("%w: bad header", ErrFormat)
	}
	total := frames * channels
	packed := make([]byte, (total+1)/2)
	if _, err := io.ReadFull(src, packed); err != nil {
		return fmt.Errorf("%w: truncated sample data", ErrFormat)
	}
	snd := &wav.Sound{Channels: channels, SampleRate: rate, Samples: make([]int16, total)}
	states := make([]state, channels)
	for i := 0; i < total; i++ {
		var code byte
		if i%2 == 0 {
			code = packed[i/2] & 15
		} else {
			code = packed[i/2] >> 4
		}
		snd.Samples[i] = int16(states[i%channels].decodeSample(code))
	}
	_, err := dst.Write(wav.Encode(snd))
	return err
}

// adpcmMain is the VXA decoder in VXC. Byte-oriented (no bit reader).
//
// The sample loop runs as one straight-line trace per input byte: both
// nibbles of a byte are decoded in one iteration, the channel advances
// by a wrapping counter instead of a modulo, and every data-dependent
// choice of decodeSample is arithmetic rather than a branch. A code bit
// shifted up to bit 31 and back is a mask, 0 or all ones: the three step
// bits select their terms of delta through masks, the sign bit's mask s
// negates delta as (delta ^ s) - s, and each clamp subtracts the
// overshoot masked by its sign. The two samples of a byte are stored into
// the runtime's output buffer as one 32-bit word, and an odd stream's
// last, unused nibble is taken back; the WAV header is 44 bytes long, so
// the buffer position stays a multiple of four and fills to exactly
// IOBUF before each flush, as putb's did. Each sum and clamp is the one
// decodeSample computes, so the output is bit-identical to Decode's.
var adpcmMain = vxcc.Source{Name: "vxadpcm.vxc", Text: `
// VXA1 IMA-ADPCM decoder: VXA codec "adpcm". Output: WAV audio.

const int steptab[89] = {
	7,8,9,10,11,12,13,14,16,17,19,21,23,25,28,31,34,37,
	41,45,50,55,60,66,73,80,88,97,107,118,130,143,157,173,
	190,209,230,253,279,307,337,371,408,449,494,544,598,658,
	724,796,876,963,1060,1166,1282,1411,1552,1707,1878,2066,
	2272,2499,2749,3024,3327,3660,4026,4428,4871,5358,5894,
	6484,7132,7845,8630,9493,10442,11487,12635,13899,15289,
	16818,18500,20350,22385,24623,27086,29794,32767
};
const int idxtab[16] = {-1,-1,-1,-1,2,4,6,8,-1,-1,-1,-1,2,4,6,8};

int pred[8];
int sidx[8];

void wav_header(int channels, int rate, int frames) {
	int datalen = frames * channels * 2;
	if (__outpos > IOBUF - 44) flushout();
	byte *o = __outbuf + __outpos;
	__outpos += 44;
	*(uint*)o = 'R' | ('I' << 8) | ('F' << 16) | ('F' << 24);
	*(uint*)(o + 4) = 36 + datalen;
	*(uint*)(o + 8) = 'W' | ('A' << 8) | ('V' << 16) | ('E' << 24);
	*(uint*)(o + 12) = 'f' | ('m' << 8) | ('t' << 16) | (' ' << 24);
	*(uint*)(o + 16) = 16;
	*(uint*)(o + 20) = 1 | (channels << 16);
	*(uint*)(o + 24) = rate;
	*(uint*)(o + 28) = rate * channels * 2;
	*(uint*)(o + 32) = (channels * 2) | (16 << 16);
	*(uint*)(o + 36) = 'd' | ('a' << 8) | ('t' << 16) | ('a' << 24);
	*(uint*)(o + 40) = datalen;
}

int main(void) {
	while (1) {
		__stdio_reset();
		if (mustgetb() != 'V' || mustgetb() != 'X' || mustgetb() != 'A' || mustgetb() != '1')
			die("not a VXA1 stream");
		int channels = get2le();
		int rate = get4le();
		int frames = get4le();
		if (channels < 1 || channels > 8) die("bad channel count");
		if (frames < 0 || frames > (1 << 28)) die("bad frame count");
		int ch;
		for (ch = 0; ch < channels; ch++) { pred[ch] = 0; sidx[ch] = 0; }
		wav_header(channels, rate, frames);
		uint total = frames * channels; // up to 8 << 28, one past the largest int
		int n = (total >> 1) + (total & 1);
		ch = 0;
		while (n > 0) {
			int b;
			if (__inpos < __inlen) b = __inbuf[__inpos++];
			else b = mustgetb();
			int step = steptab[sidx[ch]];
			int s = (b << 28) >> 31;
			int p = pred[ch] + ((((step >> 3) + (step & ((b << 29) >> 31)) + ((step >> 1) & ((b << 30) >> 31))
				+ ((step >> 2) & ((b << 31) >> 31))) ^ s) - s);
			int d = p - 32767;
			p -= d & ~(d >> 31);
			d = p + 32768;
			p -= d & (d >> 31);
			pred[ch] = p;
			s = sidx[ch] + idxtab[b & 15];
			s &= ~(s >> 31);
			d = s - 88;
			sidx[ch] = s - (d & ~(d >> 31));
			int out = p & 0xFFFF;
			ch++;
			if (ch == channels) ch = 0;
			step = steptab[sidx[ch]];
			s = (b << 24) >> 31;
			p = pred[ch] + ((((step >> 3) + (step & ((b << 25) >> 31)) + ((step >> 1) & ((b << 26) >> 31))
				+ ((step >> 2) & ((b << 27) >> 31))) ^ s) - s);
			d = p - 32767;
			p -= d & ~(d >> 31);
			d = p + 32768;
			p -= d & (d >> 31);
			pred[ch] = p;
			s = sidx[ch] + idxtab[b >> 4];
			s &= ~(s >> 31);
			d = s - 88;
			sidx[ch] = s - (d & ~(d >> 31));
			ch++;
			if (ch == channels) ch = 0;
			if (__outpos > IOBUF - 4) flushout();
			*(uint*)(__outbuf + __outpos) = out | (p << 16);
			__outpos += 4;
			n--;
		}
		if (total & 1) __outpos -= 2;
		vxa_done();
	}
	return 0;
}
`}

func init() {
	codec.Register(&codec.Codec{
		Name:   "adpcm",
		Desc:   "IMA ADPCM lossy audio coder (4 bits/sample)",
		Output: "WAV audio",
		Kind:   codec.MediaCodec,
		Lossy:  true,
		Recognize: func(data []byte) bool {
			return len(data) >= 14 && string(data[:4]) == "VXA1"
		},
		CanEncode: func(data []byte) bool {
			if !wav.Sniff(data) {
				return false
			}
			_, err := wav.Decode(data)
			return err == nil
		},
		Encode:  Encode,
		Decode:  Decode,
		Sources: []vxcc.Source{adpcmMain},
	})
}
