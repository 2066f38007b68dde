package bench

import (
	"bytes"
	"compress/flate"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// deflatedSize is the size of elf compressed as an archive stores a
// decoder pseudo-file.
func deflatedSize(elf []byte) int {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		panic(err)
	}
	fw.Write(elf)
	fw.Close()
	return buf.Len()
}
