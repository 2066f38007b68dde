// Integrity: the §2.3 operational story. An archive is verified with its
// own embedded decoders (never native ones), then a single flipped bit is
// shown to be caught, and finally a whole archive is extracted using
// ONLY archived decoders — simulating a future where no native decoder
// for these formats exists anymore.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"vxa"
	"vxa/internal/corpus"
	"vxa/internal/wav"
)

func main() {
	ctx := context.Background()
	var buf bytes.Buffer
	w := vxa.NewWriter(&buf, vxa.WriterOptions{})
	if err := w.AddFile("report.txt", corpus.Text(40000, 21), 0644); err != nil {
		log.Fatal(err)
	}
	if err := w.AddFile("session.wav", wav.Encode(corpus.Audio(22050, 1, 22)), 0600); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	archive := buf.Bytes()
	fmt.Printf("archive: %d bytes, %d decoders embedded\n", len(archive), w.DecoderCount())

	// 1. Verify the intact archive.
	r, err := vxa.OpenReader(archive)
	if err != nil {
		log.Fatal(err)
	}
	if errs := r.Verify(ctx); len(errs) != 0 {
		log.Fatal(errs[0])
	}
	fmt.Println("verify (archived decoders only): OK")

	// 2. Flip one payload bit and verify again.
	bad := append([]byte(nil), archive...)
	bad[len(bad)/3] ^= 0x10
	r2, err := vxa.OpenReader(bad)
	if err != nil {
		log.Fatal(err)
	}
	errs := r2.Verify(ctx)
	fmt.Printf("verify after 1-bit corruption: %d entr(ies) reported bad\n", len(errs))
	for _, e := range errs {
		fmt.Println("  detected:", e)
	}
	if len(errs) == 0 {
		log.Fatal("corruption was not detected!")
	}

	// 3. "The year is 2045": extract with archived decoders only, reusing
	// one VM per decoder except across security-attribute changes (§2.4).
	for i := range r.Entries() {
		e := &r.Entries()[i]
		out, err := r.ExtractBytes(ctx, e, vxa.WithMode(vxa.AlwaysVXA))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("extracted %s via archived decoder: %d bytes\n", e.Name, len(out))
	}
	fmt.Printf("pristine VM loads: %d (mode changes force re-initialization)\n", r.ReinitCount)
}
