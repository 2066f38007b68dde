package x86

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateAccepted = flag.Bool("update", false, "rewrite testdata/accepted.txt from the current decoder")

const acceptedFile = "testdata/accepted.txt"

// TestAcceptedSet pins what Decode accepts, and what it makes of each
// encoding, to testdata/accepted.txt. An archive's decoder must run on
// every later reader, so a change to that set is a reviewed diff of the
// table, never a side effect of rewriting the decoder.
//
// The sweep is TestLowerIsTotal's (uop package): every one-byte opcode
// and every two-byte 0x0F opcode, bare and behind an F3 or 66 prefix,
// with every ModRM byte after it and then sixteen bytes all 0x00 or all
// 0x01; behind each memory ModRM whose r/m field is 4, every SIB byte.
// Each encoding the bare sweep accepts is also decoded cut short at
// every length below its own, which pins where Decode reports a
// truncation. One line per opcode: how many encodings were accepted and
// a SHA-256 over, for each encoding in sweep order, its error class
// (accepted, truncated, illegal, other) and, if accepted, its Len and
// every Inst field. Runs of opcodes with the same line are merged.
func TestAcceptedSet(t *testing.T) {
	var out strings.Builder
	out.WriteString("# x86.Decode's accepted set, one line per opcode (runs of equal lines merged):\n")
	out.WriteString("# opcode, encodings accepted, SHA-256 of every encoding's error class, Len and Inst\n")
	out.WriteString("# fields. See TestAcceptedSet; regenerate only with\n")
	out.WriteString("#   go test ./internal/x86 -run TestAcceptedSet -update\n")
	type line struct {
		lo, hi string
		sum    string
	}
	var lines []line
	for key := range 2 * 256 {
		opcode := []byte{byte(key)}
		if key >= 256 {
			opcode = []byte{0x0F, byte(key)}
		}
		n, sum := sweepOpcode(opcode)
		name := fmt.Sprintf("% x", opcode)
		s := fmt.Sprintf("%6d %x", n, sum)
		if k := len(lines) - 1; k >= 0 && lines[k].sum == s && len(lines[k].hi) == len(name) {
			lines[k].hi = name
			continue
		}
		lines = append(lines, line{name, name, s})
	}
	for _, l := range lines {
		key := l.lo
		if l.hi != l.lo {
			key += " - " + l.hi
		}
		fmt.Fprintf(&out, "%-13s %s\n", key, l.sum)
	}
	got := out.String()
	if *updateAccepted {
		if err := os.WriteFile(acceptedFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(acceptedFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("the decoder's accepted set moved; first difference at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("the decoder's accepted set moved: %d lines, want %d", len(gl), len(wl))
	}
}

// sweepOpcode decodes every encoding of the sweep that starts with
// opcode and returns how many were accepted and the digest of them all.
func sweepOpcode(opcode []byte) (accepted int, sum [32]byte) {
	h := sha256.New()
	var rec []byte
	var code [1 + 2 + 2 + 16]byte
	var inst, short Inst
	tail := [2][16]byte{}
	for i := range tail[1] {
		tail[1][i] = 1
	}
	for _, prefix := range []byte{0, 0xF3, 0x66} {
		for pad := range 2 {
			for m := range 256 {
				for sib := -1; sib < 256; sib++ {
					if sib >= 0 && (m&7 != 4 || m>>6 == 3) {
						break
					}
					b := code[:0]
					if prefix != 0 {
						b = append(b, prefix)
					}
					b = append(b, opcode...)
					b = append(b, byte(m))
					if sib >= 0 {
						b = append(b, byte(sib))
					}
					b = append(b, tail[pad][:]...)
					err := Decode(b, &inst)
					rec = appendRecord(rec, &inst, err)
					if err == nil {
						accepted++
						if prefix == 0 && pad == 0 && sib < 0 {
							for k := range int(inst.Len) {
								err := Decode(b[:k], &short)
								rec = appendRecord(rec, &short, err)
							}
						}
					}
					if len(rec) > 1<<16 {
						h.Write(rec)
						rec = rec[:0]
					}
				}
			}
		}
	}
	h.Write(rec)
	h.Sum(sum[:0])
	return accepted, sum
}

// appendRecord appends the error class of one decode and, if it was
// accepted, its Len and every field of inst.
func appendRecord(rec []byte, inst *Inst, err error) []byte {
	switch {
	case err == nil:
	case errors.Is(err, ErrTruncated):
		return append(rec, 1)
	case errors.Is(err, ErrIllegal):
		return append(rec, 2)
	default:
		return append(rec, 3)
	}
	rec = append(rec, 0, inst.Len, byte(inst.Op))
	for _, a := range []*Arg{&inst.Dst, &inst.Src, &inst.Aux} {
		rec = append(rec, byte(a.Kind), byte(a.Reg), byte(a.Base), byte(a.Index), a.Scale, a.Size)
		rec = binary.LittleEndian.AppendUint32(rec, uint32(a.Disp))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(a.Imm))
		rec = append(rec, byte(len(a.Sym)))
		rec = append(rec, a.Sym...)
	}
	rec = append(rec, byte(inst.CC))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(inst.Rel))
	rec = append(rec, byte(len(inst.Sym)))
	rec = append(rec, inst.Sym...)
	if inst.Rep {
		return append(rec, 1)
	}
	return append(rec, 0)
}
