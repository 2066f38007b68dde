package codec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vxcc"
)

// decoderDigests compiles every built-in decoder from its sources — not
// through Codec.Build, which compiles once per process — and returns the
// SHA-256 of each ELF by codec name.
func decoderDigests(t *testing.T) map[string]string {
	t.Helper()
	d := make(map[string]string)
	for _, c := range codec.All() {
		b, err := vxcc.Compile(vxcc.Options{}, c.Sources...)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sum := sha256.Sum256(b.ELF)
		d[c.Name] = hex.EncodeToString(sum[:])
	}
	return d
}

func sameDigests(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decoders, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: decoder %s compiled to %s, want %s", what, name, got[name], w)
		}
	}
}

// TestDecoderCompileDeterministic: the contract at vxcc.Version — one
// source, one ELF — on which a decoder's content address rests.
func TestDecoderCompileDeterministic(t *testing.T) {
	first := decoderDigests(t)
	if len(first) < 6 {
		t.Fatalf("only %d built-in decoders registered", len(first))
	}
	sameDigests(t, "second compile in this process", decoderDigests(t), first)
}

const digestHelperEnv = "VXA_TEST_DECODER_DIGESTS"

// TestDecoderDigestHelper is the subprocess half of the test below: it
// prints this process's digests as JSON and does nothing on its own.
func TestDecoderDigestHelper(t *testing.T) {
	if os.Getenv(digestHelperEnv) == "" {
		t.Skip("helper for TestDecoderCompileDeterministicAcrossProcesses")
	}
	if err := json.NewEncoder(os.Stdout).Encode(decoderDigests(t)); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderCompileDeterministicAcrossProcesses: two more processes,
// each with its own map iteration seed, compile to the same bytes as
// this one. The layout of globals used to follow that seed.
func TestDecoderCompileDeterministicAcrossProcesses(t *testing.T) {
	want := decoderDigests(t)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDecoderDigestHelper$")
		cmd.Env = append(os.Environ(), digestHelperEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("subprocess %d: %v", i, err)
		}
		var got map[string]string
		// The JSON line is followed by the test binary's own "PASS".
		if err := json.NewDecoder(bytes.NewReader(out)).Decode(&got); err != nil {
			t.Fatalf("subprocess %d printed %q: %v", i, out, err)
		}
		sameDigests(t, "subprocess", got, want)
	}
}
