package codec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vxcc"
)

// pinnedDigest is one decoder's ELF by size and SHA-256, as
// testdata/decoder_sha256.json records it.
type pinnedDigest struct {
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
}

// decoderDigests compiles every built-in decoder from its sources — not
// through Codec.Build, which compiles once per process — and returns each
// ELF's digest by codec name.
func decoderDigests(t *testing.T) map[string]pinnedDigest {
	t.Helper()
	d := make(map[string]pinnedDigest)
	for _, c := range codec.All() {
		b, err := vxcc.Compile(vxcc.Options{}, c.Sources...)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sum := sha256.Sum256(b.ELF)
		d[c.Name] = pinnedDigest{SHA256: hex.EncodeToString(sum[:]), Size: len(b.ELF)}
	}
	return d
}

func sameDigests(t *testing.T, what string, got, want map[string]pinnedDigest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decoders, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: decoder %s compiled to %+v, want %+v", what, name, got[name], w)
		}
	}
}

const pinnedDigestsPath = "testdata/decoder_sha256.json"

// TestDecoderDigestsPinned holds every built-in decoder's ELF to the
// bytes committed in testdata/decoder_sha256.json. A change to the
// compiler that is meant to be invisible in its output — a faster lexer,
// a buffer sized up front — must leave this file alone; one that moves a
// byte changes what an archive carries and so every content address, and
// must bump vxcc.Version, which the artifact store's ELF-hash index is
// keyed by beside the source text. A change to a decoder's own sources
// needs only -update: the index keys it by that text already.
func TestDecoderDigestsPinned(t *testing.T) {
	got := decoderDigests(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedDigestsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]pinnedDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-8s %6d bytes sha256 %s", name, got[name].Size, got[name].SHA256)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest (a new decoder: run with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: decoder compiled to %d bytes, sha256 %s; pinned %d bytes, sha256 %s: "+
				"a change to a decoder's own sources needs only -update (the artifact index is keyed by source text); "+
				"a change to the compiler or libvx needs a vxcc.Version bump first",
				name, got[name].Size, got[name].SHA256, w.Size, w.SHA256)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer registered (run with -update)", name)
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
		var got map[string]pinnedDigest
		// The JSON line is followed by the test binary's own "PASS".
		if err := json.NewDecoder(bytes.NewReader(out)).Decode(&got); err != nil {
			t.Fatalf("subprocess %d printed %q: %v", i, out, err)
		}
		sameDigests(t, "subprocess", got, want)
	}
}
