package codec_test

import (
	"bytes"
	"context"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/elf32"
	"vxa/internal/vm"
)

// TestLinksPointAtHeldTraces: a link slot only ever holds the entry of a
// trace the VM holds. Every built-in decoder decodes its roundtrip-golden
// input with every superblock compiled on first entry, so as many exits
// link as ever will; the whole link table must then satisfy the slot
// invariant (vm.CheckLinks walks it), and again after the VM's
// translation work is absorbed and the VM reset — which must leave no
// link behind, whatever traces it installs — and again after a second
// stream on the installed traces.
func TestLinksPointAtHeldTraces(t *testing.T) {
	for _, c := range codec.All() {
		if c.Encode == nil {
			continue
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc, roundTripInput(c)); err != nil {
			t.Fatal(err)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20, OptLevel: vm.OptEager})
		if err != nil {
			t.Fatal(err)
		}
		snap := v.Snapshot()
		stream := func() []byte {
			var out bytes.Buffer
			if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()), &out, nil, vm.StreamFuel(enc.Len())); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			return out.Bytes()
		}
		want := stream()
		linked, err := v.CheckLinks()
		if err != nil {
			t.Fatalf("%s, after a stream: %v", c.Name, err)
		}
		if st := v.Stats(); st.Tier2Compiled == 0 {
			t.Skip("no compiled tier on this platform")
		} else if linked == 0 && st.Tier2Links != 0 {
			t.Fatalf("%s: %d exits linked, none in the table", c.Name, st.Tier2Links)
		}

		snap.AbsorbBlocks(v)
		if err := v.Reset(snap); err != nil {
			t.Fatal(err)
		}
		if n, err := v.CheckLinks(); err != nil || n != 0 {
			t.Fatalf("%s, after Reset: %d slots linked, %v", c.Name, n, err)
		}
		if got := stream(); !bytes.Equal(got, want) {
			t.Fatalf("%s: the stream on installed traces decoded differently", c.Name)
		}
		again, err := v.CheckLinks()
		if err != nil {
			t.Fatalf("%s, after a stream on installed traces: %v", c.Name, err)
		}
		t.Logf("%-8s %3d slots linked by the first stream, %3d by the second (on %d installed traces)",
			c.Name, linked, again, v.Stats().Tier2Shared)
	}
}
