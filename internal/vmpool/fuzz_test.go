package vmpool_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vm"
	"vxa/internal/vmpool"

	_ "vxa/internal/codec/deflate"
)

// fuzzPool shares one pool (and thus one decoder snapshot) across all
// fuzz executions, like a long-running extraction service would.
var (
	fuzzPoolOnce sync.Once
	fuzzPool     *vmpool.Pool
	fuzzElf      []byte
	fuzzErr      error
)

func fuzzSetup() {
	fuzzPoolOnce.Do(func() {
		c, ok := codec.ByName("deflate")
		if !ok {
			panic("deflate codec not registered")
		}
		fuzzElf, fuzzErr = c.DecoderELF()
		// A small guest keeps per-execution cost down; the deflate
		// decoder fits comfortably.
		fuzzPool = vmpool.New(vmpool.Options{VM: vm.Config{MemSize: 8 << 20}})
	})
}

// fuzzFuel bounds each stream tightly so a fuzz input that sends the
// decoder into a long loop costs microseconds, not the default budget.
const fuzzFuel = int64(2) << 20

// FuzzRunStream feeds arbitrary bytes as the encoded stdin stream of a
// pooled archived decoder. Whatever the bytes are, the sandbox contract
// holds: the VM returns an error or a trap — it never panics, and the
// pool stays serviceable for the next stream.
func FuzzRunStream(f *testing.F) {
	fuzzSetup()
	if fuzzErr != nil {
		f.Fatal(fuzzErr)
	}
	// Seeds: a valid deflate stream, a truncation of it, raw garbage.
	c, _ := codec.ByName("deflate")
	var enc bytes.Buffer
	if err := c.Encode(&enc, []byte("the archive decoder stream compress buffer")); err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Bytes())
	f.Add(enc.Bytes()[:enc.Len()/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xfe, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		lease, err := fuzzPool.Get(context.Background(), "deflate", 0644, func() ([]byte, error) { return fuzzElf, nil })
		if err != nil {
			t.Fatal(err)
		}
		reusable, err := lease.VM().RunStream(context.Background(), bytes.NewReader(data), io.Discard, nil, fuzzFuel)
		if err != nil {
			lease.Release(false)
			return // decode failure contained by the sandbox: the contract
		}
		lease.Release(reusable)
	})
}
