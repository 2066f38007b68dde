package vmpool

import "vxa/internal/vm"

// SnapshotOf returns the pristine snapshot the pool holds for codec. It
// exists for the tests that decode with the built-in codecs: those live
// in package vmpool_test, since package codec runs its one-shot decodes
// on this package.
func (p *Pool) SnapshotOf(codec string) *vm.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lines[codec].snap
}

// IdleCount reports how many idle VMs the pool currently retains across
// all keys.
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pl := range p.lines {
		pl.mu.Lock()
		n += len(pl.idle)
		pl.mu.Unlock()
	}
	return n
}
