//go:build race

package vm_test

// raceEnabled: the race detector's runtime allocates on its own account,
// so allocation counts do not apply.
const raceEnabled = true
