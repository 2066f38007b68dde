//go:build !race

package vm_test

const raceEnabled = false
