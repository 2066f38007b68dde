//go:build !race

package zipfile

const raceEnabled = false
