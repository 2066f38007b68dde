//go:build race

package codec_test

// raceEnabled: the race detector's runtime allocates on its own account,
// so allocation ceilings do not apply.
const raceEnabled = true
