//go:build race

package core

// raceEnabled: the race detector's runtime allocates on its own account
// and disables sync.Pool caching, so allocation ceilings do not apply.
const raceEnabled = true
