//go:build race

package bmeh

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled scratch allocates and allocation counts are noise.
const raceEnabled = true
