//go:build race

package cache

// raceEnabled reports a race-detector build, where a simulation runs
// many times slower and the largest cells shrink to a size that still
// exercises the same concurrent paths.
const raceEnabled = true
