//go:build race

package shard

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so allocation-count tests are skipped.
const raceEnabled = true
