//go:build race

package nn

// raceEnabled reports whether the binary was built with the race
// detector, under which sync.Pool drops a random share of the buffers
// put back, so allocation-count assertions do not hold.
const raceEnabled = true
