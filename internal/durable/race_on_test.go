//go:build race

package durable

// raceEnabled disables allocation-count assertions: the race detector
// defeats sync.Pool's per-P fast path, so alloc budgets don't hold.
const raceEnabled = true
