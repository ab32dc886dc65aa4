package dca

import "sync/atomic"

// The execution arenas publish lock-free process-wide counters so the
// serving daemon can expose allocation telemetry without dca importing
// the server. Recording is one atomic operation per slab growth or
// arena reset — never per instruction.

var (
	arenaGrows atomic.Int64 // slab growths (warm-up and high-water bumps)
	arenaBytes atomic.Int64 // high-water retained arena footprint, bytes
)

// ArenaCounters is a snapshot of the execution-arena counters.
type ArenaCounters struct {
	// Grows counts slab growths across all arenas — zero growth between
	// two snapshots proves an allocation-free steady state.
	Grows int64
	// Bytes is the largest retained arena footprint seen.
	Bytes int64
}

// ArenaStats snapshots the process-wide execution-arena counters.
func ArenaStats() ArenaCounters {
	return ArenaCounters{Grows: arenaGrows.Load(), Bytes: arenaBytes.Load()}
}

// recordArenaBytes raises the high-water retained-bytes mark.
func recordArenaBytes(n int64) {
	for {
		cur := arenaBytes.Load()
		if n <= cur || arenaBytes.CompareAndSwap(cur, n) {
			return
		}
	}
}
