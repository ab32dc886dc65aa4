package dca

// The compiled engine's transient execution state — register frames,
// parameter buffers, visit counters — lives in a caller-owned execArena
// instead of the garbage-collected heap. AnalyzeProgram keeps one arena
// per program and resets (never frees) it between kernel launches, so
// steady-state compiled execution performs zero heap allocations after
// warm-up: each slab grows to its high-water mark during the first pass
// over a workload and every later take carves from the retained buffer.
// TestZeroAlloc pins the property with testing.AllocsPerRun.

// slab is a bump allocator over one contiguous buffer of T. take
// returns zeroed, capacity-clipped subslices; reset rewinds the bump
// pointer and, when the previous run outgrew the buffer, re-sizes it to
// the run's cumulative demand so the next run allocates nothing.
type slab[T any] struct {
	buf []T
	off int
	// need is the cumulative demand of the current run, including takes
	// that forced a mid-run grow. reset sizes the buffer from it.
	need int
}

// take returns a zeroed slice of n elements carved from the slab. The
// returned slice stays valid until the owning arena is reset — mid-run
// grows retire the old buffer but never recycle outstanding memory.
func (s *slab[T]) take(n int) []T {
	p := s.takeRaw(n)
	clear(p)
	return p
}

// takeRaw is take without the zeroing pass, for buffers whose every
// read is gated by a separately-tracked written bit (register frames)
// or that are fully written before any read (parameter values and
// their bound bits). Recycled garbage is then unobservable and the
// clear is pure cost.
func (s *slab[T]) takeRaw(n int) []T {
	if n == 0 {
		return nil
	}
	s.need += n
	if s.off+n > len(s.buf) {
		size := 2 * len(s.buf)
		if size < n {
			size = n
		}
		if size < 64 {
			size = 64
		}
		s.buf = make([]T, size)
		s.off = 0
		arenaGrows.Add(1)
	}
	p := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return p
}

// reset rewinds the slab for the next run. A run that outgrew the
// buffer gets a single right-sized replacement now, off the hot path,
// so the next identical run is allocation-free.
func (s *slab[T]) reset() {
	if s.need > len(s.buf) {
		s.buf = make([]T, s.need)
		arenaGrows.Add(1)
	}
	s.off, s.need = 0, 0
}

// execArena owns every transient buffer of one execution context:
// register frames and writtenness bits, parameter values, and
// per-instruction visit counters. One arena serves one goroutine;
// AnalyzeProgram resets it between launches.
type execArena struct {
	i64 slab[int64]
	bit slab[bool]
}

// newExecArena returns an empty arena. Slabs materialize on first use.
func newExecArena() *execArena {
	return &execArena{}
}

// reset rewinds all slabs for the next execution and publishes the
// arena's retained-bytes high-water mark to the metrics hook.
func (a *execArena) reset() {
	a.i64.reset()
	a.bit.reset()
	recordArenaBytes(a.bytes())
}

// bytes is the total retained buffer footprint of the arena.
func (a *execArena) bytes() int64 {
	return int64(len(a.i64.buf))*8 + int64(len(a.bit.buf))
}
