package ooo

import "clear/internal/sim"

// Gang hooks for the packed fault-injection engine (sim.GangCore,
// DESIGN.md §14): lane forking via core-to-core state cloning and the
// per-cycle classified divergence check against the fault-free carrier.

var _ sim.GangCore = (*Core)(nil)

// CopyStateFrom makes the core's state bit-for-bit identical to src, a
// second out-of-order core bound to the same program: the latch state, what
// it determines (derived.go), and everything outside the flip-flop space.
// The threaded translation is a memoized derivation of the program, not
// state; the commit hook and DiffFrom's hint are left untouched, like
// Restore.
func (c *Core) CopyStateFrom(src sim.Core) {
	s := src.(*Core)
	c.program = s.program
	c.tp = s.tp
	c.u = s.u
	c.d = s.d
	c.arf = s.arf
	if cap(c.mem) >= len(s.mem) {
		c.mem = c.mem[:len(s.mem)]
	} else {
		c.mem = make([]uint32, len(s.mem))
	}
	copy(c.mem, s.mem)
	c.out = append(c.out[:0], s.out...)
	c.btbTag = s.btbTag
	c.btbTgt = s.btbTgt
	c.btbValid = s.btbValid
	c.gshare = s.gshare
	c.cacheTag = s.cacheTag
	c.cacheVld = s.cacheVld
	c.cycles = s.cycles
	c.retired = s.retired
	c.done = s.done
	c.status = s.status
}

// DiffFrom compares the core's full state against ref (a second
// out-of-order core bound to the same program) and returns the first
// divergence class found: control path, then latch/register state, then
// memory/output/SRAM side state (the predictor and cache-metadata arrays
// carry no architectural values but steer latencies and redirects, so they
// gate reconvergence exactly as they do in Matches). The cycle and retired
// counters are not compared: Step reads neither. A zero result certifies
// identical state apart from them, which shares ref's future. The latch
// words are compared from the word in which the core last differed from a
// core it was compared with (ff.Latches.Differ), and the state derived
// from them is not compared at all: equal words determine it.
func (c *Core) DiffFrom(ref sim.Core) uint8 {
	o := ref.(*Core)
	if c.done != o.done || c.status != o.status || c.u.pc != o.u.pc {
		return sim.DiffCtl
	}
	if c.arf != o.arf || latches.Differ(&c.u, &o.u, &c.diffHint) {
		return sim.DiffState
	}
	if !sim.WordsEqual(c.out, o.out) || !sim.WordsEqual(c.mem, o.mem) ||
		c.btbTag != o.btbTag || c.btbTgt != o.btbTgt || c.btbValid != o.btbValid ||
		c.gshare != o.gshare || c.cacheTag != o.cacheTag || c.cacheVld != o.cacheVld {
		return sim.DiffAux
	}
	return 0
}
