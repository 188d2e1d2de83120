package ino

import "clear/internal/sim"

// Gang hooks for the packed fault-injection engine (sim.GangCore,
// DESIGN.md §14): lane forking via core-to-core state cloning and the
// per-cycle classified divergence check against the fault-free carrier.

var _ sim.GangCore = (*Core)(nil)

// CopyStateFrom makes the core's state bit-for-bit identical to src, a
// second in-order core bound to the same program: the latch state with its
// stage decodes, and everything outside the flip-flop space. The threaded
// translation is a memoized derivation of the program, not state; the
// commit hook is left untouched, like Restore.
func (c *Core) CopyStateFrom(src sim.Core) {
	s := src.(*Core)
	c.program = s.program
	c.tp = s.tp
	c.u = s.u
	c.ud = s.ud
	c.regfile = s.regfile
	if cap(c.mem) >= len(s.mem) {
		c.mem = c.mem[:len(s.mem)]
	} else {
		c.mem = make([]uint32, len(s.mem))
	}
	copy(c.mem, s.mem)
	c.out = append(c.out[:0], s.out...)
	c.cycles = s.cycles
	c.retired = s.retired
	c.done = s.done
	c.status = s.status
	c.recoveryNext = s.recoveryNext
	c.nextAtM = s.nextAtM
}

// Dead reports false for every bit: the in-order core declares no gated
// payloads, so only its inert fields (ff.Space.AllocInert) are decided at
// a fork.
func (c *Core) Dead(int) bool { return false }

// DiffFrom compares the core's full state against ref (a second in-order
// core bound to the same program) and returns the first divergence class
// found: control path, then latch/register state, then memory/output side
// state. The cycle and retired counters are not compared: Step reads
// neither. A zero result certifies identical state apart from them, which
// shares ref's future.
func (c *Core) DiffFrom(ref sim.Core) uint8 {
	o := ref.(*Core)
	if c.done != o.done || c.status != o.status || c.u.fPC != o.u.fPC {
		return sim.DiffCtl
	}
	if c.regfile != o.regfile || c.recoveryNext != o.recoveryNext || c.nextAtM != o.nextAtM ||
		c.u != o.u {
		return sim.DiffState
	}
	if !sim.WordsEqual(c.out, o.out) || !sim.WordsEqual(c.mem, o.mem) {
		return sim.DiffAux
	}
	return 0
}
