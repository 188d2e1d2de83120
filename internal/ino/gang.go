package ino

import "clear/internal/sim"

// Gang hooks for the packed fault-injection engine (sim.GangCore,
// DESIGN.md §14): lane forking via core-to-core state cloning and the
// per-cycle classified divergence check against the fault-free carrier.

var _ sim.GangCore = (*Core)(nil)

// CopyStateFrom makes the core's state bit-for-bit identical to src, a
// second in-order core bound to the same program. Both state
// representations are copied — the packed ff.State and the unpacked latch
// mirror with its validity flag and stage decodes — so the copy is exact
// whichever representation is current, without forcing a pack/unpack
// round trip. The decode cache and threaded translation are
// shared/memoized derivations of the program, not state; the commit hook
// is left untouched, like Restore.
func (c *Core) CopyStateFrom(src sim.Core) {
	s := src.(*Core)
	c.program = s.program
	c.tp = s.tp
	c.st.CopyFrom(s.st)
	c.u = s.u
	c.uValid = s.uValid
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

// pcView reads the fetch PC from whichever state representation is
// authoritative, without synchronizing them.
func (c *Core) pcView() uint32 {
	if c.uValid {
		return c.u.fPC
	}
	return uint32(c.r.fPC.Get(c.st))
}

// DiffFrom compares the core's full state against ref (a second in-order
// core bound to the same program) and returns the first divergence class
// found: control path, then latch/register state, then memory/output side
// state. A zero result certifies bit-for-bit identical full state — the
// same guarantee Matches gives against a checkpoint. When both mirrors
// are live, the latch comparison is a single struct equality over them; mixed representations are packed first (the mirror
// stays live, exactly as in Matches).
func (c *Core) DiffFrom(ref sim.Core) uint8 {
	o := ref.(*Core)
	if c.done != o.done || c.status != o.status || c.cycles != o.cycles ||
		c.retired != o.retired || c.pcView() != o.pcView() {
		return sim.DiffCtl
	}
	if c.regfile != o.regfile || c.recoveryNext != o.recoveryNext || c.nextAtM != o.nextAtM {
		return sim.DiffState
	}
	if c.uValid && o.uValid {
		if c.u != o.u {
			return sim.DiffState
		}
	} else {
		if c.uValid {
			c.packU()
		}
		if o.uValid {
			o.packU()
		}
		if !c.st.Equal(o.st) {
			return sim.DiffState
		}
	}
	if !wordsEqual(c.out, o.out) || !wordsEqual(c.mem, o.mem) {
		return sim.DiffAux
	}
	return 0
}
