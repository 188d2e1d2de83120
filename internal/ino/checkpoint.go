package ino

import "clear/internal/sim"

// extra is the in-order core's part of a checkpoint: its flip-flop state,
// the latch struct itself, and the flush-recovery control's hardened
// shadow registers (see the Core field comments).
type extra struct {
	u            uLatches
	recoveryNext uint32
	nextAtM      uint32
}

// Snapshot captures the full simulation state at the current cycle.
func (c *Core) Snapshot() *sim.Checkpoint {
	return &sim.Checkpoint{
		Regs:    c.regfile,
		Mem:     append([]uint32(nil), c.mem...),
		Out:     append([]uint32(nil), c.out...),
		Cycles:  c.cycles,
		Retired: c.retired,
		Done:    c.done,
		Status:  c.status,
		Extra:   &extra{c.u, c.recoveryNext, c.nextAtM},
	}
}

// Restore rewinds the core to ck, which must have been taken from an
// in-order core bound to the same program.
func (c *Core) Restore(ck *sim.Checkpoint) {
	e := ck.Extra.(*extra)
	c.u = e.u
	c.decodeLatches()
	c.regfile = ck.Regs
	if cap(c.mem) >= len(ck.Mem) {
		c.mem = c.mem[:len(ck.Mem)]
	} else {
		c.mem = make([]uint32, len(ck.Mem))
	}
	copy(c.mem, ck.Mem)
	c.out = append(c.out[:0], ck.Out...)
	c.cycles = ck.Cycles
	c.retired = ck.Retired
	c.done = ck.Done
	c.status = ck.Status
	c.recoveryNext = e.recoveryNext
	c.nextAtM = e.nextAtM
}

// Matches reports whether the core's current state shares ck's future
// (sim.Core.Matches): at ck's cycle it equals ck bit for bit except in the
// retired counter and in inert flip-flops. The in-order core gates no
// payloads (Dead is false), so only its inert fields are set aside.
func (c *Core) Matches(ck *sim.Checkpoint) bool {
	e, ok := ck.Extra.(*extra)
	if !ok {
		return false
	}
	return c.cycles == ck.Cycles &&
		c.done == ck.Done &&
		c.status == ck.Status &&
		c.recoveryNext == e.recoveryNext &&
		c.nextAtM == e.nextAtM &&
		c.regfile == ck.Regs &&
		(c.u == e.u || latches.EqualExcept(&c.u, &e.u, sharedSpace.Inert)) &&
		sim.WordsEqual(c.out, ck.Out) &&
		sim.WordsEqual(c.mem, ck.Mem)
}
