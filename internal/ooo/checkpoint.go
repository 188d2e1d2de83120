package ooo

import (
	"slices"

	"clear/internal/sim"
)

// extra is the out-of-order core's part of a checkpoint: its flip-flop
// state, the latch struct itself, and the predictor and cache-metadata
// SRAM structures. The SRAMs carry no architectural values but determine
// access latencies and fetch redirects, so they are part of the checkpoint
// — restoring must reproduce the exact cycle-by-cycle future.
type extra struct {
	u        uLatches
	btbTag   [btbSize]uint32
	btbTgt   [btbSize]uint32
	btbValid [btbSize]bool
	gshare   [gshareSize]uint8
	cacheTag [CacheLines]uint32
	cacheVld [CacheLines]bool
}

// Snapshot captures the full simulation state at the current cycle.
func (c *Core) Snapshot() *sim.Checkpoint {
	return &sim.Checkpoint{
		Regs:    c.arf,
		Mem:     append([]uint32(nil), c.mem...),
		Out:     append([]uint32(nil), c.out...),
		Cycles:  c.cycles,
		Retired: c.retired,
		Done:    c.done,
		Status:  c.status,
		Extra: &extra{
			u:        c.u,
			btbTag:   c.btbTag,
			btbTgt:   c.btbTgt,
			btbValid: c.btbValid,
			gshare:   c.gshare,
			cacheTag: c.cacheTag,
			cacheVld: c.cacheVld,
		},
	}
}

// Restore rewinds the core to ck, which must have been taken from an
// out-of-order core bound to the same program.
func (c *Core) Restore(ck *sim.Checkpoint) {
	e := ck.Extra.(*extra)
	c.u = e.u
	c.arf = ck.Regs
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
	c.btbTag = e.btbTag
	c.btbTgt = e.btbTgt
	c.btbValid = e.btbValid
	c.gshare = e.gshare
	c.cacheTag = e.cacheTag
	c.cacheVld = e.cacheVld
}

// Matches reports whether the core's current state equals ck bit-for-bit.
func (c *Core) Matches(ck *sim.Checkpoint) bool {
	e, ok := ck.Extra.(*extra)
	if !ok {
		return false
	}
	return c.cycles == ck.Cycles &&
		c.retired == ck.Retired &&
		c.done == ck.Done &&
		c.status == ck.Status &&
		c.arf == ck.Regs &&
		c.btbTag == e.btbTag &&
		c.btbTgt == e.btbTgt &&
		c.btbValid == e.btbValid &&
		c.gshare == e.gshare &&
		c.cacheTag == e.cacheTag &&
		c.cacheVld == e.cacheVld &&
		c.u == e.u &&
		slices.Equal(c.out, ck.Out) &&
		slices.Equal(c.mem, ck.Mem)
}
