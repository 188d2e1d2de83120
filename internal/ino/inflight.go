package ino

import "clear/internal/sim"

// InFlight reports the instructions occupying the in-order pipeline at the
// current clock boundary: the fetch PC plus one entry per stage latch whose
// valid bit is set (decode through writeback). Each stage holds at most one
// instruction, so every entry uses Slot -1 and the unit name alone
// identifies the structure.
//
// The observation goes through syncU like State(): the unpacked mirror is
// flushed first, so the report reads the exact packed-state occupancy and
// the call is safe at any observation point (including right before a
// fault is injected).
func (c *Core) InFlight(dst []sim.InFlightInst) []sim.InFlightInst {
	c.syncU()
	st := c.st
	r := &c.r
	dst = append(dst, sim.InFlightInst{Unit: "fetch", Slot: -1, PC: uint32(r.fPC.Get(st))})
	if r.dValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "decode", Slot: -1, PC: uint32(r.dPC.Get(st))})
	}
	if r.aValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "regacc", Slot: -1, PC: uint32(r.aPC.Get(st))})
	}
	if r.eValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "execute", Slot: -1, PC: uint32(r.ePC.Get(st))})
	}
	if r.mValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "memory", Slot: -1, PC: uint32(r.mPC.Get(st))})
	}
	if r.xValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "exception", Slot: -1, PC: uint32(r.xPC.Get(st))})
	}
	if r.wValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "write", Slot: -1, PC: uint32(r.wPC.Get(st))})
	}
	return dst
}
