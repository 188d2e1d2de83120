package ino

import "clear/internal/sim"

// InFlight reports the instructions occupying the in-order pipeline at the
// current clock boundary: the fetch PC plus one entry per stage latch whose
// valid bit is set (decode through writeback). Each stage holds at most one
// instruction, so every entry uses Slot -1 and the unit name alone
// identifies the structure.
func (c *Core) InFlight(dst []sim.InFlightInst) []sim.InFlightInst {
	u := &c.u
	dst = append(dst, sim.InFlightInst{Unit: "fetch", Slot: -1, PC: u.fPC})
	if u.dValid {
		dst = append(dst, sim.InFlightInst{Unit: "decode", Slot: -1, PC: u.dPC})
	}
	if u.aValid {
		dst = append(dst, sim.InFlightInst{Unit: "regacc", Slot: -1, PC: u.aPC})
	}
	if u.eValid {
		dst = append(dst, sim.InFlightInst{Unit: "execute", Slot: -1, PC: u.ePC})
	}
	if u.mValid {
		dst = append(dst, sim.InFlightInst{Unit: "memory", Slot: -1, PC: u.mPC})
	}
	if u.xValid {
		dst = append(dst, sim.InFlightInst{Unit: "exception", Slot: -1, PC: u.xPC})
	}
	if u.wValid {
		dst = append(dst, sim.InFlightInst{Unit: "write", Slot: -1, PC: u.wPC})
	}
	return dst
}
