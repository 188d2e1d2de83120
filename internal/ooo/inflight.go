package ooo

import "clear/internal/sim"

// InFlight reports the instructions occupying the out-of-order machine at
// the current clock boundary: the fetch PC, the valid fetch-buffer entries,
// every allocated reorder-buffer entry, the valid issue-queue and
// store-queue entries, the load unit's outstanding access, the occupied
// multiplier stages, and the live rename-table mappings. Multi-entry
// structures report the entry index as Slot; single-occupant units use -1.
// Entries that only carry a ROB index (issue queue, store queue, load unit,
// multiplier, rename table) resolve their PC through the ROB, mirroring how
// the hardware would walk the tag — under corrupted pointers this degrades
// gracefully via modular indexing, exactly like the commit path.
//
// Architecturally inert staging registers (branch-unit pipeline, the
// write-back/bypass copies, the L1 line buffers) hold no attributable
// instruction and report nothing; strikes there fall back to unit-level
// attribution with no root instruction.
//
// The observation goes through syncU like State(), so it reads the exact
// packed-state occupancy whether or not the latch mirror is live.
func (c *Core) InFlight(dst []sim.InFlightInst) []sim.InFlightInst {
	c.syncU()
	st := c.st
	r := &c.r
	dst = append(dst, sim.InFlightInst{Unit: "fetch", Slot: -1, PC: uint32(r.pc.Get(st))})
	fbHead, fbCnt := r.fbHead.Get(st), r.fbCount.Get(st)
	for k := uint64(0); k < fbCnt && k < FBSize; k++ {
		i := int((fbHead + k) % FBSize)
		dst = append(dst, sim.InFlightInst{Unit: "fetchbuf", Slot: i, PC: uint32(r.fbPC[i].Get(st))})
	}
	robHead, robCnt := r.robHead.Get(st), r.robCount.Get(st)
	for k := uint64(0); k < robCnt && k < RobSize; k++ {
		i := int((robHead + k) % RobSize)
		dst = append(dst, sim.InFlightInst{Unit: "rob", Slot: i, PC: uint32(r.robPC[i].Get(st))})
	}
	robPC := func(idx uint64) uint32 {
		return uint32(r.robPC[idx%RobSize].Get(st))
	}
	for i := 0; i < IQSize; i++ {
		if r.iqValid[i].Get(st) == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "sched", Slot: i, PC: robPC(r.iqRob[i].Get(st))})
		}
	}
	for i := 0; i < SQSize; i++ {
		if r.sqValid[i].Get(st) == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "stq", Slot: i, PC: robPC(r.sqRob[i].Get(st))})
		}
	}
	if r.ldValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "l1dcache", Slot: -1, PC: robPC(r.ldRob.Get(st))})
	}
	for i := 0; i < 4; i++ {
		if r.muV[i].Get(st) == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "mul", Slot: i, PC: robPC(r.muRob[i].Get(st))})
		}
	}
	for i := 0; i < 32; i++ {
		if m := r.rat[i].Get(st); m&0x40 != 0 {
			dst = append(dst, sim.InFlightInst{Unit: "rename", Slot: i, PC: robPC(m & 0x3F)})
		}
	}
	return dst
}
