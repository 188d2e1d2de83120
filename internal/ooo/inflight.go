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
func (c *Core) InFlight(dst []sim.InFlightInst) []sim.InFlightInst {
	u := &c.u
	dst = append(dst, sim.InFlightInst{Unit: "fetch", Slot: -1, PC: uint32(u.pc)})
	for k := uint64(0); k < u.fbCount && k < FBSize; k++ {
		i := int((u.fbHead + k) % FBSize)
		dst = append(dst, sim.InFlightInst{Unit: "fetchbuf", Slot: i, PC: uint32(u.fbPC[i])})
	}
	for k := uint64(0); k < u.robCount && k < RobSize; k++ {
		i := int((u.robHead + k) % RobSize)
		dst = append(dst, sim.InFlightInst{Unit: "rob", Slot: i, PC: uint32(u.robPC[i])})
	}
	robPC := func(idx uint64) uint32 { return uint32(u.robPC[idx%RobSize]) }
	for i := 0; i < IQSize; i++ {
		if u.iqValid>>i&1 == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "sched", Slot: i, PC: robPC(u.iqRob[i])})
		}
	}
	for i := 0; i < SQSize; i++ {
		if u.sqValid[i] == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "stq", Slot: i, PC: robPC(u.sqRob[i])})
		}
	}
	if u.ldValid == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "l1dcache", Slot: -1, PC: robPC(u.ldRob)})
	}
	for i := 0; i < 4; i++ {
		if u.muV[i] == 1 {
			dst = append(dst, sim.InFlightInst{Unit: "mul", Slot: i, PC: robPC(u.muRob[i])})
		}
	}
	for i := 0; i < 32; i++ {
		if m := u.rat[i]; m&0x40 != 0 {
			dst = append(dst, sim.InFlightInst{Unit: "rename", Slot: i, PC: robPC(m & 0x3F)})
		}
	}
	return dst
}
