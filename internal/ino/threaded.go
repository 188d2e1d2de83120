package ino

import (
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/tcode"
)

// This file is the compiled-execution twin of Step in ino.go: the same
// pipeline, cycle for cycle and bit for bit, but every isa.Decode call and
// execute-stage switch is replaced by a pre-translated tcode.DInst lookup,
// and the latches live in the unpacked mirror (unpacked.go) instead of the
// packed bit array — packed state is materialized only at observation
// points. The interpreter in ino.go is deliberately left untouched so the
// two paths stay independently checkable: FuzzThreadedEquivalence pins them
// to each other, and tcode.SetEnabled(false) runs genuinely different code.

// dec returns the translation of latch word w whose stage believes it sits
// at pc. The per-PC table hits whenever the latch is uncorrupted program
// text (virtually every decode of a fault-free run); anything else —
// injected flips, bubbles, out-of-range fetch words — compiles through the
// core's decode cache. Both paths are pure functions of w, so corrupted
// words behave exactly as under isa.Decode.
func (c *Core) dec(pc, w uint32) *tcode.DInst {
	if d := c.tp.AtPC(pc, w); d != nil {
		return d
	}
	return c.dcache.Decode(w)
}

// stepThreaded advances the pipeline by one clock cycle, mirroring Step
// stage for stage on the unpacked latch mirror.
func (c *Core) stepThreaded() {
	if c.done {
		return
	}
	if !c.uValid {
		c.unpackU()
		c.uValid = true
	}
	c.cycles++
	u := &c.u

	// ---- Snapshot current latches (the "clock edge" read). ----
	fPC := u.fPC

	dInst := u.dInst
	dPC := u.dPC
	dValid := u.dValid

	aInstW := u.aInst
	aPC := u.aPC
	aValid := u.aValid
	aRs1 := u.aRs1
	aRs2 := u.aRs2

	eInstW := u.eInst
	ePC := u.ePC
	eValid := u.eValid
	eOp1 := u.eOp1
	eOp2 := u.eOp2

	mInstW := u.mInst
	mPC := u.mPC
	mValid := u.mValid
	mResult := u.mResult
	mStoreVal := u.mStoreVal
	mTrap := u.mTrap
	mICC := u.mICC
	mY := u.mY

	xInstW := u.xInst
	xPC := u.xPC
	xValid := u.xValid
	xResult := u.xResult
	xTrap := u.xTrap
	xTT := u.xTT
	xICC := u.xICC
	xAddr := u.xAddr
	xStoreVal := u.xStoreVal

	wInstW := u.wInst
	wPC := u.wPC
	wValid := u.wValid
	wResult := u.wResult
	wTrap := u.wTrap
	wAddr := u.wAddr
	wStoreVal := u.wStoreVal

	eD := c.dec(ePC, eInstW)
	mD := c.dec(mPC, mInstW)
	xD := c.dec(xPC, xInstW)
	wD := c.dec(wPC, wInstW)
	aD := c.dec(aPC, aInstW)

	// ---- W: writeback / commit. ----
	if wValid {
		c.retired++
		if wTrap || !wD.Valid {
			c.done = true
			c.status = prog.StatusTrap
			u.wSTT = u.wTT // trap type to status reg
			return
		}
		switch wD.In.Op {
		case isa.HALT:
			c.done = true
			c.status = prog.StatusHalted
			return
		case isa.TRAPD:
			c.done = true
			c.status = prog.StatusDetected
			return
		case isa.OUT:
			c.out = append(c.out, wResult)
		default:
			if wD.WritesReg && wD.In.Rd != 0 {
				c.regfile[wD.In.Rd] = wResult
			}
		}
		// Status-register side effects (condition codes, Y): architectural
		// state that these workloads never read back.
		u.wSICC = xICC
		if wD.In.Op == isa.MULH {
			u.wSY = wResult
		}
		if c.hook != nil {
			ev := sim.CommitEvent{PC: wPC, Word: wInstW, Result: wResult,
				StoreVal: wStoreVal, Addr: wAddr}
			if c.hook(ev) {
				c.done = true
				c.status = prog.StatusDetected
				return
			}
		}
	}

	// ---- X: exception stage (pass-through, trap priority resolution). ----
	u.wInst = xInstW
	u.wPC = xPC
	u.wValid = xValid
	u.wResult = xResult
	u.wTrap = xTrap
	u.wTT = xTT
	u.wAddr = xAddr
	u.wStoreVal = xStoreVal
	u.wSCWP = u.eCWP // window pointer shadow (unused)

	// ---- M: memory access. ----
	{
		if mValid {
			// the instruction in M completes its access this cycle: it is
			// now beyond the flush-recovery window
			c.recoveryNext = c.nextAtM
		}
		trap := mTrap
		tt := u.mTT
		result := mResult
		addr := mResult
		if mValid && !trap && mD.Valid {
			switch mD.In.Op {
			case isa.LW:
				if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
					trap = true
					tt = 9 // data access exception
				} else {
					result = c.mem[int32(addr)]
				}
			case isa.SW:
				if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
					trap = true
					tt = 9
				} else {
					c.mem[int32(addr)] = mStoreVal
				}
			}
		}
		u.xInst = mInstW
		u.xPC = mPC
		u.xValid = mValid
		u.xResult = result
		u.xTrap = trap
		u.xTT = tt
		u.xICC = mICC
		u.xY = mY
		u.xAddr = addr
		u.xStoreVal = mStoreVal
		u.xNPC = mPC + 1
	}

	// ---- E: execute, branch resolution, forwarding. ----
	redirect := false
	var redirectPC uint32
	var stall bool

	// forward returns the freshest in-flight value of register idx, falling
	// back to the register file. Bypass sources are the E/M, M/X and X/W
	// latches — exactly the wires a hardware bypass network taps.
	forward := func(idx uint8, raw uint32) uint32 {
		if idx == 0 {
			return 0
		}
		if mValid && mD.Valid && mD.WritesReg && mD.In.Rd == idx {
			return mResult
		}
		if xValid && xD.Valid && xD.WritesReg && xD.In.Rd == idx {
			return xResult
		}
		if wValid && wD.Valid && wD.WritesReg && wD.In.Rd == idx {
			return wResult
		}
		return raw
	}

	{
		trap := false
		var tt uint64
		var result, storeVal uint32
		var y uint32
		icc := uint8(0)
		if eValid {
			if !eD.Valid {
				trap = true
				tt = 2 // illegal instruction
			} else {
				op1 := forward(eD.In.Rs1, eOp1)
				var op2 uint32
				if eD.NeedsRs2 {
					op2 = forward(eD.In.Rs2, eOp2)
				} else {
					op2 = eOp2
				}
				result, storeVal, y, trap, tt = eD.Exec(op1, op2, ePC)
				if !trap && eD.IsControl {
					taken, target := eD.Br(op1, op2, ePC)
					if taken {
						redirect = true
						redirectPC = target
					}
				}
				if !trap {
					// stage the refetch point for when this instruction
					// finishes its memory access
					if redirect {
						c.nextAtM = redirectPC
					} else {
						c.nextAtM = ePC + 1
					}
				}
				// condition codes (unread by these workloads)
				if result == 0 {
					icc |= 4 // Z
				}
				if int32(result) < 0 {
					icc |= 8 // N
				}
			}
		}
		u.mInst = eInstW
		u.mPC = ePC
		u.mValid = eValid
		u.mResult = result
		u.mStoreVal = storeVal
		u.mTrap = trap
		u.mTT = uint8(tt)
		u.mY = y
		u.mICC = icc
	}

	// ---- A: register access + load-use interlock. ----
	// Stall when the instruction entering execute needs a register that the
	// load currently in execute will only produce at the end of memory.
	if aValid && eValid && eD.In.Op == isa.LW && eD.In.Rd != 0 {
		if (aD.NeedsRs1 && aD.In.Rs1 == eD.In.Rd) || (aD.NeedsRs2 && aD.In.Rs2 == eD.In.Rd) {
			stall = true
		}
	}

	if redirect || !stall {
		valid := aValid && !redirect
		u.eInst = aInstW
		u.ePC = aPC
		u.eValid = valid
		u.eOp1 = c.regfile[aRs1]
		u.eOp2 = c.regfile[aRs2]
		u.eY = u.mY
		u.eCWP = u.aCWP
	} else {
		// Bubble into execute; hold younger stages.
		u.eValid = false
	}

	// ---- D: decode. ----
	if redirect {
		u.aValid = false
	} else if !stall {
		dD := c.dec(dPC, dInst)
		u.aInst = dInst
		u.aPC = dPC
		u.aValid = dValid
		u.aRs1 = dD.In.Rs1
		u.aRs2 = dD.In.Rs2
	}

	// ---- F: fetch. ----
	if redirect {
		u.dValid = false
		u.fPC = redirectPC
	} else if !stall {
		var word uint32 = illegalWord
		if int(fPC) < len(c.program.Words) {
			word = c.program.Words[fPC]
		}
		u.dInst = word
		u.dPC = fPC
		u.dValid = true
		u.fPC = fPC + 1
	}
}
