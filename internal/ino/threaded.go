package ino

import (
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/tcode"
)

// This file is the in-order core's Step: compiled execution, where every
// pipeline stage runs a pre-translated tcode.DInst instead of calling
// isa.Decode and running execute-stage switches, and the latches are
// machine words (unpacked.go) rather than fields of the packed bit array.
// An instruction word is looked up once, as it enters the register-access
// latch; its translation then travels down the pipe beside it
// (stageDecodes). The decode-switch interpreter in interp_test.go is its
// independent test oracle: FuzzInterpEquivalence and the lockstep tests
// there pin Step to it cycle for cycle and bit for bit.

// dec returns the translation of latch word w whose stage believes it sits
// at pc. The per-PC table hits whenever the latch is uncorrupted program
// text (virtually every decode of a fault-free run); anything else —
// injected flips, bubbles, out-of-range fetch words — goes through
// tcode.Decode, the memo every core shares. Both paths are pure functions
// of w, so corrupted words behave exactly as under isa.Decode, and both
// return translations that never change, so a decode can travel down the
// pipe with its word.
func (c *Core) dec(pc, w uint32) *tcode.DInst {
	if d := c.tp.AtPC(pc, w); d != nil {
		return d
	}
	return tcode.Decode(w)
}

// stageDecodes is the translation of the instruction word in each stage
// latch, register access (a) through writeback (w). It is derived state:
// decodeLatches fills it whenever the latch state is replaced (Reset,
// Restore, FlipBits), and Step moves each decode with its word, so a cycle
// looks up only the word entering register access. It lives outside
// uLatches because two cores holding the same word may hold different
// pointers to equal translations (the per-PC table's, or two entries of the
// decode memo when a miss recompiled the word in between), and DiffFrom
// compares uLatches with ==.
type stageDecodes struct {
	a, e, m, x, w *tcode.DInst
}

// decodeLatches derives the stage decodes from the latch state.
func (c *Core) decodeLatches() {
	u := &c.u
	c.ud = stageDecodes{
		a: c.dec(u.aPC, u.aInst),
		e: c.dec(u.ePC, u.eInst),
		m: c.dec(u.mPC, u.mInst),
		x: c.dec(u.xPC, u.xInst),
		w: c.dec(u.wPC, u.wInst),
	}
}

// Step advances the pipeline by one clock cycle. It updates the latch state
// in place, with no clock-edge copy of it, running the stages in an order
// where each reads its input latch before the stage that overwrites that
// latch runs:
//
//  1. W, which alone can end the run (a trap, halt, detection or checker
//     detection leaves every other latch as it stands);
//  2. E, computed into locals from the e latch and from the m, x and w
//     latches it forwards from;
//  3. the load-use stall test, on the a and e latches;
//  4. X (w <- x), then M (x <- m, with the memory access);
//  5. E's results into the m latch;
//  6. A (e <- a), D (a <- d) and F (d <- f).
//
// Every stage therefore sees the latches as they stood at the clock edge,
// and the e latch's Y takes E's new Y, which is the m latch's after E. M's
// flush-recovery update runs between W and E, since E overwrites nextAtM.
func (c *Core) Step() {
	if c.done {
		return
	}
	c.cycles++
	u, ud := &c.u, &c.ud

	// ---- W: writeback / commit. ----
	if u.wValid {
		wD := ud.w
		c.retired++
		if u.wTrap || !wD.Valid {
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
			c.out = append(c.out, u.wResult)
		default:
			if wD.Dst != 0 {
				c.regfile[wD.Dst] = u.wResult
			}
		}
		// Status-register side effects (condition codes, Y): architectural
		// state that these workloads never read back.
		u.wSICC = u.xICC
		if wD.In.Op == isa.MULH {
			u.wSY = u.wResult
		}
		if c.hook != nil {
			ev := sim.CommitEvent{PC: u.wPC, Word: u.wInst, Result: u.wResult,
				StoreVal: u.wStoreVal, Addr: u.wAddr}
			if c.hook(ev) {
				c.done = true
				c.status = prog.StatusDetected
				return
			}
		}
	}

	if u.mValid {
		// the instruction in M completes its access this cycle: it is now
		// beyond the flush-recovery window (read before E stages the next
		// refetch point)
		c.recoveryNext = c.nextAtM
	}

	// ---- E: execute, branch resolution, forwarding (into locals). ----
	eD := ud.e
	var (
		result, storeVal, y uint32
		trap                bool
		tt                  uint64
		icc                 uint8
		redirect            bool
		redirectPC          uint32
	)
	if u.eValid {
		if !eD.Valid {
			trap = true
			tt = 2 // illegal instruction
		} else {
			op1 := c.forward(eD.In.Rs1, u.eOp1)
			op2 := u.eOp2
			if eD.NeedsRs2 {
				op2 = c.forward(eD.In.Rs2, op2)
			}
			result, storeVal, y, trap, tt = eD.Exec(op1, op2, u.ePC)
			if !trap && eD.IsControl {
				redirect, redirectPC = eD.Br(op1, op2, u.ePC)
			}
			if !trap {
				// stage the refetch point for when this instruction
				// finishes its memory access
				if redirect {
					c.nextAtM = redirectPC
				} else {
					c.nextAtM = u.ePC + 1
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

	// ---- A: load-use interlock. ----
	// Stall when the instruction entering execute needs a register that the
	// load currently in execute will only produce at the end of memory.
	stall := false
	if u.aValid && u.eValid && eD.In.Op == isa.LW && eD.In.Rd != 0 {
		aD := ud.a
		stall = (aD.NeedsRs1 && aD.In.Rs1 == eD.In.Rd) || (aD.NeedsRs2 && aD.In.Rs2 == eD.In.Rd)
	}

	// ---- X: exception stage (pass-through, trap priority resolution). ----
	u.wInst = u.xInst
	ud.w = ud.x
	u.wPC = u.xPC
	u.wValid = u.xValid
	u.wResult = u.xResult
	u.wTrap = u.xTrap
	u.wTT = u.xTT
	u.wAddr = u.xAddr
	u.wStoreVal = u.xStoreVal
	u.wSCWP = u.eCWP // window pointer shadow (unused)

	// ---- M: memory access. ----
	{
		trap := u.mTrap
		tt := u.mTT
		result := u.mResult
		addr := u.mResult
		if u.mValid && !trap && ud.m.Valid {
			switch ud.m.In.Op {
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
					c.mem[int32(addr)] = u.mStoreVal
				}
			}
		}
		u.xInst = u.mInst
		ud.x = ud.m
		u.xPC = u.mPC
		u.xValid = u.mValid
		u.xResult = result
		u.xTrap = trap
		u.xTT = tt
		u.xICC = u.mICC
		u.xY = u.mY
		u.xAddr = addr
		u.xStoreVal = u.mStoreVal
		u.xNPC = u.mPC + 1
	}

	// ---- E's results into the memory latch. ----
	u.mInst = u.eInst
	ud.m = eD
	u.mPC = u.ePC
	u.mValid = u.eValid
	u.mResult = result
	u.mStoreVal = storeVal
	u.mTrap = trap
	u.mTT = uint8(tt)
	u.mY = y
	u.mICC = icc

	// ---- A: register access. ----
	if redirect || !stall {
		u.eInst = u.aInst
		ud.e = ud.a
		u.ePC = u.aPC
		u.eValid = u.aValid && !redirect
		u.eOp1 = c.regfile[u.aRs1]
		u.eOp2 = c.regfile[u.aRs2]
		u.eY = y // the memory latch's new Y
		u.eCWP = u.aCWP
	} else {
		// Bubble into execute; hold younger stages.
		u.eValid = false
	}

	// ---- D: decode. ----
	if redirect {
		u.aValid = false
	} else if !stall {
		dD := c.dec(u.dPC, u.dInst)
		u.aInst = u.dInst
		ud.a = dD
		u.aPC = u.dPC
		u.aValid = u.dValid
		u.aRs1 = dD.In.Rs1
		u.aRs2 = dD.In.Rs2
	}

	// ---- F: fetch. ----
	if redirect {
		u.dValid = false
		u.fPC = redirectPC
	} else if !stall {
		fPC := u.fPC
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

// forward returns the freshest in-flight value of register r for the
// instruction in execute, falling back to raw, the value register access
// read. Bypass sources are the E/M, M/X and X/W latches, exactly the wires
// a hardware bypass network taps; Step calls it before any of them is
// overwritten. A latch forwards only if its instruction writes r (Dst),
// which an invalid word never does; r0 always reads zero.
func (c *Core) forward(r uint8, raw uint32) uint32 {
	u, ud := &c.u, &c.ud
	switch {
	case r == 0:
		return 0
	case u.mValid && ud.m.Dst == r:
		return u.mResult
	case u.xValid && ud.x.Dst == r:
		return u.xResult
	case u.wValid && ud.w.Dst == r:
		return u.wResult
	}
	return raw
}
