package ooo

import (
	"math/bits"

	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/tcode"
)

// This file is the out-of-order core's Step: compiled execution, where every
// unit runs a pre-translated tcode.DInst instead of calling isa.Decode and
// running execute switches, and every ROB/IQ/SQ/rename/latch access reads a
// machine word (unpacked.go) rather than a field of the packed bit array.
// An instruction word is looked up once, as fetch latches it; its
// translation then travels with it into the ROB and the issue queue
// (derived.go), and the issue queue's tag index tells a wakeup which
// entries wait on the completing tag. Each unit is the compiled twin of a
// unit (commit, execute, ...) of the decode-switch interpreter in
// interp_test.go, the independent test oracle: FuzzInterpEquivalence and
// the lockstep tests there pin Step to it cycle for cycle and bit for bit.

// dec returns the translation of instruction word w that the machine
// associates with pc. Uncorrupted program text hits the per-PC table;
// everything else goes through tcode.Decode, the memo every core shares.
// Both are pure functions of w, so corrupted words decode exactly as under
// isa.Decode, and neither ever changes a translation it returned, so an
// entry's decode stays valid while the entry holds its word.
func (c *Core) dec(pc, w uint32) *tcode.DInst {
	if d := c.tp.AtPC(pc, w); d != nil {
		return d
	}
	return tcode.Decode(w)
}

// Step advances the machine one clock cycle.
func (c *Core) Step() {
	if c.done {
		return
	}
	c.cycles++
	c.commitU()
	if c.done {
		return
	}
	c.loadUnitTickU()
	c.mulPipeTickU()
	c.executeU()
	c.dispatchU()
	c.fetchU()
}

// commitU is the compiled twin of commit.
func (c *Core) commitU() {
	u := &c.u
	for n := 0; n < CommitWidth; n++ {
		count := u.robCount
		if count == 0 {
			return
		}
		head := u.robHead % RobSize
		if u.robDone[head] == 0 {
			return
		}
		c.retired++
		if u.robExc[head] != 0 {
			c.done = true
			c.status = prog.StatusTrap
			return
		}
		word := uint32(u.robInst[head])
		pc := uint32(u.robPC[head])
		d := c.d.rob[head]
		val := uint32(u.robVal[head])
		flags := u.robFlags[head]
		var addr, storeVal uint32
		switch {
		case d.In.Op == isa.HALT:
			c.done = true
			c.status = prog.StatusHalted
			return
		case d.In.Op == isa.TRAPD:
			c.done = true
			c.status = prog.StatusDetected
			return
		case d.In.Op == isa.OUT:
			c.out = append(c.out, val)
		case flags&1 != 0: // store: drain the store queue into memory
			sqh := u.sqHead % SQSize
			if u.sqValid[sqh] == 1 && u.sqRob[sqh] == head {
				addr = uint32(u.sqAddr[sqh])
				storeVal = uint32(u.sqData[sqh])
				if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
					c.done = true
					c.status = prog.StatusTrap
					return
				}
				c.mem[int32(addr)] = storeVal
				u.sqValid[sqh] = 0
				u.sqHead = (sqh + 1) % SQSize
				if u.sqCount > 0 {
					u.sqCount--
				}
			}
		default:
			if rd := d.Dst; rd != 0 {
				c.arf[rd] = val
				// release the rename mapping if it still points here
				if m := u.rat[rd]; m&0x40 != 0 && m&0x3F == head {
					u.rat[rd] = 0
				}
			}
		}
		// retire the entry
		u.robHead = (head + 1) % RobSize
		u.robCount = count - 1
		// architecturally-inert retirement staging registers
		u.wbRet[int(head)%8] = uint64(val)
		if c.hook != nil {
			ev := sim.CommitEvent{PC: pc, Word: word,
				Result: val, StoreVal: storeVal, Addr: addr}
			if c.hook(ev) {
				c.done = true
				c.status = prog.StatusDetected
				return
			}
		}
	}
}

// broadcastU is the compiled twin of broadcast, for a tag below RobSize.
// It visits only the valid entries whose source waits on tag, which the
// tag index names: a wakeup of one source neither reads nor writes the
// other's slot.
func (c *Core) broadcastU(tag uint64, val uint32) {
	u := &c.u
	for w := c.d.s1Holds[tag] & u.iqValid &^ u.iqS1Rdy; w != 0; w &= w - 1 {
		i := bits.TrailingZeros16(w)
		u.iqS1Val[i] = uint64(val)
		u.iqS1Rdy |= 1 << i
	}
	for w := c.d.s2Holds[tag] & u.iqValid &^ u.iqS2Rdy; w != 0; w &= w - 1 {
		i := bits.TrailingZeros16(w)
		u.iqS2Val[i] = uint64(val)
		u.iqS2Rdy |= 1 << i
	}
}

// completeU is the compiled twin of complete.
func (c *Core) completeU(tag uint64, val uint32) {
	u := &c.u
	tag %= RobSize
	u.robVal[tag] = uint64(val)
	u.robDone[tag] = 1
	c.broadcastU(tag, val)
	// bypass staging churn (architecturally inert)
	u.exWb[int(tag)%6] = uint64(val)
}

// loadUnitTickU is the compiled twin of loadUnitTick.
func (c *Core) loadUnitTickU() {
	u := &c.u
	if u.ldValid == 0 {
		return
	}
	if cnt := u.ldCnt; cnt > 0 {
		u.ldCnt = cnt - 1
		return
	}
	addr := uint32(u.ldAddr)
	var data uint32
	if int(int32(addr)) >= 0 && int(int32(addr)) < len(c.mem) {
		data = c.mem[int32(addr)]
	}
	u.ldData = uint64(data)
	u.ldDataIn[int(addr)%4] = uint64(data)
	c.completeU(u.ldRob, data)
	u.ldValid = 0
}

// mulPipeTickU is the compiled twin of mulPipeTick.
func (c *Core) mulPipeTickU() {
	u := &c.u
	// retire from the last stage
	if u.muV[3] == 1 {
		a := uint32(u.muA[3])
		b := uint32(u.muB[3])
		p := int64(int32(a)) * int64(int32(b))
		var val uint32
		if u.muHi[3] == 1 {
			val = uint32(uint64(p) >> 32)
		} else {
			val = uint32(p)
		}
		c.completeU(u.muRob[3], val)
		u.muV[3] = 0
	}
	// shift earlier stages forward
	for i := 3; i > 0; i-- {
		if u.muV[i-1] == 1 && u.muV[i] == 0 {
			u.muA[i] = u.muA[i-1]
			u.muB[i] = u.muB[i-1]
			u.muRob[i] = u.muRob[i-1]
			u.muHi[i] = u.muHi[i-1]
			u.muV[i] = 1
			u.muV[i-1] = 0
		}
	}
}

// executeU is the compiled twin of execute. The entries ready at the start
// of the cycle are selected oldest first, the lower index first among
// equal ages (corrupted ROB indices can tie): the order of the
// interpreter's stable sort. Loads are dropped from the candidates while
// the load port is busy and multiplies while the multiplier's first stage
// is: the interpreter selects and skips them, which changes no state and
// issues nothing, and within a cycle a port only goes from free to busy.
func (c *Core) executeU() {
	u := &c.u
	ready := u.iqValid & u.iqS1Rdy & u.iqS2Rdy
	head := u.robHead % RobSize
	var ages [IQSize]uint8
	var loads, muls uint16
	for w := ready; w != 0; w &= w - 1 {
		i := bits.TrailingZeros16(w)
		ages[i] = uint8(robAge(head, u.iqRob[i]%RobSize))
		switch c.d.iq[i].In.Op {
		case isa.LW:
			loads |= 1 << i
		case isa.MUL, isa.MULH:
			muls |= 1 << i
		}
	}
	if u.ldValid == 1 {
		ready &^= loads
	}
	if u.muV[0] == 1 {
		ready &^= muls
	}

	issued := 0
	for ready != 0 && issued < IssueWidth {
		i := bits.TrailingZeros16(ready)
		for w := ready & (ready - 1); w != 0; w &= w - 1 {
			if j := bits.TrailingZeros16(w); ages[j] < ages[i] {
				i = j
			}
		}
		ready &^= 1 << i
		tag := u.iqRob[i] % RobSize
		d := c.d.iq[i]
		s1 := uint32(u.iqS1Val[i])
		s2 := uint32(u.iqS2Val[i])

		switch {
		case d.In.Op == isa.LW:
			if !c.tryIssueLoadU(i, tag, d.In.Imm, s1, head) {
				continue
			}
			ready &^= loads // the port is busy: the rest try again next cycle
		case d.In.Op == isa.MUL || d.In.Op == isa.MULH:
			u.muA[0] = uint64(s1)
			u.muB[0] = uint64(s2)
			u.muRob[0] = tag
			if d.In.Op == isa.MULH {
				u.muHi[0] = 1
			} else {
				u.muHi[0] = 0
			}
			u.muV[0] = 1
			ready &^= muls
			u.iqValid &^= 1 << i
		case d.In.Op == isa.SW:
			addr := uint32(int32(s1) + d.In.Imm)
			if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
				u.robExc[tag] = 1
			}
			// fill this store's queue entry
			for q := 0; q < SQSize; q++ {
				if u.sqValid[q] == 1 && u.sqRob[q] == tag && u.sqDone[q] == 0 {
					u.sqAddr[q] = uint64(addr)
					u.sqData[q] = uint64(s2)
					u.sqDone[q] = 1
					break
				}
			}
			c.completeU(tag, addr)
			u.iqValid &^= 1 << i
		case d.IsControl:
			// executeBranchU may squash the whole window, including the
			// ready set; stop selecting this cycle.
			c.executeBranchU(i, tag, d, s1, s2)
			return
		default:
			val, exc := d.ALU(s1, s2)
			if exc {
				u.robExc[tag] = 1
				u.robDone[tag] = 1
			} else {
				c.completeU(tag, val)
			}
			u.iqValid &^= 1 << i
			u.rrEx[i%6] = uint64(val)
		}
		issued++
	}
}

// tryIssueLoadU is the compiled twin of tryIssueLoad; imm is the load's
// pre-decoded immediate.
func (c *Core) tryIssueLoadU(iq int, tag uint64, imm int32, s1 uint32, head uint64) bool {
	u := &c.u
	loadAge := robAge(head, tag)
	// memory-ordering check: any older store not yet executed blocks us
	for a := uint64(0); a < loadAge; a++ {
		idx := (head + a) % RobSize
		if u.robFlags[idx]&1 != 0 && u.robDone[idx] == 0 {
			return false
		}
	}
	addr := uint32(int32(s1) + imm)
	u.ldAddrIn[int(addr)%4] = uint64(addr)
	if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
		u.robExc[tag] = 1
		u.robDone[tag] = 1
		u.iqValid &^= 1 << iq
		return true
	}
	// store-to-load forwarding: youngest older store to the same address
	bestAge := uint64(RobSize)
	var bestData uint32
	found := false
	for q := 0; q < SQSize; q++ {
		if u.sqValid[q] == 0 || u.sqDone[q] == 0 {
			continue
		}
		sAge := robAge(head, u.sqRob[q]%RobSize)
		if sAge >= loadAge {
			continue
		}
		if uint32(u.sqAddr[q]) == addr {
			// youngest older = largest age below loadAge
			if !found || sAge > bestAge || (bestAge == uint64(RobSize)) {
				if !found || sAge > bestAge {
					bestAge = sAge
					bestData = uint32(u.sqData[q])
				}
				found = true
			}
		}
	}
	if found {
		c.completeU(tag, bestData)
		u.iqValid &^= 1 << iq
		return true
	}
	// cache access with variable latency
	line := (addr >> 2) % CacheLines
	blk := addr >> 2
	lat := uint64(MissLatency)
	if c.cacheVld[line] && c.cacheTag[line] == blk {
		lat = HitLatency
	} else {
		c.cacheVld[line] = true
		c.cacheTag[line] = blk
	}
	u.ldValid = 1
	u.ldRob = tag
	u.ldAddr = uint64(addr)
	u.ldCnt = lat
	u.ldAddrOut[int(line)%2] = uint64(addr)
	u.iqValid &^= 1 << iq
	return true
}

// executeBranchU is the compiled twin of executeBranch.
func (c *Core) executeBranchU(iq int, tag uint64, d *tcode.DInst, s1, s2 uint32) {
	u := &c.u
	pc := uint32(u.robPC[tag])
	taken, target := d.Br(s1, s2, pc)
	link := pc + 1

	// result value (link for jumps)
	var val uint32
	if d.IsJump {
		val = link
	}
	c.completeU(tag, val)
	u.iqValid &^= 1 << iq
	u.caBr = b2u(taken)
	u.caP[0] = uint64(target)

	// predictor updates (performance-only state)
	if d.IsBranch {
		h := (uint64(pc) ^ u.lhist) % gshareSize
		ctr := c.gshare[h]
		if taken && ctr < 3 {
			c.gshare[h] = ctr + 1
		} else if !taken && ctr > 0 {
			c.gshare[h] = ctr - 1
		}
		// the packed field is 12 bits wide; mask the shift register exactly
		// as ff.Field.Set truncates it in the interpreter
		u.lhist = (u.lhist<<1 | b2u(taken)) & 0xFFF
	}
	if taken {
		c.btbTag[pc%btbSize] = pc
		c.btbTgt[pc%btbSize] = target
		c.btbValid[pc%btbSize] = true
		u.takenAddr = uint64(target)
	}

	predTaken := u.robFlags[tag]&4 != 0
	predTgt := uint32(u.robPTgt[tag])
	mispredict := taken != predTaken || (taken && target != predTgt)
	if !mispredict {
		return
	}

	// ---- squash everything younger than the branch ----
	head := u.robHead % RobSize
	bAge := robAge(head, tag)
	u.robTail = (tag + 1) % RobSize
	u.robCount = bAge + 1
	// issue queue
	for w := u.iqValid; w != 0; w &= w - 1 {
		if i := bits.TrailingZeros16(w); robAge(head, u.iqRob[i]%RobSize) > bAge {
			u.iqValid &^= 1 << i
		}
	}
	// store queue: pop younger entries from the tail
	for u.sqCount > 0 {
		t := (u.sqTail + SQSize - 1) % SQSize
		if u.sqValid[t] == 1 && robAge(head, u.sqRob[t]%RobSize) > bAge {
			u.sqValid[t] = 0
			u.sqTail = t
			u.sqCount--
		} else {
			break
		}
	}
	// in-flight load
	if u.ldValid == 1 && robAge(head, u.ldRob%RobSize) > bAge {
		u.ldValid = 0
	}
	// multiplier pipeline
	for i := 0; i < 4; i++ {
		if u.muV[i] == 1 && robAge(head, u.muRob[i]%RobSize) > bAge {
			u.muV[i] = 0
		}
	}
	// rebuild the rename table from the surviving window
	for a := 0; a < 32; a++ {
		u.rat[a] = 0
	}
	for a := uint64(0); a <= bAge; a++ {
		idx := (head + a) % RobSize
		if rd := c.d.rob[idx].Dst; rd != 0 {
			u.rat[rd] = 0x40 | idx
		}
	}
	// flush the fetch buffer and redirect
	u.fbHead = 0
	u.fbTail = 0
	u.fbCount = 0
	var next uint32
	if taken {
		next = target
	} else {
		next = pc + 1
	}
	u.pc = uint64(next)
}

// dispatchU is the compiled twin of dispatch.
func (c *Core) dispatchU() {
	u := &c.u
	for n := 0; n < FetchWidth; n++ {
		if u.fbCount == 0 {
			return
		}
		if u.robCount >= RobSize {
			return
		}
		fh := u.fbHead % FBSize
		word := uint32(u.fbInst[fh])
		pcv := u.fbPC[fh]
		d := c.d.fb[fh]

		needIQ := d.Valid && d.In.Op != isa.NOP && d.In.Op != isa.HALT && d.In.Op != isa.TRAPD
		if needIQ {
			if c.freeIQU() < 0 {
				return
			}
			if d.In.Op == isa.SW && u.sqCount >= SQSize {
				return
			}
		}

		// allocate ROB entry
		tail := u.robTail % RobSize
		u.robInst[tail] = uint64(word)
		c.d.rob[tail] = d
		u.robPC[tail] = pcv
		u.robVal[tail] = 0
		var flags uint64
		if d.In.Op == isa.SW {
			flags |= 1
		}
		if d.IsControl {
			flags |= 2
			if u.fbPred[fh] == 1 {
				flags |= 4
			}
			u.robPTgt[tail] = u.fbPTgt[fh]
		}
		u.robFlags[tail] = flags

		if !d.Valid {
			u.robExc[tail] = 1
			u.robDone[tail] = 1
		} else if !needIQ {
			u.robExc[tail] = 0
			u.robDone[tail] = 1
		} else {
			u.robExc[tail] = 0
			u.robDone[tail] = 0
			iq := c.freeIQU()
			u.iqValid |= 1 << iq
			u.iqInst[iq] = uint64(word)
			c.d.iq[iq] = d
			u.iqRob[iq] = tail
			c.renameSourceU(iq, 0, d)
			c.renameSourceU(iq, 1, d)
			if d.In.Op == isa.SW {
				// allocate a store-queue slot in program order
				sqt := u.sqTail % SQSize
				u.sqValid[sqt] = 1
				u.sqRob[sqt] = tail
				u.sqDone[sqt] = 0
				u.sqTail = (sqt + 1) % SQSize
				u.sqCount++
			}
		}

		// rename destination
		if d.Dst != 0 {
			u.rat[d.Dst] = 0x40 | tail
		}

		u.robTail = (tail + 1) % RobSize
		u.robCount++
		u.fbHead = (fh + 1) % FBSize
		u.fbCount--
	}
}

// renameSourceU is the compiled twin of renameSource. Where it writes the
// entry's tag latch it moves the entry's bit in the tag index with it.
func (c *Core) renameSourceU(iq, k int, d *tcode.DInst) {
	u := &c.u
	reg, used := d.In.Rs1, d.NeedsRs1
	tags, vals, rdy, holds := &u.iqS1Tag, &u.iqS1Val, &u.iqS1Rdy, &c.d.s1Holds
	if k == 1 {
		reg, used = d.In.Rs2, d.NeedsRs2
		tags, vals, rdy, holds = &u.iqS2Tag, &u.iqS2Val, &u.iqS2Rdy, &c.d.s2Holds
	}
	bit := uint16(1) << iq
	// The ready paths leave the tag latch as it is, as the interpreter's
	// renameSource (interp_test.go) does, so the packed layouts stay
	// identical.
	if !used || reg == 0 {
		vals[iq] = uint64(c.arf[reg&31])
		if reg == 0 {
			vals[iq] = 0
		}
		*rdy |= bit
		return
	}
	m := u.rat[reg]
	if m&0x40 == 0 {
		vals[iq] = uint64(c.arf[reg])
		*rdy |= bit
		return
	}
	t := m & 0x3F % RobSize
	if u.robDone[t] == 1 && u.robExc[t] == 0 {
		vals[iq] = u.robVal[t]
		*rdy |= bit
		return
	}
	holds[tags[iq]] &^= bit
	holds[t] |= bit
	tags[iq] = t
	vals[iq] = 0
	*rdy &^= bit
}

// freeIQU is the compiled twin of freeIQ: the lowest invalid entry, or -1
// when all are valid.
func (c *Core) freeIQU() int {
	if i := bits.TrailingZeros16(^c.u.iqValid); i < IQSize {
		return i
	}
	return -1
}

// fetchU is the compiled twin of fetch.
func (c *Core) fetchU() {
	u := &c.u
	for n := 0; n < FetchWidth; n++ {
		if u.fbCount >= FBSize {
			return
		}
		pc := uint32(u.pc)
		var word uint32 = illegalWord
		if int(pc) < len(c.program.Words) {
			word = c.program.Words[pc]
		}
		d := c.dec(pc, word)
		// branch prediction: BTB hit + gshare direction
		predTaken := false
		var predTgt uint32
		bi := pc % btbSize
		if c.btbValid[bi] && c.btbTag[bi] == pc {
			h := (uint64(pc) ^ u.lhist) % gshareSize
			if d.IsJump || c.gshare[h] >= 2 {
				predTaken = true
				predTgt = c.btbTgt[bi]
			}
		}
		ft := u.fbTail % FBSize
		u.fbInst[ft] = uint64(word)
		c.d.fb[ft] = d
		u.fbPC[ft] = uint64(pc)
		u.fbPred[ft] = b2u(predTaken)
		u.fbPTgt[ft] = uint64(predTgt)
		u.fbTail = (ft + 1) % FBSize
		u.fbCount++
		if predTaken {
			u.pc = uint64(predTgt)
			return // redirected: stop fetching this cycle
		}
		u.pc = uint64(pc + 1)
	}
}
