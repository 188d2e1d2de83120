package ooo

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"clear/internal/bench"
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
)

// This file keeps the out-of-order core's decode-switch interpreter: every
// unit stepped directly on the packed ff.State, re-decoding instruction
// words with isa.Decode and executing through the switches below. It shares
// no execution code with Step (threaded.go), which makes it an independent
// oracle: the equivalence tests at the end of this file step an interpreter
// twin in lockstep with a compiled core. The twin's state lives where the
// compiled core's does, so Snapshot, Restore, Matches and FlipBits treat
// both alike: stepInterp packs it into the twin's image st (an imaged
// core, unpacked_test.go), interprets one cycle there and unpacks the
// result. The oracle keeps its own packed-state InFlight
// (inFlightInterp), which the tests compare the compiled core's against.

// stepInterp advances the twin one clock cycle on its packed image.
func (c *imaged) stepInterp() {
	c.packU()
	c.stepPacked()
	c.unpackU()
}

// inFlightInterp is InFlight read from the packed image.
func (c *imaged) inFlightInterp(dst []sim.InFlightInst) []sim.InFlightInst {
	c.packU()
	st := c.st
	r := &sharedRegs
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

// stepPacked advances the machine of the packed image st one clock cycle.
func (c *imaged) stepPacked() {
	if c.done {
		return
	}
	c.cycles++
	c.commit()
	if c.done {
		return
	}
	c.loadUnitTick()
	c.mulPipeTick()
	c.execute()
	c.dispatch()
	c.fetch()
}

// ---- commit ----

func (c *imaged) commit() {
	st := c.st
	r := &sharedRegs
	for n := 0; n < CommitWidth; n++ {
		count := r.robCount.Get(st)
		if count == 0 {
			return
		}
		head := r.robHead.Get(st) % RobSize
		if r.robDone[head].Get(st) == 0 {
			return
		}
		c.retired++
		if r.robExc[head].Get(st) != 0 {
			c.done = true
			c.status = prog.StatusTrap
			return
		}
		word := uint32(r.robInst[head].Get(st))
		in := isa.Decode(word)
		val := uint32(r.robVal[head].Get(st))
		flags := r.robFlags[head].Get(st)
		var addr, storeVal uint32
		switch {
		case in.Op == isa.HALT:
			c.done = true
			c.status = prog.StatusHalted
			return
		case in.Op == isa.TRAPD:
			c.done = true
			c.status = prog.StatusDetected
			return
		case in.Op == isa.OUT:
			c.out = append(c.out, val)
		case flags&1 != 0: // store: drain the store queue into memory
			sqh := r.sqHead.Get(st) % SQSize
			if r.sqValid[sqh].Get(st) == 1 && r.sqRob[sqh].Get(st) == head {
				addr = uint32(r.sqAddr[sqh].Get(st))
				storeVal = uint32(r.sqData[sqh].Get(st))
				if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
					c.done = true
					c.status = prog.StatusTrap
					return
				}
				c.mem[int32(addr)] = storeVal
				r.sqValid[sqh].Set(st, 0)
				r.sqHead.Set(st, (sqh+1)%SQSize)
				if cnt := r.sqCount.Get(st); cnt > 0 {
					r.sqCount.Set(st, cnt-1)
				}
			}
		default:
			if in.Op.Valid() && in.Op.WritesReg() && in.Rd != 0 {
				c.arf[in.Rd] = val
				// release the rename mapping if it still points here
				m := r.rat[in.Rd].Get(st)
				if m&0x40 != 0 && m&0x3F == head {
					r.rat[in.Rd].Set(st, 0)
				}
			}
		}
		// retire the entry
		r.robHead.Set(st, (head+1)%RobSize)
		r.robCount.Set(st, count-1)
		// architecturally-inert retirement staging registers
		r.wbRet[int(head)%8].Set(st, uint64(val))
		if c.hook != nil {
			ev := sim.CommitEvent{PC: uint32(r.robPC[head].Get(st)), Word: word,
				Result: val, StoreVal: storeVal, Addr: addr}
			if c.hook(ev) {
				c.done = true
				c.status = prog.StatusDetected
				return
			}
		}
	}
}

// ---- completion: broadcast a result to waiting consumers ----

func (c *imaged) broadcast(tag uint64, val uint32) {
	st := c.st
	r := &sharedRegs
	for i := 0; i < IQSize; i++ {
		if r.iqValid[i].Get(st) == 0 {
			continue
		}
		if r.iqS1Rdy[i].Get(st) == 0 && r.iqS1Tag[i].Get(st) == tag {
			r.iqS1Val[i].Set(st, uint64(val))
			r.iqS1Rdy[i].Set(st, 1)
		}
		if r.iqS2Rdy[i].Get(st) == 0 && r.iqS2Tag[i].Get(st) == tag {
			r.iqS2Val[i].Set(st, uint64(val))
			r.iqS2Rdy[i].Set(st, 1)
		}
	}
}

func (c *imaged) complete(tag uint64, val uint32) {
	st := c.st
	r := &sharedRegs
	tag %= RobSize
	r.robVal[tag].Set(st, uint64(val))
	r.robDone[tag].Set(st, 1)
	c.broadcast(tag, val)
	// bypass staging churn (architecturally inert)
	r.exWb[int(tag)%6].Set(st, uint64(val))
}

// ---- load unit ----

func (c *imaged) loadUnitTick() {
	st := c.st
	r := &sharedRegs
	if r.ldValid.Get(st) == 0 {
		return
	}
	cnt := r.ldCnt.Get(st)
	if cnt > 0 {
		r.ldCnt.Set(st, cnt-1)
		return
	}
	addr := uint32(r.ldAddr.Get(st))
	var data uint32
	if int(int32(addr)) >= 0 && int(int32(addr)) < len(c.mem) {
		data = c.mem[int32(addr)]
	}
	r.ldData.Set(st, uint64(data))
	r.ldDataIn[int(addr)%4].Set(st, uint64(data))
	c.complete(r.ldRob.Get(st), data)
	r.ldValid.Set(st, 0)
}

// ---- multiplier pipeline ----

func (c *imaged) mulPipeTick() {
	st := c.st
	r := &sharedRegs
	// retire from the last stage
	if r.muV[3].Get(st) == 1 {
		a := uint32(r.muA[3].Get(st))
		b := uint32(r.muB[3].Get(st))
		p := int64(int32(a)) * int64(int32(b))
		var val uint32
		if r.muHi[3].Get(st) == 1 {
			val = uint32(uint64(p) >> 32)
		} else {
			val = uint32(p)
		}
		c.complete(r.muRob[3].Get(st), val)
		r.muV[3].Set(st, 0)
	}
	// shift earlier stages forward
	for i := 3; i > 0; i-- {
		if r.muV[i-1].Get(st) == 1 && r.muV[i].Get(st) == 0 {
			r.muA[i].Set(st, r.muA[i-1].Get(st))
			r.muB[i].Set(st, r.muB[i-1].Get(st))
			r.muRob[i].Set(st, r.muRob[i-1].Get(st))
			r.muHi[i].Set(st, r.muHi[i-1].Get(st))
			r.muV[i].Set(st, 1)
			r.muV[i-1].Set(st, 0)
		}
	}
}

// ---- execute ----

func (c *imaged) execute() {
	st := c.st
	r := &sharedRegs
	head := r.robHead.Get(st) % RobSize

	// Oldest-first select of ready entries.
	var ready [IQSize]readyEntry
	nReady := 0
	for i := 0; i < IQSize; i++ {
		if r.iqValid[i].Get(st) == 0 {
			continue
		}
		if r.iqS1Rdy[i].Get(st) == 0 || r.iqS2Rdy[i].Get(st) == 0 {
			continue
		}
		ready[nReady] = readyEntry{iq: i, age: c.age(head, r.iqRob[i].Get(st)%RobSize)}
		nReady++
	}
	// insertion sort by age (nReady <= 16)
	for i := 1; i < nReady; i++ {
		for j := i; j > 0 && ready[j].age < ready[j-1].age; j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}

	issued := 0
	loadPortBusy := r.ldValid.Get(st) == 1
	mulPortBusy := r.muV[0].Get(st) == 1
	for k := 0; k < nReady && issued < IssueWidth; k++ {
		i := ready[k].iq
		word := uint32(r.iqInst[i].Get(st))
		in := isa.Decode(word)
		tag := r.iqRob[i].Get(st) % RobSize
		s1 := uint32(r.iqS1Val[i].Get(st))
		s2 := uint32(r.iqS2Val[i].Get(st))

		switch {
		case in.Op == isa.LW:
			if loadPortBusy {
				continue // structural hazard: try again next cycle
			}
			if !c.tryIssueLoad(i, tag, in, s1, head) {
				continue
			}
			loadPortBusy = true
		case in.Op == isa.MUL || in.Op == isa.MULH:
			if mulPortBusy {
				continue
			}
			r.muA[0].Set(st, uint64(s1))
			r.muB[0].Set(st, uint64(s2))
			r.muRob[0].Set(st, tag)
			if in.Op == isa.MULH {
				r.muHi[0].Set(st, 1)
			} else {
				r.muHi[0].Set(st, 0)
			}
			r.muV[0].Set(st, 1)
			mulPortBusy = true
			r.iqValid[i].Set(st, 0)
		case in.Op == isa.SW:
			addr := uint32(int32(s1) + in.Imm)
			if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
				r.robExc[tag].Set(st, 1)
			}
			// fill this store's queue entry
			for q := 0; q < SQSize; q++ {
				if r.sqValid[q].Get(st) == 1 && r.sqRob[q].Get(st) == tag && r.sqDone[q].Get(st) == 0 {
					r.sqAddr[q].Set(st, uint64(addr))
					r.sqData[q].Set(st, uint64(s2))
					r.sqDone[q].Set(st, 1)
					break
				}
			}
			c.complete(tag, addr)
			r.iqValid[i].Set(st, 0)
		case in.Op.IsControl():
			c.executeBranch(i, tag, in, s1, s2)
			// executeBranch may squash the whole window, including our
			// ready list; stop selecting this cycle.
			issued++
			if r.iqValid[i].Get(st) == 1 {
				r.iqValid[i].Set(st, 0)
			}
			return
		default:
			val, exc := execALU(in, s1, s2)
			if exc {
				r.robExc[tag].Set(st, 1)
				r.robDone[tag].Set(st, 1)
			} else {
				c.complete(tag, val)
			}
			r.iqValid[i].Set(st, 0)
			r.rrEx[i%6].Set(st, uint64(val))
		}
		issued++
	}
}

// tryIssueLoad attempts to issue a load: it requires that no older store is
// still unexecuted; it forwards from the youngest matching older store in
// the store queue, else starts a cache access.
func (c *imaged) tryIssueLoad(iq int, tag uint64, in isa.Inst, s1 uint32, head uint64) bool {
	st := c.st
	r := &sharedRegs
	loadAge := c.age(head, tag)
	// memory-ordering check: any older store not yet executed blocks us
	for a := uint64(0); a < loadAge; a++ {
		idx := (head + a) % RobSize
		if r.robFlags[idx].Get(st)&1 != 0 && r.robDone[idx].Get(st) == 0 {
			return false
		}
	}
	addr := uint32(int32(s1) + in.Imm)
	r.ldAddrIn[int(addr)%4].Set(st, uint64(addr))
	if int(int32(addr)) < 0 || int(int32(addr)) >= len(c.mem) {
		r.robExc[tag].Set(st, 1)
		r.robDone[tag].Set(st, 1)
		r.iqValid[iq].Set(st, 0)
		return true
	}
	// store-to-load forwarding: youngest older store to the same address
	bestAge := uint64(RobSize)
	var bestData uint32
	found := false
	for q := 0; q < SQSize; q++ {
		if r.sqValid[q].Get(st) == 0 || r.sqDone[q].Get(st) == 0 {
			continue
		}
		sAge := c.age(head, r.sqRob[q].Get(st)%RobSize)
		if sAge >= loadAge {
			continue
		}
		if uint32(r.sqAddr[q].Get(st)) == addr {
			// youngest older = largest age below loadAge
			if !found || sAge > bestAge || (bestAge == uint64(RobSize)) {
				if !found || sAge > bestAge {
					bestAge = sAge
					bestData = uint32(r.sqData[q].Get(st))
				}
				found = true
			}
		}
	}
	if found {
		c.complete(tag, bestData)
		r.iqValid[iq].Set(st, 0)
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
	r.ldValid.Set(st, 1)
	r.ldRob.Set(st, tag)
	r.ldAddr.Set(st, uint64(addr))
	r.ldCnt.Set(st, lat)
	r.ldAddrOut[int(line)%2].Set(st, uint64(addr))
	r.iqValid[iq].Set(st, 0)
	return true
}

// executeBranch resolves a control instruction, updates the predictors, and
// squashes the window on mispredict.
func (c *imaged) executeBranch(iq int, tag uint64, in isa.Inst, s1, s2 uint32) {
	st := c.st
	r := &sharedRegs
	pc := uint32(r.robPC[tag].Get(st))
	taken, target := resolveBranch(in, s1, s2, pc)
	link := pc + 1

	// result value (link for jumps)
	var val uint32
	if in.Op.IsJump() {
		val = link
	}
	c.complete(tag, val)
	r.iqValid[iq].Set(st, 0)
	r.caBr.Set(st, b2u(taken))
	r.caP[0].Set(st, uint64(target))

	// predictor updates (performance-only state)
	if in.Op.IsBranch() {
		h := (uint64(pc) ^ r.lhist.Get(st)) % gshareSize
		ctr := c.gshare[h]
		if taken && ctr < 3 {
			c.gshare[h] = ctr + 1
		} else if !taken && ctr > 0 {
			c.gshare[h] = ctr - 1
		}
		r.lhist.Set(st, r.lhist.Get(st)<<1|b2u(taken))
	}
	if taken {
		c.btbTag[pc%btbSize] = pc
		c.btbTgt[pc%btbSize] = target
		c.btbValid[pc%btbSize] = true
		r.takenAddr.Set(st, uint64(target))
	}

	predTaken := r.robFlags[tag].Get(st)&4 != 0
	predTgt := uint32(r.robPTgt[tag].Get(st))
	mispredict := taken != predTaken || (taken && target != predTgt)
	if !mispredict {
		return
	}

	// ---- squash everything younger than the branch ----
	head := r.robHead.Get(st) % RobSize
	bAge := c.age(head, tag)
	r.robTail.Set(st, (tag+1)%RobSize)
	r.robCount.Set(st, bAge+1)
	// issue queue
	for i := 0; i < IQSize; i++ {
		if r.iqValid[i].Get(st) == 1 && c.age(head, r.iqRob[i].Get(st)%RobSize) > bAge {
			r.iqValid[i].Set(st, 0)
		}
	}
	// store queue: pop younger entries from the tail
	for r.sqCount.Get(st) > 0 {
		t := (r.sqTail.Get(st) + SQSize - 1) % SQSize
		if r.sqValid[t].Get(st) == 1 && c.age(head, r.sqRob[t].Get(st)%RobSize) > bAge {
			r.sqValid[t].Set(st, 0)
			r.sqTail.Set(st, t)
			r.sqCount.Set(st, r.sqCount.Get(st)-1)
		} else {
			break
		}
	}
	// in-flight load
	if r.ldValid.Get(st) == 1 && c.age(head, r.ldRob.Get(st)%RobSize) > bAge {
		r.ldValid.Set(st, 0)
	}
	// multiplier pipeline
	for i := 0; i < 4; i++ {
		if r.muV[i].Get(st) == 1 && c.age(head, r.muRob[i].Get(st)%RobSize) > bAge {
			r.muV[i].Set(st, 0)
		}
	}
	// rebuild the rename table from the surviving window
	for a := 0; a < 32; a++ {
		r.rat[a].Set(st, 0)
	}
	for a := uint64(0); a <= bAge; a++ {
		idx := (head + a) % RobSize
		w := isa.Decode(uint32(r.robInst[idx].Get(st)))
		if w.Op.Valid() && w.Op.WritesReg() && w.Rd != 0 {
			r.rat[w.Rd].Set(st, 0x40|idx)
		}
	}
	// flush the fetch buffer and redirect
	r.fbHead.Set(st, 0)
	r.fbTail.Set(st, 0)
	r.fbCount.Set(st, 0)
	var next uint32
	if taken {
		next = target
	} else {
		next = pc + 1
	}
	r.pc.Set(st, uint64(next))
}

// ---- dispatch (rename + allocate) ----

func (c *imaged) dispatch() {
	st := c.st
	r := &sharedRegs
	for n := 0; n < FetchWidth; n++ {
		if r.fbCount.Get(st) == 0 {
			return
		}
		if r.robCount.Get(st) >= RobSize {
			return
		}
		fh := r.fbHead.Get(st) % FBSize
		word := uint32(r.fbInst[fh].Get(st))
		in := isa.Decode(word)

		needIQ := in.Op.Valid() && in.Op != isa.NOP && in.Op != isa.HALT && in.Op != isa.TRAPD
		if needIQ {
			if c.freeIQ() < 0 {
				return
			}
			if in.Op == isa.SW && r.sqCount.Get(st) >= SQSize {
				return
			}
		}

		// allocate ROB entry
		tail := r.robTail.Get(st) % RobSize
		pcv := r.fbPC[fh].Get(st)
		r.robInst[tail].Set(st, uint64(word))
		r.robPC[tail].Set(st, pcv)
		r.robVal[tail].Set(st, 0)
		var flags uint64
		if in.Op == isa.SW {
			flags |= 1
		}
		if in.Op.IsControl() {
			flags |= 2
			if r.fbPred[fh].Get(st) == 1 {
				flags |= 4
			}
			r.robPTgt[tail].Set(st, r.fbPTgt[fh].Get(st))
		}
		r.robFlags[tail].Set(st, flags)

		if !in.Op.Valid() {
			r.robExc[tail].Set(st, 1)
			r.robDone[tail].Set(st, 1)
		} else if !needIQ {
			r.robExc[tail].Set(st, 0)
			r.robDone[tail].Set(st, 1)
		} else {
			r.robExc[tail].Set(st, 0)
			r.robDone[tail].Set(st, 0)
			iq := c.freeIQ()
			r.iqValid[iq].Set(st, 1)
			r.iqInst[iq].Set(st, uint64(word))
			r.iqRob[iq].Set(st, tail)
			c.renameSource(iq, 0, in)
			c.renameSource(iq, 1, in)
			if in.Op == isa.SW {
				// allocate a store-queue slot in program order
				sqt := r.sqTail.Get(st) % SQSize
				r.sqValid[sqt].Set(st, 1)
				r.sqRob[sqt].Set(st, tail)
				r.sqDone[sqt].Set(st, 0)
				r.sqTail.Set(st, (sqt+1)%SQSize)
				r.sqCount.Set(st, r.sqCount.Get(st)+1)
			}
		}

		// rename destination
		if in.Op.Valid() && in.Op.WritesReg() && in.Rd != 0 {
			r.rat[in.Rd].Set(st, 0x40|tail)
		}

		r.robTail.Set(st, (tail+1)%RobSize)
		r.robCount.Set(st, r.robCount.Get(st)+1)
		r.fbHead.Set(st, (fh+1)%FBSize)
		r.fbCount.Set(st, r.fbCount.Get(st)-1)
	}
}

// renameSource fills IQ source slot k (0 or 1) for instruction in.
func (c *imaged) renameSource(iq, k int, in isa.Inst) {
	st := c.st
	r := &sharedRegs
	tagF, rdyF, valF := r.iqS1Tag[iq], r.iqS1Rdy[iq], r.iqS1Val[iq]
	if k == 1 {
		tagF, rdyF, valF = r.iqS2Tag[iq], r.iqS2Rdy[iq], r.iqS2Val[iq]
	}
	var reg uint8
	var used bool
	n1, n2 := needsRs(in.Op)
	if k == 0 {
		reg, used = in.Rs1, n1
	} else {
		reg, used = in.Rs2, n2
	}
	if !used || reg == 0 {
		rdyF.Set(st, 1)
		valF.Set(st, uint64(c.arf[reg&31]))
		if reg == 0 {
			valF.Set(st, 0)
		}
		return
	}
	m := r.rat[reg].Get(st)
	if m&0x40 == 0 {
		valF.Set(st, uint64(c.arf[reg]))
		rdyF.Set(st, 1)
		return
	}
	t := m & 0x3F % RobSize
	if r.robDone[t].Get(st) == 1 && r.robExc[t].Get(st) == 0 {
		valF.Set(st, r.robVal[t].Get(st))
		rdyF.Set(st, 1)
		return
	}
	tagF.Set(st, t)
	rdyF.Set(st, 0)
	valF.Set(st, 0)
}

func (c *imaged) freeIQ() int {
	for i := 0; i < IQSize; i++ {
		if sharedRegs.iqValid[i].Get(c.st) == 0 {
			return i
		}
	}
	return -1
}

// needsRs reports which source registers an instruction format reads.
func needsRs(op isa.Op) (rs1, rs2 bool) {
	switch op.Fmt() {
	case isa.FmtR, isa.FmtStore, isa.FmtBranch:
		return true, true
	case isa.FmtI, isa.FmtLoad, isa.FmtJALR, isa.FmtOut:
		return true, false
	}
	return false, false
}

// ---- fetch ----

func (c *imaged) fetch() {
	st := c.st
	r := &sharedRegs
	for n := 0; n < FetchWidth; n++ {
		if r.fbCount.Get(st) >= FBSize {
			return
		}
		pc := uint32(r.pc.Get(st))
		var word uint32 = illegalWord
		if int(pc) < len(c.program.Words) {
			word = c.program.Words[pc]
		}
		// branch prediction: BTB hit + gshare direction
		predTaken := false
		var predTgt uint32
		bi := pc % btbSize
		if c.btbValid[bi] && c.btbTag[bi] == pc {
			h := (uint64(pc) ^ r.lhist.Get(st)) % gshareSize
			in := isa.Decode(word)
			if in.Op.IsJump() || c.gshare[h] >= 2 {
				predTaken = true
				predTgt = c.btbTgt[bi]
			}
		}
		ft := r.fbTail.Get(st) % FBSize
		r.fbInst[ft].Set(st, uint64(word))
		r.fbPC[ft].Set(st, uint64(pc))
		r.fbPred[ft].Set(st, b2u(predTaken))
		r.fbPTgt[ft].Set(st, uint64(predTgt))
		r.fbTail.Set(st, (ft+1)%FBSize)
		r.fbCount.Set(st, r.fbCount.Get(st)+1)
		if predTaken {
			r.pc.Set(st, uint64(predTgt))
			return // redirected: stop fetching this cycle
		}
		r.pc.Set(st, uint64(pc+1))
	}
}

// execALU computes single-cycle ALU results; exc reports a trap condition.
func execALU(in isa.Inst, s1, s2 uint32) (val uint32, exc bool) {
	switch in.Op {
	case isa.ADD:
		val = s1 + s2
	case isa.SUB:
		val = s1 - s2
	case isa.AND:
		val = s1 & s2
	case isa.OR:
		val = s1 | s2
	case isa.XOR:
		val = s1 ^ s2
	case isa.SLL:
		val = s1 << (s2 & 31)
	case isa.SRL:
		val = s1 >> (s2 & 31)
	case isa.SRA:
		val = uint32(int32(s1) >> (s2 & 31))
	case isa.SLT:
		val = b2u32(int32(s1) < int32(s2))
	case isa.SLTU:
		val = b2u32(s1 < s2)
	case isa.DIV:
		if s2 == 0 {
			return 0, true
		}
		val = uint32(int32(s1) / int32(s2))
	case isa.REM:
		if s2 == 0 {
			return 0, true
		}
		val = uint32(int32(s1) % int32(s2))
	case isa.ADDI:
		val = s1 + uint32(in.Imm)
	case isa.ANDI:
		val = s1 & uint32(in.Imm)
	case isa.ORI:
		val = s1 | uint32(in.Imm)
	case isa.XORI:
		val = s1 ^ uint32(in.Imm)
	case isa.SLLI:
		val = s1 << (uint32(in.Imm) & 31)
	case isa.SRLI:
		val = s1 >> (uint32(in.Imm) & 31)
	case isa.SRAI:
		val = uint32(int32(s1) >> (uint32(in.Imm) & 31))
	case isa.SLTI:
		val = b2u32(int32(s1) < in.Imm)
	case isa.LUI:
		val = uint32(in.Imm) << 16
	case isa.OUT:
		val = s1
	}
	return val, false
}

// resolveBranch decides taken/target for control instructions.
func resolveBranch(in isa.Inst, s1, s2, pc uint32) (taken bool, target uint32) {
	switch in.Op {
	case isa.BEQ:
		taken = s1 == s2
	case isa.BNE:
		taken = s1 != s2
	case isa.BLT:
		taken = int32(s1) < int32(s2)
	case isa.BGE:
		taken = int32(s1) >= int32(s2)
	case isa.BLTU:
		taken = s1 < s2
	case isa.BGEU:
		taken = s1 >= s2
	case isa.JAL:
		return true, pc + uint32(in.Imm)
	case isa.JALR:
		return true, uint32(int32(s1) + in.Imm)
	}
	return taken, pc + uint32(in.Imm)
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// tinyProgram is a short accumulate-and-store loop, small enough to flip
// every bit of the space once.
func tinyProgram(t testing.TB) *prog.Program {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 30)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Sw(1, 0, 4)
	b.Bne(2, 3, "loop")
	b.Lw(4, 0, 4)
	b.Out(4)
	b.Halt()
	return mustProg(t, "tiny", b, nil, 16)
}

// forwardingProgram stores and immediately reloads one address every
// iteration, so every load forwards from the store queue.
func forwardingProgram(t testing.TB) *prog.Program {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 12)
	b.Label("loop")
	b.Addi(1, 1, 3)
	b.Sw(1, 0, 2)
	b.Lw(3, 0, 2)
	b.Bne(1, 2, "loop")
	b.Out(3)
	b.Halt()
	return mustProg(t, "forwarding", b, nil, 8)
}

// mirrorFieldBits returns the flip-flop bits of a few ROB, issue-queue and
// store-queue fields; flips there exercise FlipBits on fields Step reads,
// rather than on arbitrary bits.
func mirrorFieldBits(t testing.TB) []int {
	t.Helper()
	var bits []int
	for _, n := range []string{"rob.head.reg", "rob.inst5", "rob.done7", "rob.count.reg",
		"sched0.s1val3", "sched0.valid2", "sched0.rob9",
		"mem.stq.address2", "mem.stq.count.reg", "mem.stq.valid0"} {
		bs := sharedSpace.BitsOf(n)
		if len(bs) == 0 {
			t.Fatalf("field %q missing from space", n)
		}
		bits = append(bits, bs...)
	}
	return bits
}

// requireLockstep fails t unless the interpreter twin ci and the compiled
// core ct agree on flip-flop state, cycle and retirement counts, done flag
// and status. With sync, ct's latch state first goes through the codec's
// round trip: packU into its image, then unpackU back.
func requireLockstep(t testing.TB, ci, ct *imaged, sync bool, what string) {
	t.Helper()
	if sync {
		ct.packU()
		ct.unpackU()
	}
	if ci.u != ct.u {
		t.Fatalf("%s: flip-flop state diverged at cycle %d", what, ci.cycles)
	}
	if ci.done != ct.done || ci.cycles != ct.cycles || ci.retired != ct.retired || ci.status != ct.status {
		t.Fatalf("%s: run bookkeeping diverged at cycle %d: interp (done=%v cyc=%d ret=%d status=%v) vs compiled (done=%v cyc=%d ret=%d status=%v)",
			what, ci.cycles, ci.done, ci.cycles, ci.retired, ci.status, ct.done, ct.cycles, ct.retired, ct.status)
	}
}

// requireSameInFlight fails t unless ct's InFlight reports what the
// oracle's inFlightInterp reports for ci.
func requireSameInFlight(t testing.TB, ci, ct *imaged, what string) {
	t.Helper()
	if fi, fc := ci.inFlightInterp(nil), ct.InFlight(nil); !reflect.DeepEqual(fi, fc) {
		t.Fatalf("%s: cycle %d: in-flight observations differ:\ninterp   %v\ncompiled %v", what, ci.cycles, fi, fc)
	}
}

// requireSameEnd fails t unless ct's full simulation state — flip-flops,
// register file, memory, output, status, predictors and cache tags —
// matches the interpreter twin ci's.
func requireSameEnd(t testing.TB, ci, ct *imaged, what string) {
	t.Helper()
	if !ct.Matches(ci.Snapshot()) {
		t.Fatalf("%s: full simulation state diverged after %d cycles", what, ci.cycles)
	}
}

// addFuzzSeeds seeds the (program bytes, bit seed, cycle seed) corpus that
// FuzzInterpEquivalence and FuzzInertClosure share.
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{}, uint32(3), uint32(0))
	f.Add([]byte{0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint32(40), uint32(5))
	f.Add([]byte{
		0x00, 0x00, 0x20, 0x48, // addi r1, r1, ...
		0x00, 0x00, 0x40, 0x10, // mix of R-type fields
		0x01, 0x00, 0x20, 0x74, // sw-ish
		0x00, 0x00, 0x00, 0x04, // halt
	}, uint32(100), uint32(2))
}

// fuzzProgram turns fuzz bytes into a program image of up to 32 words: any
// byte soup — valid instructions, illegal opcodes, accidental control flow.
func fuzzProgram(data []byte) *prog.Program {
	const maxWords = 32
	words := make([]uint32, min(len(data)/4, maxWords))
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return &prog.Program{Name: "fuzz", Words: words, MemWords: 16}
}

// FuzzInterpEquivalence pins Step to the decode-switch interpreter: for an
// arbitrary program image (fuzzProgram) and an arbitrary single-bit
// injection, both must produce identical state traces, cycle for cycle.
// Mid-run the two cross every exchange point: Snapshot and cross-Matches,
// identity Restore, a flip targeted into a ROB, issue-queue or store-queue
// field, and InFlight against the oracle's packed-state version.
func FuzzInterpEquivalence(f *testing.F) {
	addFuzzSeeds(f)
	mirrorBits := mirrorFieldBits(f)
	f.Fuzz(func(t *testing.T, data []byte, bitSeed, cycleSeed uint32) {
		p := fuzzProgram(data)
		ci, ct := newImaged(p), newImaged(p)

		bit := int(bitSeed) % sharedSpace.NumBits()
		flipCycle := int(cycleSeed % 256)
		obsCycle := int((bitSeed ^ cycleSeed) % 256)
		what := fmt.Sprintf("bit=%d flipCycle=%d obsCycle=%d, %d words", bit, flipCycle, obsCycle, len(p.Words))
		const maxCycles = 512
		for cyc := 0; cyc < maxCycles; cyc++ {
			if cyc == flipCycle {
				ci.FlipBits(bit)
				ct.FlipBits(bit)
			}
			ci.stepInterp()
			ct.Step()
			requireLockstep(t, ci, ct, false, what)
			if ci.done {
				break
			}
			if cyc == obsCycle {
				ckI, ckT := ci.Snapshot(), ct.Snapshot()
				if !ct.Matches(ckI) || !ci.Matches(ckT) {
					t.Fatalf("%s: cross Matches failed at observation cycle %d", what, cyc+1)
				}
				ci.Restore(ckI)
				ct.Restore(ckT)
				mb := mirrorBits[int(bitSeed>>8)%len(mirrorBits)]
				ci.FlipBits(mb)
				ct.FlipBits(mb)
				requireSameInFlight(t, ci, ct, what)
				requireLockstep(t, ci, ct, true, what+" across the exchange points")
			}
		}
		requireSameEnd(t, ci, ct, what)
	})
}

// TestInterpNominalLockstep runs the tiny program and every benchmark
// fault-free on Step and on the interpreter, comparing state every cycle
// after the codec's round trip (so every Step starts from a freshly packed
// and unpacked state) and the full simulation state at the end.
func TestInterpNominalLockstep(t *testing.T) {
	progs := []*prog.Program{tinyProgram(t)}
	for _, b := range bench.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, p)
	}
	const maxCycles = 10_000_000
	for _, p := range progs {
		ci, ct := newImaged(p), newImaged(p)
		for !ci.done && ci.cycles < maxCycles {
			ci.stepInterp()
			ct.Step()
			requireLockstep(t, ci, ct, true, p.Name)
		}
		if ci.status != prog.StatusHalted || !p.OutputsEqual(ci.out) {
			t.Fatalf("%s: interpreter run ended %v after %d cycles with wrong or missing output", p.Name, ci.status, ci.cycles)
		}
		requireSameEnd(t, ci, ct, p.Name)
	}
}

// TestInterpEveryBitLockstep flips every bit of the space once, at a cycle
// spread over the tiny program's nominal run, and runs Step and the
// interpreter in lockstep to completion or to 3× the nominal cycles. Each
// run restores both cores from a checkpoint of the fault-free lockstep run
// at its flip cycle, as a campaign warm-starts an injection.
func TestInterpEveryBitLockstep(t *testing.T) {
	p := tinyProgram(t)
	ci, ct := newImaged(p), newImaged(p)
	var cks []*sim.Checkpoint
	for !ci.done {
		cks = append(cks, ci.Snapshot())
		ci.stepInterp()
		ct.Step()
		requireLockstep(t, ci, ct, false, "nominal")
	}
	nominal := ci.cycles
	for bit := 0; bit < sharedSpace.NumBits(); bit++ {
		flipCycle := bit * 7919 % nominal
		what := fmt.Sprintf("bit %d flipped at cycle %d", bit, flipCycle)
		ci.Restore(cks[flipCycle])
		ct.Restore(cks[flipCycle])
		ci.FlipBits(bit)
		ct.FlipBits(bit)
		for !ci.done && ci.cycles < 3*nominal {
			ci.stepInterp()
			ct.Step()
			requireLockstep(t, ci, ct, false, what)
		}
		requireSameEnd(t, ci, ct, what)
	}
}

// TestMirrorObservationBoundaries walks Step through every exchange point
// of its latch state — mid-run Snapshot, cross Matches, identity Restore,
// and bit flips into ROB, issue-queue and store-queue fields — and
// requires the interpreter twin never to diverge, nor InFlight from the
// oracle's.
func TestMirrorObservationBoundaries(t *testing.T) {
	mirrorBits := mirrorFieldBits(t)
	for _, p := range []*prog.Program{tinyProgram(t), forwardingProgram(t)} {
		ci, ct := newImaged(p), newImaged(p)
		const maxCycles = 400
		for cyc := 1; cyc <= maxCycles && !ci.done; cyc++ {
			ci.stepInterp()
			ct.Step()
			requireLockstep(t, ci, ct, false, p.Name)
			requireSameInFlight(t, ci, ct, p.Name)
			switch {
			case cyc%32 == 0: // snapshot + identity restore
				ckI, ckT := ci.Snapshot(), ct.Snapshot()
				if !ct.Matches(ckI) {
					t.Fatalf("%s cycle %d: compiled core does not match interpreter snapshot", p.Name, cyc)
				}
				if !ci.Matches(ckT) {
					t.Fatalf("%s cycle %d: interpreter does not match compiled snapshot", p.Name, cyc)
				}
				ci.Restore(ckI)
				ct.Restore(ckT)
			case cyc%13 == 0: // inject into a queue or buffer mid-run
				mb := mirrorBits[(cyc/13)%len(mirrorBits)]
				ci.FlipBits(mb)
				ct.FlipBits(mb)
			}
		}
		requireSameEnd(t, ci, ct, p.Name)
	}
}

// TestInFlightCompiledMatchesInterpreter requires identical in-flight
// observations from the compiled core's InFlight and the oracle's
// packed-state inFlightInterp at every sampled cycle of the tiny program.
func TestInFlightCompiledMatchesInterpreter(t *testing.T) {
	p := tinyProgram(t)
	ci, ct := newImaged(p), newImaged(p)
	for i := 0; i < 200 && !ci.done; i++ {
		ci.stepInterp()
		ct.Step()
		if i%7 != 0 {
			continue
		}
		requireSameInFlight(t, ci, ct, p.Name)
		if i == 0 && len(ct.InFlight(nil)) == 0 {
			t.Fatal("no in-flight instructions observed")
		}
	}
}
