package ooo

// uLatches holds every flip-flop field of regs as a plain machine word: it
// is the core's flip-flop state, which Step (threaded.go) runs the whole
// fetch/rename/issue/execute/writeback/commit loop on. The packed ff.State
// in the exact bit layout of the flip-flop space is only its exchange
// image: Snapshot and Matches pack into it, Restore unpacks from it, and
// FlipBits packs, flips and unpacks, so fault injection, checkpointing and
// convergence pruning all see that layout. The round trip is lossless
// because the ff.Space allocates fields back to back with no padding bits,
// and all values stored here are kept within their field widths (unpack
// masks through ff.Field.Get; every pipeline write in Step either copies
// an already-masked value, computes one that fits by construction, or —
// for lhist's shift register — masks explicitly where a packed write
// relies on ff.Field.Set truncation).
//
// Every field is a uint64 carrying exactly the value ff.Field.Get would
// return, so the compiled loop's arithmetic (modular ROB ages, wrap-around
// head/tail pointers) is bit-identical to uint64 arithmetic on the packed
// fields — the test oracle's (interp_test.go) — even for corrupted
// (injected) values.
type uLatches struct {
	// fetch
	pc        uint64
	lhist     uint64 // 12 bits: shift-register writes mask explicitly
	takenAddr uint64
	rasInv    uint64

	// fetch buffer
	fbInst                  [FBSize]uint64
	fbPC                    [FBSize]uint64
	fbPred                  [FBSize]uint64
	fbPTgt                  [FBSize]uint64
	fbHead, fbTail, fbCount uint64

	// rename table
	rat [32]uint64

	// reorder buffer
	robHead, robTail, robCount uint64
	robInst                    [RobSize]uint64
	robPC                      [RobSize]uint64
	robDone                    [RobSize]uint64
	robExc                     [RobSize]uint64
	robVal                     [RobSize]uint64
	robFlags                   [RobSize]uint64
	robPTgt                    [RobSize]uint64

	// issue queue
	iqValid [IQSize]uint64
	iqInst  [IQSize]uint64
	iqRob   [IQSize]uint64
	iqS1Tag [IQSize]uint64
	iqS1Rdy [IQSize]uint64
	iqS1Val [IQSize]uint64
	iqS2Tag [IQSize]uint64
	iqS2Rdy [IQSize]uint64
	iqS2Val [IQSize]uint64

	// store queue
	sqHead, sqTail, sqCount uint64
	sqValid                 [SQSize]uint64
	sqRob                   [SQSize]uint64
	sqAddr                  [SQSize]uint64
	sqData                  [SQSize]uint64
	sqDone                  [SQSize]uint64

	// L1 D-cache access unit
	ldValid, ldRob, ldAddr, ldCnt, ldData uint64
	ldAddrIn                              [4]uint64
	ldDataIn                              [4]uint64
	ldAddrOut                             [2]uint64

	// pipelined multiplier
	muA   [4]uint64
	muB   [4]uint64
	muV   [4]uint64
	muRob [4]uint64
	muHi  [4]uint64

	// branch unit staging
	caBr uint64
	caP  [3]uint64

	// writeback/bypass staging registers (architecturally inert)
	rrEx  [6]uint64
	exWb  [6]uint64
	wbRet [8]uint64
}

// unpackU loads the latch state from its packed image st.
func (c *Core) unpackU() {
	st := c.st
	r := &c.r
	u := &c.u
	u.pc = r.pc.Get(st)
	u.lhist = r.lhist.Get(st)
	u.takenAddr = r.takenAddr.Get(st)
	u.rasInv = r.rasInv.Get(st)
	for i := 0; i < FBSize; i++ {
		u.fbInst[i] = r.fbInst[i].Get(st)
		u.fbPC[i] = r.fbPC[i].Get(st)
		u.fbPred[i] = r.fbPred[i].Get(st)
		u.fbPTgt[i] = r.fbPTgt[i].Get(st)
	}
	u.fbHead = r.fbHead.Get(st)
	u.fbTail = r.fbTail.Get(st)
	u.fbCount = r.fbCount.Get(st)
	for i := 0; i < 32; i++ {
		u.rat[i] = r.rat[i].Get(st)
	}
	u.robHead = r.robHead.Get(st)
	u.robTail = r.robTail.Get(st)
	u.robCount = r.robCount.Get(st)
	for i := 0; i < RobSize; i++ {
		u.robInst[i] = r.robInst[i].Get(st)
		u.robPC[i] = r.robPC[i].Get(st)
		u.robDone[i] = r.robDone[i].Get(st)
		u.robExc[i] = r.robExc[i].Get(st)
		u.robVal[i] = r.robVal[i].Get(st)
		u.robFlags[i] = r.robFlags[i].Get(st)
		u.robPTgt[i] = r.robPTgt[i].Get(st)
	}
	for i := 0; i < IQSize; i++ {
		u.iqValid[i] = r.iqValid[i].Get(st)
		u.iqInst[i] = r.iqInst[i].Get(st)
		u.iqRob[i] = r.iqRob[i].Get(st)
		u.iqS1Tag[i] = r.iqS1Tag[i].Get(st)
		u.iqS1Rdy[i] = r.iqS1Rdy[i].Get(st)
		u.iqS1Val[i] = r.iqS1Val[i].Get(st)
		u.iqS2Tag[i] = r.iqS2Tag[i].Get(st)
		u.iqS2Rdy[i] = r.iqS2Rdy[i].Get(st)
		u.iqS2Val[i] = r.iqS2Val[i].Get(st)
	}
	u.sqHead = r.sqHead.Get(st)
	u.sqTail = r.sqTail.Get(st)
	u.sqCount = r.sqCount.Get(st)
	for i := 0; i < SQSize; i++ {
		u.sqValid[i] = r.sqValid[i].Get(st)
		u.sqRob[i] = r.sqRob[i].Get(st)
		u.sqAddr[i] = r.sqAddr[i].Get(st)
		u.sqData[i] = r.sqData[i].Get(st)
		u.sqDone[i] = r.sqDone[i].Get(st)
	}
	u.ldValid = r.ldValid.Get(st)
	u.ldRob = r.ldRob.Get(st)
	u.ldAddr = r.ldAddr.Get(st)
	u.ldCnt = r.ldCnt.Get(st)
	u.ldData = r.ldData.Get(st)
	for i := 0; i < 4; i++ {
		u.ldAddrIn[i] = r.ldAddrIn[i].Get(st)
		u.ldDataIn[i] = r.ldDataIn[i].Get(st)
	}
	for i := 0; i < 2; i++ {
		u.ldAddrOut[i] = r.ldAddrOut[i].Get(st)
	}
	for i := 0; i < 4; i++ {
		u.muA[i] = r.muA[i].Get(st)
		u.muB[i] = r.muB[i].Get(st)
		u.muV[i] = r.muV[i].Get(st)
		u.muRob[i] = r.muRob[i].Get(st)
		u.muHi[i] = r.muHi[i].Get(st)
	}
	u.caBr = r.caBr.Get(st)
	for i := 0; i < 3; i++ {
		u.caP[i] = r.caP[i].Get(st)
	}
	for i := 0; i < 6; i++ {
		u.rrEx[i] = r.rrEx[i].Get(st)
		u.exWb[i] = r.exWb[i].Get(st)
	}
	for i := 0; i < 8; i++ {
		u.wbRet[i] = r.wbRet[i].Get(st)
	}
}

// packU stores the latch state into its packed image st.
func (c *Core) packU() {
	st := c.st
	r := &c.r
	u := &c.u
	r.pc.Set(st, u.pc)
	r.lhist.Set(st, u.lhist)
	r.takenAddr.Set(st, u.takenAddr)
	r.rasInv.Set(st, u.rasInv)
	for i := 0; i < FBSize; i++ {
		r.fbInst[i].Set(st, u.fbInst[i])
		r.fbPC[i].Set(st, u.fbPC[i])
		r.fbPred[i].Set(st, u.fbPred[i])
		r.fbPTgt[i].Set(st, u.fbPTgt[i])
	}
	r.fbHead.Set(st, u.fbHead)
	r.fbTail.Set(st, u.fbTail)
	r.fbCount.Set(st, u.fbCount)
	for i := 0; i < 32; i++ {
		r.rat[i].Set(st, u.rat[i])
	}
	r.robHead.Set(st, u.robHead)
	r.robTail.Set(st, u.robTail)
	r.robCount.Set(st, u.robCount)
	for i := 0; i < RobSize; i++ {
		r.robInst[i].Set(st, u.robInst[i])
		r.robPC[i].Set(st, u.robPC[i])
		r.robDone[i].Set(st, u.robDone[i])
		r.robExc[i].Set(st, u.robExc[i])
		r.robVal[i].Set(st, u.robVal[i])
		r.robFlags[i].Set(st, u.robFlags[i])
		r.robPTgt[i].Set(st, u.robPTgt[i])
	}
	for i := 0; i < IQSize; i++ {
		r.iqValid[i].Set(st, u.iqValid[i])
		r.iqInst[i].Set(st, u.iqInst[i])
		r.iqRob[i].Set(st, u.iqRob[i])
		r.iqS1Tag[i].Set(st, u.iqS1Tag[i])
		r.iqS1Rdy[i].Set(st, u.iqS1Rdy[i])
		r.iqS1Val[i].Set(st, u.iqS1Val[i])
		r.iqS2Tag[i].Set(st, u.iqS2Tag[i])
		r.iqS2Rdy[i].Set(st, u.iqS2Rdy[i])
		r.iqS2Val[i].Set(st, u.iqS2Val[i])
	}
	r.sqHead.Set(st, u.sqHead)
	r.sqTail.Set(st, u.sqTail)
	r.sqCount.Set(st, u.sqCount)
	for i := 0; i < SQSize; i++ {
		r.sqValid[i].Set(st, u.sqValid[i])
		r.sqRob[i].Set(st, u.sqRob[i])
		r.sqAddr[i].Set(st, u.sqAddr[i])
		r.sqData[i].Set(st, u.sqData[i])
		r.sqDone[i].Set(st, u.sqDone[i])
	}
	r.ldValid.Set(st, u.ldValid)
	r.ldRob.Set(st, u.ldRob)
	r.ldAddr.Set(st, u.ldAddr)
	r.ldCnt.Set(st, u.ldCnt)
	r.ldData.Set(st, u.ldData)
	for i := 0; i < 4; i++ {
		r.ldAddrIn[i].Set(st, u.ldAddrIn[i])
		r.ldDataIn[i].Set(st, u.ldDataIn[i])
	}
	for i := 0; i < 2; i++ {
		r.ldAddrOut[i].Set(st, u.ldAddrOut[i])
	}
	for i := 0; i < 4; i++ {
		r.muA[i].Set(st, u.muA[i])
		r.muB[i].Set(st, u.muB[i])
		r.muV[i].Set(st, u.muV[i])
		r.muRob[i].Set(st, u.muRob[i])
		r.muHi[i].Set(st, u.muHi[i])
	}
	r.caBr.Set(st, u.caBr)
	for i := 0; i < 3; i++ {
		r.caP[i].Set(st, u.caP[i])
	}
	for i := 0; i < 6; i++ {
		r.rrEx[i].Set(st, u.rrEx[i])
		r.exWb[i].Set(st, u.exWb[i])
	}
	for i := 0; i < 8; i++ {
		r.wbRet[i].Set(st, u.wbRet[i])
	}
}
