package ino

// uLatches holds every flip-flop field of regs as a plain machine word: it
// is the core's flip-flop state, which Step (threaded.go) runs the pipeline
// on. The packed ff.State in the exact bit layout of the flip-flop space is
// only its exchange image: Snapshot and Matches pack into it, Restore
// unpacks from it, and FlipBits packs, flips and unpacks, so fault
// injection, checkpointing and convergence pruning all see that layout.
// The round trip is lossless because the ff.Space allocates fields back to
// back with no padding bits, and all values stored here are kept within
// their field widths (unpack masks through ff.Field.Get; every pipeline
// write in Step either copies an already-masked value or computes one that
// fits by construction).
type uLatches struct {
	// fetch
	fPC uint32
	// decode latch (F/D)
	dInst, dPC  uint32
	dValid, dPV bool
	dMexc       bool
	dCnt        uint8 // 2 bits
	// register-access latch (D/A)
	aInst, aPC   uint32
	aValid       bool
	aRs1, aRs2   uint8 // 5 bits
	aCWP         uint8 // 3 bits
	aRFE1, aRFE2 bool
	aTT          uint8
	aWY          bool
	// execute latch (A/E)
	eInst, ePC uint32
	eValid     bool
	eOp1, eOp2 uint32
	eY         uint32
	eTT        uint8
	eCWP       uint8 // 3 bits
	eET, eMAC  bool
	eMul       bool
	eMulstep   uint8 // 6 bits
	eSU, eYMSB bool
	// memory latch (E/M)
	mInst, mPC         uint32
	mValid             bool
	mResult, mStoreVal uint32
	mTrap              bool
	mTT                uint8
	mY                 uint32
	mICC               uint8 // 4 bits
	mWICC, mWY         bool
	mDciASI            uint8
	mDciLock, mDciSign bool
	mIrqen, mIrqen2    bool
	// exception latch (M/X)
	xInst, xPC uint32
	xValid     bool
	xResult    uint32
	xTrap      bool
	xTT        uint8
	xY         uint32
	xICC       uint8 // 4 bits
	xNPC       uint32
	xAddr      uint32
	xStoreVal  uint32
	xWICC, xWY bool
	xRETT, xPV bool
	xDebug     uint32
	xIntack    bool
	xIpend     uint8 // 4 bits
	xAnnul     bool
	// writeback latch (X/W) and architectural status (w.s.*)
	wInst, wPC uint32
	wValid     bool
	wResult    uint32
	wTrap      bool
	wTT        uint8
	wAddr      uint32
	wStoreVal  uint32
	wSICC      uint8 // 4 bits
	wSY        uint32
	wSTT       uint8
	wSTBA      uint32 // 20 bits
	wSWIM      uint8
	wSPIL      uint8 // 4 bits
	wSEC, wSEF bool
	wSPS, wSET bool
	wSCWP      uint8 // 3 bits
	wSDWT      bool
	// cache control
	icCfg, dcCfg uint16
}

// unpackU loads the latch state from its packed image st.
func (c *Core) unpackU() {
	st := c.st
	r := &c.r
	u := &c.u
	u.fPC = uint32(r.fPC.Get(st))
	u.dInst = uint32(r.dInst.Get(st))
	u.dPC = uint32(r.dPC.Get(st))
	u.dValid = r.dValid.Get(st) == 1
	u.dPV = r.dPV.Get(st) == 1
	u.dMexc = r.dMexc.Get(st) == 1
	u.dCnt = uint8(r.dCnt.Get(st))
	u.aInst = uint32(r.aInst.Get(st))
	u.aPC = uint32(r.aPC.Get(st))
	u.aValid = r.aValid.Get(st) == 1
	u.aRs1 = uint8(r.aRs1.Get(st))
	u.aRs2 = uint8(r.aRs2.Get(st))
	u.aCWP = uint8(r.aCWP.Get(st))
	u.aRFE1 = r.aRFE1.Get(st) == 1
	u.aRFE2 = r.aRFE2.Get(st) == 1
	u.aTT = uint8(r.aTT.Get(st))
	u.aWY = r.aWY.Get(st) == 1
	u.eInst = uint32(r.eInst.Get(st))
	u.ePC = uint32(r.ePC.Get(st))
	u.eValid = r.eValid.Get(st) == 1
	u.eOp1 = uint32(r.eOp1.Get(st))
	u.eOp2 = uint32(r.eOp2.Get(st))
	u.eY = uint32(r.eY.Get(st))
	u.eTT = uint8(r.eTT.Get(st))
	u.eCWP = uint8(r.eCWP.Get(st))
	u.eET = r.eET.Get(st) == 1
	u.eMAC = r.eMAC.Get(st) == 1
	u.eMul = r.eMul.Get(st) == 1
	u.eMulstep = uint8(r.eMulstep.Get(st))
	u.eSU = r.eSU.Get(st) == 1
	u.eYMSB = r.eYMSB.Get(st) == 1
	u.mInst = uint32(r.mInst.Get(st))
	u.mPC = uint32(r.mPC.Get(st))
	u.mValid = r.mValid.Get(st) == 1
	u.mResult = uint32(r.mResult.Get(st))
	u.mStoreVal = uint32(r.mStoreVal.Get(st))
	u.mTrap = r.mTrap.Get(st) == 1
	u.mTT = uint8(r.mTT.Get(st))
	u.mY = uint32(r.mY.Get(st))
	u.mICC = uint8(r.mICC.Get(st))
	u.mWICC = r.mWICC.Get(st) == 1
	u.mWY = r.mWY.Get(st) == 1
	u.mDciASI = uint8(r.mDciASI.Get(st))
	u.mDciLock = r.mDciLock.Get(st) == 1
	u.mDciSign = r.mDciSign.Get(st) == 1
	u.mIrqen = r.mIrqen.Get(st) == 1
	u.mIrqen2 = r.mIrqen2.Get(st) == 1
	u.xInst = uint32(r.xInst.Get(st))
	u.xPC = uint32(r.xPC.Get(st))
	u.xValid = r.xValid.Get(st) == 1
	u.xResult = uint32(r.xResult.Get(st))
	u.xTrap = r.xTrap.Get(st) == 1
	u.xTT = uint8(r.xTT.Get(st))
	u.xY = uint32(r.xY.Get(st))
	u.xICC = uint8(r.xICC.Get(st))
	u.xNPC = uint32(r.xNPC.Get(st))
	u.xAddr = uint32(r.xAddr.Get(st))
	u.xStoreVal = uint32(r.xStoreVal.Get(st))
	u.xWICC = r.xWICC.Get(st) == 1
	u.xWY = r.xWY.Get(st) == 1
	u.xRETT = r.xRETT.Get(st) == 1
	u.xPV = r.xPV.Get(st) == 1
	u.xDebug = uint32(r.xDebug.Get(st))
	u.xIntack = r.xIntack.Get(st) == 1
	u.xIpend = uint8(r.xIpend.Get(st))
	u.xAnnul = r.xAnnul.Get(st) == 1
	u.wInst = uint32(r.wInst.Get(st))
	u.wPC = uint32(r.wPC.Get(st))
	u.wValid = r.wValid.Get(st) == 1
	u.wResult = uint32(r.wResult.Get(st))
	u.wTrap = r.wTrap.Get(st) == 1
	u.wTT = uint8(r.wTT.Get(st))
	u.wAddr = uint32(r.wAddr.Get(st))
	u.wStoreVal = uint32(r.wStoreVal.Get(st))
	u.wSICC = uint8(r.wSICC.Get(st))
	u.wSY = uint32(r.wSY.Get(st))
	u.wSTT = uint8(r.wSTT.Get(st))
	u.wSTBA = uint32(r.wSTBA.Get(st))
	u.wSWIM = uint8(r.wSWIM.Get(st))
	u.wSPIL = uint8(r.wSPIL.Get(st))
	u.wSEC = r.wSEC.Get(st) == 1
	u.wSEF = r.wSEF.Get(st) == 1
	u.wSPS = r.wSPS.Get(st) == 1
	u.wSET = r.wSET.Get(st) == 1
	u.wSCWP = uint8(r.wSCWP.Get(st))
	u.wSDWT = r.wSDWT.Get(st) == 1
	u.icCfg = uint16(r.icCfg.Get(st))
	u.dcCfg = uint16(r.dcCfg.Get(st))
}

// packU stores the latch state into its packed image st.
func (c *Core) packU() {
	st := c.st
	r := &c.r
	u := &c.u
	r.fPC.Set(st, uint64(u.fPC))
	r.dInst.Set(st, uint64(u.dInst))
	r.dPC.Set(st, uint64(u.dPC))
	r.dValid.Set(st, b2u(u.dValid))
	r.dPV.Set(st, b2u(u.dPV))
	r.dMexc.Set(st, b2u(u.dMexc))
	r.dCnt.Set(st, uint64(u.dCnt))
	r.aInst.Set(st, uint64(u.aInst))
	r.aPC.Set(st, uint64(u.aPC))
	r.aValid.Set(st, b2u(u.aValid))
	r.aRs1.Set(st, uint64(u.aRs1))
	r.aRs2.Set(st, uint64(u.aRs2))
	r.aCWP.Set(st, uint64(u.aCWP))
	r.aRFE1.Set(st, b2u(u.aRFE1))
	r.aRFE2.Set(st, b2u(u.aRFE2))
	r.aTT.Set(st, uint64(u.aTT))
	r.aWY.Set(st, b2u(u.aWY))
	r.eInst.Set(st, uint64(u.eInst))
	r.ePC.Set(st, uint64(u.ePC))
	r.eValid.Set(st, b2u(u.eValid))
	r.eOp1.Set(st, uint64(u.eOp1))
	r.eOp2.Set(st, uint64(u.eOp2))
	r.eY.Set(st, uint64(u.eY))
	r.eTT.Set(st, uint64(u.eTT))
	r.eCWP.Set(st, uint64(u.eCWP))
	r.eET.Set(st, b2u(u.eET))
	r.eMAC.Set(st, b2u(u.eMAC))
	r.eMul.Set(st, b2u(u.eMul))
	r.eMulstep.Set(st, uint64(u.eMulstep))
	r.eSU.Set(st, b2u(u.eSU))
	r.eYMSB.Set(st, b2u(u.eYMSB))
	r.mInst.Set(st, uint64(u.mInst))
	r.mPC.Set(st, uint64(u.mPC))
	r.mValid.Set(st, b2u(u.mValid))
	r.mResult.Set(st, uint64(u.mResult))
	r.mStoreVal.Set(st, uint64(u.mStoreVal))
	r.mTrap.Set(st, b2u(u.mTrap))
	r.mTT.Set(st, uint64(u.mTT))
	r.mY.Set(st, uint64(u.mY))
	r.mICC.Set(st, uint64(u.mICC))
	r.mWICC.Set(st, b2u(u.mWICC))
	r.mWY.Set(st, b2u(u.mWY))
	r.mDciASI.Set(st, uint64(u.mDciASI))
	r.mDciLock.Set(st, b2u(u.mDciLock))
	r.mDciSign.Set(st, b2u(u.mDciSign))
	r.mIrqen.Set(st, b2u(u.mIrqen))
	r.mIrqen2.Set(st, b2u(u.mIrqen2))
	r.xInst.Set(st, uint64(u.xInst))
	r.xPC.Set(st, uint64(u.xPC))
	r.xValid.Set(st, b2u(u.xValid))
	r.xResult.Set(st, uint64(u.xResult))
	r.xTrap.Set(st, b2u(u.xTrap))
	r.xTT.Set(st, uint64(u.xTT))
	r.xY.Set(st, uint64(u.xY))
	r.xICC.Set(st, uint64(u.xICC))
	r.xNPC.Set(st, uint64(u.xNPC))
	r.xAddr.Set(st, uint64(u.xAddr))
	r.xStoreVal.Set(st, uint64(u.xStoreVal))
	r.xWICC.Set(st, b2u(u.xWICC))
	r.xWY.Set(st, b2u(u.xWY))
	r.xRETT.Set(st, b2u(u.xRETT))
	r.xPV.Set(st, b2u(u.xPV))
	r.xDebug.Set(st, uint64(u.xDebug))
	r.xIntack.Set(st, b2u(u.xIntack))
	r.xIpend.Set(st, uint64(u.xIpend))
	r.xAnnul.Set(st, b2u(u.xAnnul))
	r.wInst.Set(st, uint64(u.wInst))
	r.wPC.Set(st, uint64(u.wPC))
	r.wValid.Set(st, b2u(u.wValid))
	r.wResult.Set(st, uint64(u.wResult))
	r.wTrap.Set(st, b2u(u.wTrap))
	r.wTT.Set(st, uint64(u.wTT))
	r.wAddr.Set(st, uint64(u.wAddr))
	r.wStoreVal.Set(st, uint64(u.wStoreVal))
	r.wSICC.Set(st, uint64(u.wSICC))
	r.wSY.Set(st, uint64(u.wSY))
	r.wSTT.Set(st, uint64(u.wSTT))
	r.wSTBA.Set(st, uint64(u.wSTBA))
	r.wSWIM.Set(st, uint64(u.wSWIM))
	r.wSPIL.Set(st, uint64(u.wSPIL))
	r.wSEC.Set(st, b2u(u.wSEC))
	r.wSEF.Set(st, b2u(u.wSEF))
	r.wSPS.Set(st, b2u(u.wSPS))
	r.wSET.Set(st, b2u(u.wSET))
	r.wSCWP.Set(st, uint64(u.wSCWP))
	r.wSDWT.Set(st, b2u(u.wSDWT))
	r.icCfg.Set(st, uint64(u.icCfg))
	r.dcCfg.Set(st, uint64(u.dcCfg))
}
