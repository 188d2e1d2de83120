package ino

// uLatches holds every flip-flop field of regs as a plain machine word, of
// the same name: it is the core's flip-flop state, which Step (threaded.go)
// runs the pipeline on. Checkpoints carry it whole, Matches compares it
// whole, and FlipBits flips a bit of the flip-flop space in its word
// through the ff.Latches map built from regs and uLatches. Every value
// stored here is kept within its field width (every pipeline write in Step
// either copies an already-masked value or computes one that fits by
// construction, and a flip stays inside the field), so the state is
// exactly the packed image in the space's bit layout, which the tests'
// codec (unpacked_test.go) converts to and from.
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
