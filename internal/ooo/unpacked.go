package ooo

// uLatches holds every flip-flop field of regs as a plain machine word, of
// the same name: it is the core's flip-flop state, which Step (threaded.go)
// runs the whole fetch/rename/issue/execute/writeback/commit loop on.
// Checkpoints carry it whole, Matches compares it whole, and FlipBits
// flips a bit of the flip-flop space in its word through the ff.Latches
// map built from regs and uLatches. Every value stored here is kept within
// its field width (every pipeline write in Step either copies an
// already-masked value, computes one that fits by construction, or — for
// lhist's shift register — masks explicitly where a packed write relies
// on ff.Field.Set truncation, and a flip stays inside the field), so the
// state is exactly the packed image in the space's bit layout, which the
// tests' codec (unpacked_test.go) converts to and from.
//
// Every field but three is a uint64 carrying exactly the value
// ff.Field.Get would return, so the compiled loop's arithmetic (ROB ages,
// wrap-around head/tail pointers) is bit-identical to uint64 arithmetic on
// the packed fields — the test oracle's (interp_test.go) — even for
// corrupted (injected) values. The three are the issue queue's valid and
// source-ready bits: each array of 1-bit fields is one uint16 mask word
// (ff.Latches), entry i in bit i, so that select, wakeup and allocation
// are word operations on the flip-flop state itself.
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
	iqValid, iqS1Rdy, iqS2Rdy uint16 // mask words: entry i in bit i
	iqInst                    [IQSize]uint64
	iqRob                     [IQSize]uint64
	iqS1Tag                   [IQSize]uint64
	iqS1Val                   [IQSize]uint64
	iqS2Tag                   [IQSize]uint64
	iqS2Val                   [IQSize]uint64

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
