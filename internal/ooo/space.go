// Package ooo implements the out-of-order processor core (the paper's Alpha
// IVM stand-in): a 2-wide superscalar with branch prediction, register
// renaming through a RAT, a unified issue queue (sched0), a reorder buffer,
// a store queue with store-to-load forwarding, a pipelined multiplier, and
// an L1 data-cache access unit with variable latency.
//
// As in internal/ino, every piece of sequential state is a named field in a
// ff.Space using the paper's Appendix A naming conventions (rob.*, sched0.*,
// exec.mu0.*, mem.l1dcache.*, RF0.*, ...). Soft errors are single bit flips
// of that space; outcome classes emerge from execution. RAMs (architectural
// register file, predictor tables, cache data) are excluded, matching the
// paper's flip-flop-only error model.
package ooo

import "clear/internal/ff"

// Microarchitectural dimensions of the core.
const (
	FetchWidth  = 2
	IssueWidth  = 2
	CommitWidth = 2

	RobSize = 48
	IQSize  = 16
	SQSize  = 8
	FBSize  = 8

	// cache geometry and latencies
	CacheLines  = 64
	HitLatency  = 2
	MissLatency = 12

	btbSize    = 256
	gshareSize = 1024
)

// regs holds every flip-flop field handle of the OoO core.
type regs struct {
	// fetch
	pc        ff.Field // RF0.PCreg
	lhist     ff.Field // RF0.F1.lhist: global branch history
	takenAddr ff.Field // RF0.F1.takenAddress
	rasInv    ff.Field // RF0.F1.ras.ret.inv

	// fetch buffer (RF1.F2.*)
	fbInst                  [FBSize]ff.Field
	fbPC                    [FBSize]ff.Field
	fbPred                  [FBSize]ff.Field // bit0: predicted taken
	fbPTgt                  [FBSize]ff.Field
	fbHead, fbTail, fbCount ff.Field

	// rename table (one mapping per architectural register)
	rat [32]ff.Field // bit6: valid, bits5..0: ROB index

	// reorder buffer
	robHead, robTail, robCount ff.Field
	robInst                    [RobSize]ff.Field
	robPC                      [RobSize]ff.Field
	robDone                    [RobSize]ff.Field
	robExc                     [RobSize]ff.Field // 0 none, 1 trap
	robVal                     [RobSize]ff.Field
	robFlags                   [RobSize]ff.Field // bit0 isStore, bit1 isBranch, bit2 predTaken
	robPTgt                    [RobSize]ff.Field

	// issue queue (sched0.*)
	iqValid [IQSize]ff.Field
	iqInst  [IQSize]ff.Field
	iqRob   [IQSize]ff.Field
	iqS1Tag [IQSize]ff.Field
	iqS1Rdy [IQSize]ff.Field
	iqS1Val [IQSize]ff.Field
	iqS2Tag [IQSize]ff.Field
	iqS2Rdy [IQSize]ff.Field
	iqS2Val [IQSize]ff.Field

	// store queue (mem.stq.* / mem.stb.*)
	sqHead, sqTail, sqCount ff.Field
	sqValid                 [SQSize]ff.Field
	sqRob                   [SQSize]ff.Field
	sqAddr                  [SQSize]ff.Field
	sqData                  [SQSize]ff.Field
	sqDone                  [SQSize]ff.Field

	// L1 D-cache access unit (mem.l1dcache.*)
	ldValid ff.Field
	ldRob   ff.Field
	ldAddr  ff.Field
	ldCnt   ff.Field
	ldData  ff.Field // written by every completed access, never read: inert
	// staging registers exercised by every access; architecturally inert
	// (the paper's always-vanish mem.l1dcache.addr.in*/data.in* registers)
	ldAddrIn  [4]ff.Field
	ldDataIn  [4]ff.Field
	ldAddrOut [2]ff.Field

	// pipelined multiplier (exec.mu0.*): 4 stages
	muA   [4]ff.Field // a01, a12, a23, a34
	muB   [4]ff.Field // b01, b12, b23, b34
	muV   [4]ff.Field // i0..i3 valid
	muRob [4]ff.Field
	muHi  [4]ff.Field // computing MULH?

	// branch unit staging (exec.ca0.*)
	caBr ff.Field
	caP  [3]ff.Field

	// writeback/bypass staging registers (regs.rr.ex.*, regs.ex.wb.*,
	// regs.wb.wb.ret*): written with pass-through copies of results each
	// cycle and never read — the always-vanish structures of Appendix A.
	rrEx  [6]ff.Field
	exWb  [6]ff.Field
	wbRet [8]ff.Field
}

// allocInto allocates the core's fields. Fields allocated with AllocInert
// (37 fields, 1,122 bits) are the write-only staging latches Step never
// reads: the write-back and bypass copies, the L1 D-cache line buffers and
// full-data register, the branch-unit staging and the fetch unit's
// taken-address and RAS latches. No other field, register, memory word,
// SRAM entry, output, counter, status or commit event is computed from
// them (TestInertClosure), so every strike there vanishes.
// RF0.F1.lhist also always vanishes but is not inert: it steers fetch
// prediction, so it changes cycle counts. Declaring another field inert
// requires removing every read of it from Step and the interpreter in
// interp_test.go first.
func allocInto(s *ff.Space, r *regs) {
	r.pc = s.Alloc("fetch", "RF0.PCreg", 32)
	r.lhist = s.Alloc("fetch", "RF0.F1.lhist", 12)
	r.takenAddr = s.AllocInert("fetch", "RF0.F1.takenAddress", 32)
	r.rasInv = s.AllocInert("fetch", "RF0.F1.ras.ret.inv", 1)

	for i := 0; i < FBSize; i++ {
		r.fbInst[i] = s.Alloc("fetchbuf", name("RF1.F2.inst", i), 32)
		r.fbPC[i] = s.Alloc("fetchbuf", name("RF1.F2.pc", i), 32)
		r.fbPred[i] = s.Alloc("fetchbuf", name("RF1.F2.pred", i), 1)
		r.fbPTgt[i] = s.Alloc("fetchbuf", name("RF1.F2.ptgt", i), 32)
	}
	r.fbHead = s.Alloc("fetchbuf", "RF1.F2.head", 3)
	r.fbTail = s.Alloc("fetchbuf", "RF1.F2.tail", 3)
	r.fbCount = s.Alloc("fetchbuf", "RF1.F2.count", 4)

	for i := 0; i < 32; i++ {
		r.rat[i] = s.Alloc("rename", name("rename.rat", i), 7)
	}

	r.robHead = s.Alloc("rob", "rob.head.reg", 6)
	r.robTail = s.Alloc("rob", "rob.tail.reg", 6)
	r.robCount = s.Alloc("rob", "rob.count.reg", 6)
	for i := 0; i < RobSize; i++ {
		r.robInst[i] = s.Alloc("rob", name("rob.inst", i), 32)
		r.robPC[i] = s.Alloc("rob", name("rob.pc", i), 32)
		r.robDone[i] = s.Alloc("rob", name("rob.done", i), 1)
		r.robExc[i] = s.Alloc("rob", name("rob.exc", i), 2)
		r.robVal[i] = s.Alloc("rob", name("rob.val", i), 32)
		r.robFlags[i] = s.Alloc("rob", name("rob.flags", i), 3)
		r.robPTgt[i] = s.Alloc("rob", name("rob.ptgt", i), 32)
	}

	for i := 0; i < IQSize; i++ {
		r.iqValid[i] = s.Alloc("sched", name("sched0.valid", i), 1)
		r.iqInst[i] = s.Alloc("sched", name("sched0.inst.array.reg", i), 32)
		r.iqRob[i] = s.Alloc("sched", name("sched0.rob", i), 6)
		r.iqS1Tag[i] = s.Alloc("sched", name("sched0.s1tag", i), 6)
		r.iqS1Rdy[i] = s.Alloc("sched", name("sched0.s1rdy", i), 1)
		r.iqS1Val[i] = s.Alloc("sched", name("sched0.s1val", i), 32)
		r.iqS2Tag[i] = s.Alloc("sched", name("sched0.s2tag", i), 6)
		r.iqS2Rdy[i] = s.Alloc("sched", name("sched0.s2rdy", i), 1)
		r.iqS2Val[i] = s.Alloc("sched", name("sched0.s2val", i), 32)
	}

	r.sqHead = s.Alloc("stq", "mem.stq.head.reg", 3)
	r.sqTail = s.Alloc("stq", "mem.stq.tail.reg", 3)
	r.sqCount = s.Alloc("stq", "mem.stq.count.reg", 4)
	for i := 0; i < SQSize; i++ {
		r.sqValid[i] = s.Alloc("stq", name("mem.stq.valid", i), 1)
		r.sqRob[i] = s.Alloc("stq", name("mem.stq.rob", i), 6)
		r.sqAddr[i] = s.Alloc("stq", name("mem.stq.address", i), 32)
		r.sqData[i] = s.Alloc("stq", name("mem.stq.data", i), 32)
		r.sqDone[i] = s.Alloc("stq", name("mem.stq.done", i), 1)
	}

	r.ldValid = s.Alloc("l1dcache", "mem.l1dcache.access.valid", 1)
	r.ldRob = s.Alloc("l1dcache", "mem.l1dcache.access.rob", 6)
	r.ldAddr = s.Alloc("l1dcache", "mem.l1dcache.accessaddr0.reg", 32)
	r.ldCnt = s.Alloc("l1dcache", "mem.l1dcache.access.cnt", 4)
	r.ldData = s.AllocInert("l1dcache", "mem.l1dcache.accessfulldata0.reg", 32)
	for i := 0; i < 4; i++ {
		r.ldAddrIn[i] = s.AllocInert("l1dcache", name("mem.l1dcache.addr.in", i), 32)
		r.ldDataIn[i] = s.AllocInert("l1dcache", name("mem.l1dcache.data.in", i), 32)
	}
	for i := 0; i < 2; i++ {
		r.ldAddrOut[i] = s.AllocInert("l1dcache", name("mem.l1dcache.addr.out", i), 32)
	}

	mu := [4]string{"a01", "a12", "a23", "a34"}
	mb := [4]string{"b01", "b12", "b23", "b34"}
	for i := 0; i < 4; i++ {
		r.muA[i] = s.Alloc("mul", "exec.mu0."+mu[i], 32)
		r.muB[i] = s.Alloc("mul", "exec.mu0."+mb[i], 32)
		r.muV[i] = s.Alloc("mul", name("exec.mu0.i", i), 1)
		r.muRob[i] = s.Alloc("mul", name("exec.mu0.rob", i), 6)
		r.muHi[i] = s.Alloc("mul", name("exec.mu0.hi", i), 1)
	}

	r.caBr = s.AllocInert("branchunit", "exec.ca0.br", 1)
	for i := 0; i < 3; i++ {
		r.caP[i] = s.AllocInert("branchunit", name("exec.ca0.p", i), 32)
	}

	for i := 0; i < 6; i++ {
		r.rrEx[i] = s.AllocInert("bypass", name("regs.rr.ex.i", i), 32)
		r.exWb[i] = s.AllocInert("bypass", name("regs.ex.wb.i", i), 32)
	}
	for i := 0; i < 8; i++ {
		r.wbRet[i] = s.AllocInert("bypass", name("regs.wb.wb.ret", i+1), 32)
	}
}

func name(base string, i int) string {
	// small, allocation-light integer suffix
	if i < 10 {
		return base + string(rune('0'+i))
	}
	return base + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// NewSpace builds the OoO core's flip-flop space.
func NewSpace() *ff.Space {
	s := ff.NewSpace()
	var r regs
	allocInto(s, &r)
	s.Freeze()
	return s
}

var sharedSpace = NewSpace()
var sharedRegs = func() regs {
	s := ff.NewSpace()
	var r regs
	allocInto(s, &r)
	return r
}()

// latches maps each bit of the space to its word of uLatches; building it
// panics unless regs and uLatches declare the same fields.
var latches = ff.NewLatches[uLatches](sharedSpace, &sharedRegs)

// Space returns the OoO core's flip-flop space (shared across instances).
func Space() *ff.Space { return sharedSpace }
