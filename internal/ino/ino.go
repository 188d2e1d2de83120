// Package ino implements the in-order processor core (the paper's SPARC
// Leon3 stand-in): a 7-stage pipeline — fetch (F), decode (D), register
// access (A), execute (E), memory (M), exception (X), writeback (W) — with
// full forwarding, load-use interlock, and branch resolution in execute.
//
// Every inter-stage latch, status register and control register is a named
// field in a ff.Space, using the structure names of the paper's Appendix A
// (e.ctrl.inst, m.y, w.s.icc, ...). A soft error is a single bit flip in
// that space between two clock cycles; outcomes (vanish, output mismatch,
// trap, hang) emerge from ordinary pipeline execution of the corrupted
// state, exactly as in the paper's RTL-level injection.
//
// The register file and memories are explicitly NOT part of the flip-flop
// space: the paper protects RAMs with coding techniques and targets
// flip-flops only.
package ino

import (
	"clear/internal/ff"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/tcode"
)

// illegalWord is the instruction word returned for out-of-range fetches; its
// opcode field decodes as illegal and traps at execute.
const illegalWord = 0xFFFFFFFF

// regs holds the flip-flop field handles of the core. Names follow the
// paper's Appendix A conventions for the Leon3.
type regs struct {
	// fetch
	fPC ff.Field
	// decode latch (F/D)
	dInst, dPC  ff.Field
	dValid, dPV ff.Field
	dMexc, dCnt ff.Field
	// register-access latch (D/A)
	aInst, aPC         ff.Field
	aValid             ff.Field
	aRs1, aRs2         ff.Field
	aCWP, aRFE1, aRFE2 ff.Field
	aTT, aWY           ff.Field
	// execute latch (A/E)
	eInst, ePC     ff.Field
	eValid         ff.Field
	eOp1, eOp2     ff.Field
	eY             ff.Field
	eTT, eCWP      ff.Field
	eET, eMAC      ff.Field
	eMul, eMulstep ff.Field
	eSU, eYMSB     ff.Field
	// memory latch (E/M)
	mInst, mPC         ff.Field
	mValid             ff.Field
	mResult, mStoreVal ff.Field
	mTrap, mTT         ff.Field
	mY, mICC           ff.Field
	mWICC, mWY         ff.Field
	mDciASI            ff.Field
	mDciLock, mDciSign ff.Field
	mIrqen, mIrqen2    ff.Field
	// exception latch (M/X)
	xInst, xPC      ff.Field
	xValid          ff.Field
	xResult         ff.Field
	xTrap, xTT      ff.Field
	xY, xICC        ff.Field
	xNPC            ff.Field
	xAddr           ff.Field
	xStoreVal       ff.Field
	xWICC, xWY      ff.Field
	xRETT, xPV      ff.Field
	xDebug          ff.Field
	xIntack, xIpend ff.Field
	xAnnul          ff.Field
	// writeback latch (X/W) and architectural status (w.s.*)
	wInst, wPC   ff.Field
	wValid       ff.Field
	wResult      ff.Field
	wTrap, wTT   ff.Field
	wAddr        ff.Field
	wStoreVal    ff.Field
	wSICC, wSY   ff.Field
	wSTT, wSTBA  ff.Field
	wSWIM, wSPIL ff.Field
	wSEC, wSEF   ff.Field
	wSPS, wSET   ff.Field
	wSCWP, wSDWT ff.Field
	// cache/control structures (present in Leon3; exercised but output-
	// neutral for these workloads, like the paper's always-vanish FFs)
	icCfg, dcCfg ff.Field
}

var _ sim.Core = (*Core)(nil)

// Core is an instance of the in-order core bound to a program.
type Core struct {
	space *ff.Space

	program *prog.Program
	regfile [32]uint32
	mem     []uint32
	out     []uint32

	cycles  int
	retired int64
	done    bool
	status  prog.Status

	// recoveryNext is the flush-recovery refetch point: the next PC in
	// program order after the newest instruction that has completed its
	// memory access. nextAtM stages that value alongside the instruction
	// currently in the memory stage. Both model the recovery control's
	// hardened shadow registers (Fig 5) and are therefore not part of the
	// injectable flip-flop space.
	recoveryNext uint32
	nextAtM      uint32

	// tp is the program's threaded-code translation, which Step executes;
	// words that miss it (corrupted latches, bubbles, out-of-range
	// fetches) decode through tcode.Decode's process-wide memo.
	tp *tcode.Program

	// u is the core's flip-flop state, one machine word per field
	// (unpacked.go), which Step executes on, checkpoints carry and FlipBits
	// strikes in place. ud is the translation of each stage's instruction
	// word, derived from u.
	u  uLatches
	ud stageDecodes

	hook sim.CommitHook
}

// NewSpace builds the flip-flop space of the in-order core. The same space
// (and therefore the same bit numbering) is shared by every Core instance,
// so injection targets and protection maps are stable across runs.
func NewSpace() *ff.Space {
	s := ff.NewSpace()
	var r regs
	allocInto(s, &r)
	s.Freeze()
	return s
}

// allocInto allocates the core's fields. Fields allocated with AllocInert
// are the ones Step never reads: trap-type, Y, condition-code, window-
// pointer, debug and interrupt latches, the w.s.* status registers and the
// cache configuration. The pipeline writes or carries them, but no other
// field, register, memory word, output, counter, status or commit event is
// computed from them (TestInertClosure), so every strike there vanishes —
// the paper's Appendix A always-vanish structures. Declaring another field
// inert requires removing every read of it from Step and the interpreter in
// interp_test.go first.
func allocInto(s *ff.Space, r *regs) {
	// fetch
	r.fPC = s.Alloc("fetch", "f.pc", 32)
	// decode
	r.dInst = s.Alloc("decode", "d.inst", 32)
	r.dPC = s.Alloc("decode", "d.pc", 32)
	r.dValid = s.Alloc("decode", "d.valid", 1)
	r.dPV = s.AllocInert("decode", "d.pv", 1)
	r.dMexc = s.AllocInert("decode", "d.mexc", 1)
	r.dCnt = s.AllocInert("decode", "d.cnt", 2)
	// register access
	r.aInst = s.Alloc("regacc", "a.ctrl.inst", 32)
	r.aPC = s.Alloc("regacc", "a.ctrl.pc", 32)
	r.aValid = s.Alloc("regacc", "a.ctrl.valid", 1)
	r.aRs1 = s.Alloc("regacc", "a.rs1", 5)
	r.aRs2 = s.Alloc("regacc", "a.rs2", 5)
	r.aCWP = s.AllocInert("regacc", "a.cwp", 3)
	r.aRFE1 = s.AllocInert("regacc", "a.rfe1", 1)
	r.aRFE2 = s.AllocInert("regacc", "a.rfe2", 1)
	r.aTT = s.AllocInert("regacc", "a.ctrl.tt", 8)
	r.aWY = s.AllocInert("regacc", "a.ctrl.wy", 1)
	// execute
	r.eInst = s.Alloc("execute", "e.ctrl.inst", 32)
	r.ePC = s.Alloc("execute", "e.ctrl.pc", 32)
	r.eValid = s.Alloc("execute", "e.ctrl.valid", 1)
	r.eOp1 = s.Alloc("execute", "e.op1", 32)
	r.eOp2 = s.Alloc("execute", "e.op2", 32)
	r.eY = s.AllocInert("execute", "e.y", 32)
	r.eTT = s.AllocInert("execute", "e.ctrl.tt", 8)
	r.eCWP = s.AllocInert("execute", "e.cwp", 3)
	r.eET = s.AllocInert("execute", "e.et", 1)
	r.eMAC = s.AllocInert("execute", "e.mac", 1)
	r.eMul = s.AllocInert("execute", "e.mul", 1)
	r.eMulstep = s.AllocInert("execute", "e.mulstep", 6)
	r.eSU = s.AllocInert("execute", "e.su", 1)
	r.eYMSB = s.AllocInert("execute", "e.ymsb", 1)
	// memory
	r.mInst = s.Alloc("memory", "m.ctrl.inst", 32)
	r.mPC = s.Alloc("memory", "m.ctrl.pc", 32)
	r.mValid = s.Alloc("memory", "m.ctrl.valid", 1)
	r.mResult = s.Alloc("memory", "m.result", 32)
	r.mStoreVal = s.Alloc("memory", "m.storeval", 32)
	r.mTrap = s.Alloc("memory", "m.trap", 1)
	r.mTT = s.AllocInert("memory", "m.ctrl.tt", 8)
	r.mY = s.AllocInert("memory", "m.y", 32)
	r.mICC = s.AllocInert("memory", "m.icc", 4)
	r.mWICC = s.AllocInert("memory", "m.ctrl.wicc", 1)
	r.mWY = s.AllocInert("memory", "m.ctrl.wy", 1)
	r.mDciASI = s.AllocInert("memory", "m.dci.asi", 8)
	r.mDciLock = s.AllocInert("memory", "m.dci.lock", 1)
	r.mDciSign = s.AllocInert("memory", "m.dci.signed", 1)
	r.mIrqen = s.AllocInert("memory", "m.irqen", 1)
	r.mIrqen2 = s.AllocInert("memory", "m.irqen2", 1)
	// exception
	r.xInst = s.Alloc("exception", "x.ctrl.inst", 32)
	r.xPC = s.Alloc("exception", "x.ctrl.pc", 32)
	r.xValid = s.Alloc("exception", "x.ctrl.valid", 1)
	r.xResult = s.Alloc("exception", "x.result", 32)
	r.xTrap = s.Alloc("exception", "x.trap", 1)
	r.xTT = s.AllocInert("exception", "x.ctrl.tt", 8)
	r.xY = s.AllocInert("exception", "x.y", 32)
	r.xICC = s.AllocInert("exception", "x.icc", 4)
	r.xNPC = s.AllocInert("exception", "x.npc", 32)
	r.xAddr = s.Alloc("exception", "x.addr", 32)
	r.xStoreVal = s.Alloc("exception", "x.storeval", 32)
	r.xWICC = s.AllocInert("exception", "x.ctrl.wicc", 1)
	r.xWY = s.AllocInert("exception", "x.ctrl.wy", 1)
	r.xRETT = s.AllocInert("exception", "x.ctrl.rett", 1)
	r.xPV = s.AllocInert("exception", "x.ctrl.pv", 1)
	r.xDebug = s.AllocInert("exception", "x.debug", 32)
	r.xIntack = s.AllocInert("exception", "x.intack", 1)
	r.xIpend = s.AllocInert("exception", "x.ipend", 4)
	r.xAnnul = s.AllocInert("exception", "x.annul", 1)
	// writeback + status
	r.wInst = s.Alloc("write", "w.ctrl.inst", 32)
	r.wPC = s.Alloc("write", "w.ctrl.pc", 32)
	r.wValid = s.Alloc("write", "w.ctrl.valid", 1)
	r.wResult = s.Alloc("write", "w.result", 32)
	r.wTrap = s.Alloc("write", "w.trap", 1)
	r.wTT = s.AllocInert("write", "w.ctrl.tt", 8)
	r.wAddr = s.Alloc("write", "w.addr", 32)
	r.wStoreVal = s.Alloc("write", "w.storeval", 32)
	r.wSICC = s.AllocInert("write", "w.s.icc", 4)
	r.wSY = s.AllocInert("write", "w.s.y", 32)
	r.wSTT = s.AllocInert("write", "w.s.tt", 8)
	r.wSTBA = s.AllocInert("write", "w.s.tba", 20)
	r.wSWIM = s.AllocInert("write", "w.s.wim", 8)
	r.wSPIL = s.AllocInert("write", "w.s.pil", 4)
	r.wSEC = s.AllocInert("write", "w.s.ec", 1)
	r.wSEF = s.AllocInert("write", "w.s.ef", 1)
	r.wSPS = s.AllocInert("write", "w.s.ps", 1)
	r.wSET = s.AllocInert("write", "w.s.et", 1)
	r.wSCWP = s.AllocInert("write", "w.s.cwp", 3)
	r.wSDWT = s.AllocInert("write", "w.s.dwt", 1)
	// cache control
	r.icCfg = s.AllocInert("icache", "ic.cfg", 16)
	r.dcCfg = s.AllocInert("dcache", "dc.cfg", 16)
}

// shared space: built once, reused by every core instance.
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

// Space returns the core's flip-flop space (shared across instances).
func Space() *ff.Space { return sharedSpace }

// New returns a core reset to run p.
func New(p *prog.Program) *Core {
	c := &Core{space: sharedSpace}
	c.Reset(p)
	return c
}

// Reset rebinds the core to p and clears all state.
func (c *Core) Reset(p *prog.Program) {
	c.program = p
	c.regfile = [32]uint32{}
	if cap(c.mem) >= p.MemWords {
		c.mem = c.mem[:p.MemWords]
		for i := range c.mem {
			c.mem[i] = 0
		}
	} else {
		c.mem = make([]uint32, p.MemWords)
	}
	copy(c.mem, p.Data)
	c.out = c.out[:0]
	c.cycles = 0
	c.retired = 0
	c.done = false
	c.status = prog.StatusHalted
	c.recoveryNext = 0
	c.nextAtM = 0
	c.tp = p.Threaded()
	c.u = uLatches{}
	c.decodeLatches()
}

// FlipBits flips the given bits of the core's flip-flop state, numbered as
// in its ff.Space: each flips its latch word in place, and the stage
// decodes follow the flipped words.
func (c *Core) FlipBits(bits ...int) {
	for _, b := range bits {
		latches.Flip(&c.u, b)
	}
	c.decodeLatches()
}

// SpaceOf returns the core's flip-flop space.
func (c *Core) SpaceOf() *ff.Space { return c.space }

// SetCommitHook installs an architecture-level commit observer.
func (c *Core) SetCommitHook(h sim.CommitHook) { c.hook = h }

// Done reports whether the program has finished.
func (c *Core) Done() bool { return c.done }

// Cycles returns the number of cycles simulated so far.
func (c *Core) Cycles() int { return c.cycles }

// Retired returns the number of committed instructions.
func (c *Core) Retired() int64 { return c.retired }

// Output returns the output stream emitted so far.
func (c *Core) Output() []uint32 { return c.out }

// Result summarizes a finished run. Valid once Done is true (or after a
// cycle-budget cutoff, in which case callers treat it as a hang).
func (c *Core) Result() prog.Result {
	return prog.Result{Status: c.status, Output: c.out, Steps: c.cycles}
}

// Run steps the core until completion or until the cycle budget is
// exhausted; in the latter case the status is StatusMaxSteps (hang).
func (c *Core) Run(maxCycles int) prog.Result {
	for !c.done && c.cycles < maxCycles {
		c.Step()
	}
	if !c.done {
		return prog.Result{Status: prog.StatusMaxSteps, Output: c.out, Steps: c.cycles}
	}
	return c.Result()
}

// FlushRecover models micro-architectural flush recovery (paper Fig 5):
// squash every instruction that has not completed its memory access (fetch
// through the memory-stage input latch) and refetch from the recovery
// control's shadow PC. Instructions in the exception/writeback stages
// continue — errors detected after the memory write stage have escaped the
// flushable window, which is exactly why Heuristic 1 hardens those
// flip-flops with LEAP-DICE instead.
//
// Calling this immediately after a detected flip discards the corrupted
// pre-commit state; the pipeline-refill penalty (about the Table 15 flush
// latency) is paid in simulated cycles.
func (c *Core) FlushRecover() {
	u := &c.u
	u.dValid = false
	u.aValid = false
	u.eValid = false
	u.mValid = false
	u.mTrap = false
	u.fPC = c.recoveryNext
}
