package ino

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

// This file keeps the in-order core's decode-switch interpreter: the
// pipeline stepped directly on the packed ff.State, re-decoding every latch
// with isa.Decode and executing through the switches below. It shares no
// execution code with Step (threaded.go), which makes it an independent
// oracle: the equivalence tests at the end of this file step an interpreter
// twin in lockstep with a compiled core. The twin's state lives where the
// compiled core's does, so Snapshot, Restore, Matches and FlipBits treat
// both alike: stepInterp packs it into the twin's image st (an imaged
// core, unpacked_test.go), interprets one cycle there and unpacks the
// result. The oracle keeps its own packed-state InFlight and FlushRecover
// (inFlightInterp, flushRecoverInterp), which the tests compare the
// compiled core's against.

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
	dst = append(dst, sim.InFlightInst{Unit: "fetch", Slot: -1, PC: uint32(r.fPC.Get(st))})
	if r.dValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "decode", Slot: -1, PC: uint32(r.dPC.Get(st))})
	}
	if r.aValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "regacc", Slot: -1, PC: uint32(r.aPC.Get(st))})
	}
	if r.eValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "execute", Slot: -1, PC: uint32(r.ePC.Get(st))})
	}
	if r.mValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "memory", Slot: -1, PC: uint32(r.mPC.Get(st))})
	}
	if r.xValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "exception", Slot: -1, PC: uint32(r.xPC.Get(st))})
	}
	if r.wValid.Get(st) == 1 {
		dst = append(dst, sim.InFlightInst{Unit: "write", Slot: -1, PC: uint32(r.wPC.Get(st))})
	}
	return dst
}

// flushRecoverInterp is FlushRecover applied to the packed image.
func (c *imaged) flushRecoverInterp() {
	c.packU()
	st := c.st
	r := &sharedRegs
	r.dValid.Set(st, 0)
	r.aValid.Set(st, 0)
	r.eValid.Set(st, 0)
	r.mValid.Set(st, 0)
	r.mTrap.Set(st, 0)
	r.fPC.Set(st, uint64(c.recoveryNext))
	c.unpackU()
}

// stepPacked advances the pipeline of the packed image st by one clock
// cycle.
func (c *imaged) stepPacked() {
	if c.done {
		return
	}
	c.cycles++
	st := c.st
	r := &sharedRegs

	// ---- Snapshot current latches (the "clock edge" read). ----
	fPC := uint32(r.fPC.Get(st))

	dInst := uint32(r.dInst.Get(st))
	dPC := uint32(r.dPC.Get(st))
	dValid := r.dValid.Get(st) == 1

	aInstW := uint32(r.aInst.Get(st))
	aPC := uint32(r.aPC.Get(st))
	aValid := r.aValid.Get(st) == 1
	aRs1 := uint8(r.aRs1.Get(st))
	aRs2 := uint8(r.aRs2.Get(st))

	eInstW := uint32(r.eInst.Get(st))
	ePC := uint32(r.ePC.Get(st))
	eValid := r.eValid.Get(st) == 1
	eOp1 := uint32(r.eOp1.Get(st))
	eOp2 := uint32(r.eOp2.Get(st))

	mInstW := uint32(r.mInst.Get(st))
	mPC := uint32(r.mPC.Get(st))
	mValid := r.mValid.Get(st) == 1
	mResult := uint32(r.mResult.Get(st))
	mStoreVal := uint32(r.mStoreVal.Get(st))
	mTrap := r.mTrap.Get(st) == 1
	mICC := r.mICC.Get(st)
	mY := uint32(r.mY.Get(st))

	xInstW := uint32(r.xInst.Get(st))
	xPC := uint32(r.xPC.Get(st))
	xValid := r.xValid.Get(st) == 1
	xResult := uint32(r.xResult.Get(st))
	xTrap := r.xTrap.Get(st) == 1
	xTT := r.xTT.Get(st)
	xICC := r.xICC.Get(st)
	xAddr := uint32(r.xAddr.Get(st))
	xStoreVal := uint32(r.xStoreVal.Get(st))

	wInstW := uint32(r.wInst.Get(st))
	wPC := uint32(r.wPC.Get(st))
	wValid := r.wValid.Get(st) == 1
	wResult := uint32(r.wResult.Get(st))
	wTrap := r.wTrap.Get(st) == 1
	wAddr := uint32(r.wAddr.Get(st))
	wStoreVal := uint32(r.wStoreVal.Get(st))

	eInst := isa.Decode(eInstW)
	mInst := isa.Decode(mInstW)
	xInst := isa.Decode(xInstW)
	wInst := isa.Decode(wInstW)
	aInst := isa.Decode(aInstW)

	// ---- W: writeback / commit. ----
	if wValid {
		c.retired++
		if wTrap || !wInst.Op.Valid() {
			c.done = true
			c.status = prog.StatusTrap
			r.wSTT.Set(st, r.wTT.Get(st)) // trap type to status reg
			return
		}
		switch wInst.Op {
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
			if wInst.Op.WritesReg() && wInst.Rd != 0 {
				c.regfile[wInst.Rd] = wResult
			}
		}
		// Status-register side effects (condition codes, Y): architectural
		// state that these workloads never read back.
		r.wSICC.Set(st, xICC)
		if wInst.Op == isa.MULH {
			r.wSY.Set(st, uint64(wResult))
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
	r.wInst.Set(st, uint64(xInstW))
	r.wPC.Set(st, uint64(xPC))
	r.wValid.Set(st, b2u(xValid))
	r.wResult.Set(st, uint64(xResult))
	r.wTrap.Set(st, b2u(xTrap))
	r.wTT.Set(st, xTT)
	r.wAddr.Set(st, uint64(xAddr))
	r.wStoreVal.Set(st, uint64(xStoreVal))
	r.wSCWP.Set(st, r.eCWP.Get(st)) // window pointer shadow (unused)

	// ---- M: memory access. ----
	{
		if mValid {
			// the instruction in M completes its access this cycle: it is
			// now beyond the flush-recovery window
			c.recoveryNext = c.nextAtM
		}
		trap := mTrap
		tt := r.mTT.Get(st)
		result := mResult
		addr := mResult
		if mValid && !trap && mInst.Op.Valid() {
			switch mInst.Op {
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
		r.xInst.Set(st, uint64(mInstW))
		r.xPC.Set(st, uint64(mPC))
		r.xValid.Set(st, b2u(mValid))
		r.xResult.Set(st, uint64(result))
		r.xTrap.Set(st, b2u(trap))
		r.xTT.Set(st, tt)
		r.xICC.Set(st, mICC)
		r.xY.Set(st, uint64(mY))
		r.xAddr.Set(st, uint64(addr))
		r.xStoreVal.Set(st, uint64(mStoreVal))
		r.xNPC.Set(st, uint64(mPC+1))
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
		if mValid && mInst.Op.Valid() && mInst.Op.WritesReg() && mInst.Rd == idx {
			return mResult
		}
		if xValid && xInst.Op.Valid() && xInst.Op.WritesReg() && xInst.Rd == idx {
			return xResult
		}
		if wValid && wInst.Op.Valid() && wInst.Op.WritesReg() && wInst.Rd == idx {
			return wResult
		}
		return raw
	}

	{
		trap := false
		var tt uint64
		var result, storeVal uint32
		var y uint32
		icc := uint64(0)
		if eValid {
			if !eInst.Op.Valid() {
				trap = true
				tt = 2 // illegal instruction
			} else {
				op1 := forward(eInst.Rs1, eOp1)
				op2raw := eOp2
				var op2 uint32
				switch eInst.Op.Fmt() {
				case isa.FmtR, isa.FmtStore, isa.FmtBranch:
					op2 = forward(eInst.Rs2, op2raw)
				default:
					op2 = op2raw
				}
				result, storeVal, y, trap, tt = execALU(eInst, op1, op2, ePC)
				if !trap && eInst.Op.IsControl() {
					taken, target := resolveBranch(eInst, op1, op2, ePC)
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
		r.mInst.Set(st, uint64(eInstW))
		r.mPC.Set(st, uint64(ePC))
		r.mValid.Set(st, b2u(eValid))
		r.mResult.Set(st, uint64(result))
		r.mStoreVal.Set(st, uint64(storeVal))
		r.mTrap.Set(st, b2u(trap))
		r.mTT.Set(st, tt)
		r.mY.Set(st, uint64(y))
		r.mICC.Set(st, icc)
	}

	// ---- A: register access + load-use interlock. ----
	// Stall when the instruction entering execute needs a register that the
	// load currently in execute will only produce at the end of memory.
	if aValid && eValid && eInst.Op == isa.LW && eInst.Rd != 0 {
		n1, n2 := needsRs(aInst.Op)
		if (n1 && aInst.Rs1 == eInst.Rd) || (n2 && aInst.Rs2 == eInst.Rd) {
			stall = true
		}
	}

	if redirect || !stall {
		valid := aValid && !redirect
		r.eInst.Set(st, uint64(aInstW))
		r.ePC.Set(st, uint64(aPC))
		r.eValid.Set(st, b2u(valid))
		r.eOp1.Set(st, uint64(c.regfile[aRs1]))
		r.eOp2.Set(st, uint64(c.regfile[aRs2]))
		r.eY.Set(st, r.mY.Get(st))
		r.eCWP.Set(st, r.aCWP.Get(st))
	} else {
		// Bubble into execute; hold younger stages.
		r.eValid.Set(st, 0)
	}

	// ---- D: decode. ----
	if redirect {
		r.aValid.Set(st, 0)
	} else if !stall {
		in := isa.Decode(dInst)
		r.aInst.Set(st, uint64(dInst))
		r.aPC.Set(st, uint64(dPC))
		r.aValid.Set(st, b2u(dValid))
		r.aRs1.Set(st, uint64(in.Rs1))
		r.aRs2.Set(st, uint64(in.Rs2))
	}

	// ---- F: fetch. ----
	if redirect {
		r.dValid.Set(st, 0)
		r.fPC.Set(st, uint64(redirectPC))
	} else if !stall {
		var word uint32 = illegalWord
		if int(fPC) < len(c.program.Words) {
			word = c.program.Words[fPC]
		}
		r.dInst.Set(st, uint64(word))
		r.dPC.Set(st, uint64(fPC))
		r.dValid.Set(st, 1)
		r.fPC.Set(st, uint64(fPC+1))
	}
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

// execALU computes the execute-stage result for in. It returns the ALU
// result, the store value, the Y byproduct, and trap information.
func execALU(in isa.Inst, op1, op2, pc uint32) (result, storeVal, y uint32, trap bool, tt uint64) {
	switch in.Op {
	case isa.ADD:
		result = op1 + op2
	case isa.SUB:
		result = op1 - op2
	case isa.AND:
		result = op1 & op2
	case isa.OR:
		result = op1 | op2
	case isa.XOR:
		result = op1 ^ op2
	case isa.SLL:
		result = op1 << (op2 & 31)
	case isa.SRL:
		result = op1 >> (op2 & 31)
	case isa.SRA:
		result = uint32(int32(op1) >> (op2 & 31))
	case isa.SLT:
		result = b2u32(int32(op1) < int32(op2))
	case isa.SLTU:
		result = b2u32(op1 < op2)
	case isa.MUL:
		p := int64(int32(op1)) * int64(int32(op2))
		result = uint32(p)
		y = uint32(uint64(p) >> 32)
	case isa.MULH:
		p := int64(int32(op1)) * int64(int32(op2))
		result = uint32(uint64(p) >> 32)
		y = result
	case isa.DIV:
		if op2 == 0 {
			return 0, 0, 0, true, 10
		}
		result = uint32(int32(op1) / int32(op2))
	case isa.REM:
		if op2 == 0 {
			return 0, 0, 0, true, 10
		}
		result = uint32(int32(op1) % int32(op2))
	case isa.ADDI:
		result = op1 + uint32(in.Imm)
	case isa.ANDI:
		result = op1 & uint32(in.Imm)
	case isa.ORI:
		result = op1 | uint32(in.Imm)
	case isa.XORI:
		result = op1 ^ uint32(in.Imm)
	case isa.SLLI:
		result = op1 << (uint32(in.Imm) & 31)
	case isa.SRLI:
		result = op1 >> (uint32(in.Imm) & 31)
	case isa.SRAI:
		result = uint32(int32(op1) >> (uint32(in.Imm) & 31))
	case isa.SLTI:
		result = b2u32(int32(op1) < in.Imm)
	case isa.LUI:
		result = uint32(in.Imm) << 16
	case isa.LW:
		result = uint32(int32(op1) + in.Imm) // effective address
	case isa.SW:
		result = uint32(int32(op1) + in.Imm)
		storeVal = op2
	case isa.JAL, isa.JALR:
		result = pc + 1
	case isa.OUT:
		result = op1
	}
	return result, storeVal, y, trap, tt
}

// resolveBranch decides taken/target for control instructions at execute.
func resolveBranch(in isa.Inst, op1, op2, pc uint32) (taken bool, target uint32) {
	switch in.Op {
	case isa.BEQ:
		taken = op1 == op2
	case isa.BNE:
		taken = op1 != op2
	case isa.BLT:
		taken = int32(op1) < int32(op2)
	case isa.BGE:
		taken = int32(op1) >= int32(op2)
	case isa.BLTU:
		taken = op1 < op2
	case isa.BGEU:
		taken = op1 >= op2
	case isa.JAL:
		return true, pc + uint32(in.Imm)
	case isa.JALR:
		return true, uint32(int32(op1) + in.Imm)
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

// mirrorFieldBits returns the flip-flop bits of a few pipeline latches;
// flips there exercise FlipBits on fields Step reads, rather than on
// arbitrary bits.
func mirrorFieldBits(t testing.TB) []int {
	t.Helper()
	var bits []int
	for _, n := range []string{"e.op1", "e.ctrl.inst", "w.s.icc"} {
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
// register file, memory, output, status and flush-recovery shadows —
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
// identity Restore, a flip targeted into a pipeline latch, and InFlight
// and FlushRecover against the oracle's packed-state versions.
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
				ci.flushRecoverInterp()
				ct.FlushRecover()
				requireSameInFlight(t, ci, ct, what+" after FlushRecover")
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
// bit flips into pipeline latches, and FlushRecover — and requires the
// interpreter twin never to diverge, nor InFlight from the oracle's.
func TestMirrorObservationBoundaries(t *testing.T) {
	p := tinyProgram(t)
	ci, ct := newImaged(p), newImaged(p)
	mirrorBits := mirrorFieldBits(t)
	const maxCycles = 400
	for cyc := 1; cyc <= maxCycles && !ci.done; cyc++ {
		ci.stepInterp()
		ct.Step()
		requireLockstep(t, ci, ct, false, "walk")
		requireSameInFlight(t, ci, ct, "walk")
		switch {
		case cyc%32 == 0: // snapshot + identity restore
			ckI, ckT := ci.Snapshot(), ct.Snapshot()
			if !ct.Matches(ckI) {
				t.Fatalf("cycle %d: compiled core does not match interpreter snapshot", cyc)
			}
			if !ci.Matches(ckT) {
				t.Fatalf("cycle %d: interpreter does not match compiled snapshot", cyc)
			}
			ci.Restore(ckI)
			ct.Restore(ckT)
		case cyc%13 == 0: // inject into a pipeline latch mid-run
			mb := mirrorBits[(cyc/13)%len(mirrorBits)]
			ci.FlipBits(mb)
			ct.FlipBits(mb)
		case cyc%47 == 0: // flush recovery mid-run
			ci.flushRecoverInterp()
			ct.FlushRecover()
		}
	}
	requireSameEnd(t, ci, ct, "walk")
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
