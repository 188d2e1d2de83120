package ooo

import "clear/internal/ff"

// Dead payloads (sim.GangCore.Dead, DESIGN.md §14). Most of the core's
// flip-flops are payloads of a structure entry whose gate — a valid bit, a
// ready bit, a ring window — says whether anything will read them. While
// the gate is closed, every path that opens it writes the payload first,
// so a flip there is overwritten before any field, register, memory word,
// SRAM entry, output, counter, status or commit event is computed from it:
//
//	rob.{inst,pc,done,exc,val,flags}   entry outside [head, head+count)
//	rob.ptgt                           also while flags bit 1 (control) is clear
//	sched0.{inst,rob,s1rdy,s2rdy}      sched0.valid clear
//	sched0.s1tag, s2tag                also while the source's ready bit is set
//	sched0.s1val, s2val                also while the source's ready bit is clear
//	mem.stq.{rob,done}                 mem.stq.valid clear
//	mem.stq.{address,data}             also while mem.stq.done is clear
//	exec.mu0.{a,b,rob,hi} of a stage   the stage's exec.mu0.i clear
//	mem.l1dcache.access.{rob,cnt},
//	  mem.l1dcache.accessaddr0.reg     mem.l1dcache.access.valid clear
//	RF1.F2.{inst,pc,pred,ptgt}         entry outside [head, head+count)
//	rename.rat bits 5..0 (ROB index)   rename.rat bit 6 (valid) clear
//
// The rule rests on invariants of a fault-free run: valid issue-queue,
// load-unit and multiplier entries and valid rename mappings name ROB
// entries inside the window, and a store reaching commit has its queue
// entry done. TestDeadClosure checks the rule cycle by cycle against Step
// and the interpreter oracle. Gating another payload requires that every
// path opening its gate writes it, and that nothing reads it while the gate
// is closed, in both Step and interp_test.go.

// gateKind names the condition under which a payload flip-flop is dead.
type gateKind uint8

const (
	gateNone   gateKind = iota // never dead
	gateROB                    // ROB entry outside the window
	gateROBTgt                 // gateROB, or not a control instruction
	gateIQ                     // issue-queue entry invalid
	gateIQTag1                 // gateIQ, or source 1 ready
	gateIQVal1                 // gateIQ, or source 1 waiting
	gateIQTag2                 // gateIQ, or source 2 ready
	gateIQVal2                 // gateIQ, or source 2 waiting
	gateSQ                     // store-queue entry invalid
	gateSQData                 // gateSQ, or the store not yet executed
	gateMul                    // multiplier stage empty
	gateLoad                   // no load access outstanding
	gateFB                     // fetch-buffer entry outside the window
	gateRAT                    // rename mapping invalid
)

// gate is one payload bit's gate: its kind and the structure entry index.
type gate struct {
	kind gateKind
	idx  uint8
}

// deadGates maps every flip-flop of the space to its gate.
var deadGates = func() []gate {
	r := &sharedRegs
	g := make([]gate, sharedSpace.NumBits())
	set := func(k gateKind, i int, fs ...ff.Field) {
		for _, f := range fs {
			for b := f.Offset(); b < f.Offset()+f.Width(); b++ {
				g[b] = gate{k, uint8(i)}
			}
		}
	}
	for i := 0; i < RobSize; i++ {
		set(gateROB, i, r.robInst[i], r.robPC[i], r.robDone[i], r.robExc[i], r.robVal[i], r.robFlags[i])
		set(gateROBTgt, i, r.robPTgt[i])
	}
	for i := 0; i < IQSize; i++ {
		set(gateIQ, i, r.iqInst[i], r.iqRob[i], r.iqS1Rdy[i], r.iqS2Rdy[i])
		set(gateIQTag1, i, r.iqS1Tag[i])
		set(gateIQVal1, i, r.iqS1Val[i])
		set(gateIQTag2, i, r.iqS2Tag[i])
		set(gateIQVal2, i, r.iqS2Val[i])
	}
	for i := 0; i < SQSize; i++ {
		set(gateSQ, i, r.sqRob[i], r.sqDone[i])
		set(gateSQData, i, r.sqAddr[i], r.sqData[i])
	}
	for i := 0; i < 4; i++ {
		set(gateMul, i, r.muA[i], r.muB[i], r.muRob[i], r.muHi[i])
	}
	set(gateLoad, 0, r.ldRob, r.ldAddr, r.ldCnt)
	for i := 0; i < FBSize; i++ {
		set(gateFB, i, r.fbInst[i], r.fbPC[i], r.fbPred[i], r.fbPTgt[i])
	}
	for i := 0; i < 32; i++ {
		for b := r.rat[i].Offset(); b < r.rat[i].Offset()+6; b++ {
			g[b] = gate{gateRAT, uint8(i)}
		}
	}
	return g
}()

// Dead reports whether a flip of bit in the core's current state can never
// be read before it is overwritten: bit is a payload whose gate is closed
// (the table above). It reads the gate from the latch state and changes
// nothing.
func (c *Core) Dead(bit int) bool { return dead(&c.u, bit) }

// dead reports whether bit is a payload whose gate is closed in u.
func dead(u *uLatches, bit int) bool {
	g := deadGates[bit]
	return g.kind != gateNone && closed(u, g)
}

// closed reports whether gate g is closed in the latch state u.
func closed(u *uLatches, g gate) bool {
	i := int(g.idx)
	switch g.kind {
	case gateROB:
		return outside(i, u.robHead, u.robCount, RobSize)
	case gateROBTgt:
		return closed(u, gate{gateROB, g.idx}) || u.robFlags[i]&2 == 0
	case gateIQ:
		return u.iqValid>>i&1 == 0
	case gateIQTag1:
		return u.iqValid>>i&1 == 0 || u.iqS1Rdy>>i&1 != 0
	case gateIQVal1:
		return u.iqValid>>i&1 == 0 || u.iqS1Rdy>>i&1 == 0
	case gateIQTag2:
		return u.iqValid>>i&1 == 0 || u.iqS2Rdy>>i&1 != 0
	case gateIQVal2:
		return u.iqValid>>i&1 == 0 || u.iqS2Rdy>>i&1 == 0
	case gateSQ:
		return u.sqValid[i] == 0
	case gateSQData:
		return u.sqValid[i] == 0 || u.sqDone[i] == 0
	case gateMul:
		return u.muV[i] == 0
	case gateLoad:
		return u.ldValid == 0
	case gateFB:
		return outside(i, u.fbHead, u.fbCount, FBSize)
	case gateRAT:
		return u.rat[i]&0x40 == 0
	}
	return false
}

// outside reports whether slot i of a ring of n entries lies outside the
// count occupied entries starting at head (taken mod n, as the core indexes
// it). A count of n or more leaves no slot outside.
func outside(i int, head, count uint64, n int) bool {
	return count < uint64(n) && (uint64(i)+uint64(n)-head%uint64(n))%uint64(n) >= count
}
