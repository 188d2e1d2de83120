// Package archres implements the architecture-level resilience techniques:
// DFC (data-flow checking with control-flow checking, after [Meixner 07]'s
// Argus) and the monitor/checker core (after [Austin 99]'s DIVA). Both
// observe the commit stream of a core as a sim.Checker — the same
// vantage point the hardware checkers have — so their coverage is measured,
// not assumed: DFC catches corrupted instruction identity and illegal
// control-flow edges but not corrupted data values, which is exactly why
// the paper finds it detects only ~30% of SDC/DUE-causing errors.
package archres

import (
	"slices"

	"clear/internal/isa"
	"clear/internal/power"
	"clear/internal/prog"
	"clear/internal/sim"
)

// Checker implementation versions: campaign cache tags embed these, so a
// change to a checker's detection semantics can never silently reuse stale
// campaign results (version 1 renders as an empty suffix for continuity).
const (
	DFCVersion     = 1
	MonitorVersion = 2
)

// ---- DFC: dataflow + control-flow signature checking ----

// dfc holds the checker for one run: the program's static block
// signatures, shared read-only by every copy, and the run state that
// Clone/CopyFrom/Equal save, load and compare (entered, curBlock, blockPos,
// runHash).
type dfc struct {
	p        *prog.Program
	static   []uint32 // per-block static dataflow signature
	startOf  map[int]int
	curBlock int
	blockPos int // next expected pc within the current block
	runHash  uint32
	entered  bool
}

// dataflow signature: FNV-1a over the committed instruction encodings.
func sigStep(h, word uint32) uint32 {
	h ^= word
	h *= 16777619
	return h
}

// NewDFCChecker returns a DFC+CFC checker for p in its reset state.
func NewDFCChecker(p *prog.Program) sim.Checker {
	d := &dfc{p: p, startOf: map[int]int{}}
	d.static = make([]uint32, len(p.Blocks))
	for i, blk := range p.Blocks {
		h := uint32(2166136261)
		for pc := blk.Start; pc < blk.End; pc++ {
			h = sigStep(h, isa.Encode(p.Code[pc]))
		}
		d.static[i] = h
		d.startOf[blk.Start] = i
	}
	return d
}

// NewDFC returns a commit hook implementing DFC+CFC for p. It and
// DFCHookFactory serve cmd/clearbench's checker probes.
func NewDFC(p *prog.Program) sim.CommitHook { return NewDFCChecker(p).Observe }

// DFCHookFactory returns NewDFCChecker, the checker factory of DFC
// campaigns.
func DFCHookFactory() func(*prog.Program) sim.Checker { return NewDFCChecker }

// Clone implements sim.Checker.
func (d *dfc) Clone() sim.Checker {
	c := *d
	return &c
}

// CopyFrom implements sim.Checker.
func (d *dfc) CopyFrom(src sim.Checker) {
	s := src.(*dfc)
	d.curBlock, d.blockPos, d.runHash, d.entered = s.curBlock, s.blockPos, s.runHash, s.entered
}

// Equal implements sim.Checker.
func (d *dfc) Equal(other sim.Checker) bool {
	o := other.(*dfc)
	return d.curBlock == o.curBlock && d.blockPos == o.blockPos &&
		d.runHash == o.runHash && d.entered == o.entered
}

// Observe checks one committed instruction; true means "error detected".
func (d *dfc) Observe(ev sim.CommitEvent) bool {
	pc := int(ev.PC)
	if !d.entered {
		// first commit must be the program entry
		if pc != 0 {
			return true
		}
		d.entered = true
		d.curBlock = 0
		d.blockPos = 0
		d.runHash = 2166136261
	} else if pc != d.blockPos {
		// Control transfer: legal only from the end of the current block
		// to the start of a successor block.
		if d.blockPos != d.p.Blocks[d.curBlock].End {
			return true // left the block early
		}
		nb, ok := d.startOf[pc]
		if !ok {
			return true // jumped into the middle of a block
		}
		legal := false
		for _, s := range d.p.Blocks[d.curBlock].Succs {
			if s == nb {
				legal = true
				break
			}
		}
		if !legal {
			return true
		}
		d.curBlock = nb
		d.runHash = 2166136261
	} else if bi, ok := d.startOf[pc]; ok && pc == d.p.Blocks[bi].Start && bi != d.curBlock {
		// sequential fall-through into the next block: check the edge
		legal := false
		for _, s := range d.p.Blocks[d.curBlock].Succs {
			if s == bi {
				legal = true
				break
			}
		}
		if !legal {
			return true
		}
		d.curBlock = bi
		d.runHash = 2166136261
	}

	// dataflow signature update and end-of-block check
	d.runHash = sigStep(d.runHash, ev.Word)
	d.blockPos = pc + 1
	if d.blockPos == d.p.Blocks[d.curBlock].End {
		want := d.static[d.curBlock]
		if d.runHash != want {
			return true
		}
	}
	return false
}

// DFC hardware parameters (checker signature registers and comparators),
// from the Argus-style implementation the paper costs out: the checker
// state adds ~20% flip-flops to the small in-order core but is negligible
// next to the out-of-order core.
const (
	dfcFFOverheadInO = 0.20
	dfcFFOverheadOoO = 0.018
	// Embedding static signatures costs fetch bandwidth; the paper
	// measures 6.2% (InO) / 7.1% (OoO) after delay-slot optimization.
	DFCExecImpactInO = 0.062
	DFCExecImpactOoO = 0.071
)

// DFCFFOverhead returns the flip-flop count overhead ratio for γ.
func DFCFFOverhead(core string) float64 {
	if core == "InO" {
		return dfcFFOverheadInO
	}
	return dfcFFOverheadOoO
}

// DFCCost returns DFC checker hardware + execution overheads for a core.
func DFCCost(m power.Model) power.Cost {
	ffs := int(DFCFFOverhead(m.Name) * float64(m.NumFFs))
	// comparator/signature logic roughly half the FF area again
	c := m.ExtraFFCost(ffs, float64(ffs)*0.5, float64(ffs)*0.1)
	if m.Name == "InO" {
		c.ExecTime = DFCExecImpactInO
	} else {
		c.ExecTime = DFCExecImpactOoO
	}
	// Signature fetch consumes energy beyond core power scaling.
	return c
}

// ---- Monitor core (DIVA-style checker core) ----

// monitor re-executes the committed instruction stream on shadow
// architectural state — registers AND memory, like DIVA's checker with its
// own L1 port — and flags divergence.
type monitor struct {
	p        *prog.Program
	regs     [32]uint32
	mem      []uint32
	expectPC int
	haveExp  bool
}

// NewMonitorChecker returns a DIVA-style checker core for p in its reset
// state. Its saved state is the shadow register file and memory plus the
// expected next PC.
func NewMonitorChecker(p *prog.Program) sim.Checker {
	m := &monitor{p: p, mem: make([]uint32, p.MemWords)}
	copy(m.mem, p.Data)
	return m
}

// NewMonitor returns a commit hook implementing a DIVA-style checker core
// (for cmd/clearbench's checker probes).
func NewMonitor(p *prog.Program) sim.CommitHook { return NewMonitorChecker(p).Observe }

// Clone implements sim.Checker.
func (m *monitor) Clone() sim.Checker {
	c := *m
	c.mem = append([]uint32(nil), m.mem...)
	return &c
}

// CopyFrom implements sim.Checker without allocating.
func (m *monitor) CopyFrom(src sim.Checker) {
	s := src.(*monitor)
	m.regs, m.expectPC, m.haveExp = s.regs, s.expectPC, s.haveExp
	copy(m.mem, s.mem)
}

// Equal implements sim.Checker.
func (m *monitor) Equal(other sim.Checker) bool {
	o := other.(*monitor)
	return m.regs == o.regs && m.expectPC == o.expectPC && m.haveExp == o.haveExp &&
		slices.Equal(m.mem, o.mem)
}

// Observe re-executes one committed instruction; true means "error
// detected".
func (m *monitor) Observe(ev sim.CommitEvent) bool {
	pc := int(ev.PC)
	// control-flow check: the commit stream must follow the monitor's own
	// next-PC computation
	if m.haveExp && pc != m.expectPC {
		return true
	}
	in := isa.Decode(ev.Word)
	if !in.Op.Valid() {
		return true
	}
	// instruction-identity check against program memory
	if pc < 0 || pc >= len(m.p.Code) || isa.Encode(m.p.Code[pc]) != ev.Word {
		return true
	}
	s1 := m.regs[in.Rs1]
	s2 := m.regs[in.Rs2]
	next := pc + 1
	detect := false
	switch {
	case in.Op == isa.LW:
		// re-execute the load against the checker's shadow memory
		addr := int64(int32(s1) + in.Imm)
		if addr >= 0 && addr < int64(len(m.mem)) {
			want := m.mem[addr]
			if want != ev.Result {
				detect = true
			}
			m.regs[in.Rd] = want
		} else {
			// the main core should have trapped; a committed OOB load is
			// itself an error
			detect = true
			m.regs[in.Rd] = ev.Result
		}
	case in.Op == isa.SW:
		addr := int64(int32(s1) + in.Imm)
		if uint32(addr) != ev.Addr || s2 != ev.StoreVal {
			detect = true
		}
		if addr >= 0 && addr < int64(len(m.mem)) {
			m.mem[addr] = s2
		}
	case in.Op == isa.OUT:
		if s1 != ev.Result {
			detect = true
		}
	case in.Op.IsBranch():
		taken := false
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
		}
		if taken {
			next = pc + int(in.Imm)
		}
	case in.Op == isa.JAL:
		m.regs[in.Rd] = uint32(pc + 1)
		next = pc + int(in.Imm)
	case in.Op == isa.JALR:
		m.regs[in.Rd] = uint32(pc + 1)
		next = int(int32(s1) + in.Imm)
	case in.Op == isa.HALT || in.Op == isa.TRAPD || in.Op == isa.NOP:
	default:
		// re-execute ALU work and compare with the main core's result
		want, ok := reexec(in, s1, s2)
		if ok && want != ev.Result {
			detect = true
		}
		if in.Op.WritesReg() && in.Rd != 0 {
			m.regs[in.Rd] = want
		}
	}
	m.regs[0] = 0
	m.expectPC = next
	m.haveExp = true
	return detect
}

// reexec recomputes an ALU result; ok is false for ops the monitor defers.
func reexec(in isa.Inst, s1, s2 uint32) (uint32, bool) {
	switch in.Op {
	case isa.ADD:
		return s1 + s2, true
	case isa.SUB:
		return s1 - s2, true
	case isa.AND:
		return s1 & s2, true
	case isa.OR:
		return s1 | s2, true
	case isa.XOR:
		return s1 ^ s2, true
	case isa.SLL:
		return s1 << (s2 & 31), true
	case isa.SRL:
		return s1 >> (s2 & 31), true
	case isa.SRA:
		return uint32(int32(s1) >> (s2 & 31)), true
	case isa.SLT:
		if int32(s1) < int32(s2) {
			return 1, true
		}
		return 0, true
	case isa.SLTU:
		if s1 < s2 {
			return 1, true
		}
		return 0, true
	case isa.MUL:
		return uint32(int64(int32(s1)) * int64(int32(s2))), true
	case isa.MULH:
		return uint32(uint64(int64(int32(s1))*int64(int32(s2))) >> 32), true
	case isa.DIV:
		if s2 == 0 {
			return 0, false
		}
		return uint32(int32(s1) / int32(s2)), true
	case isa.REM:
		if s2 == 0 {
			return 0, false
		}
		return uint32(int32(s1) % int32(s2)), true
	case isa.ADDI:
		return s1 + uint32(in.Imm), true
	case isa.ANDI:
		return s1 & uint32(in.Imm), true
	case isa.ORI:
		return s1 | uint32(in.Imm), true
	case isa.XORI:
		return s1 ^ uint32(in.Imm), true
	case isa.SLLI:
		return s1 << (uint32(in.Imm) & 31), true
	case isa.SRLI:
		return s1 >> (uint32(in.Imm) & 31), true
	case isa.SRAI:
		return uint32(int32(s1) >> (uint32(in.Imm) & 31)), true
	case isa.SLTI:
		if int32(s1) < in.Imm {
			return 1, true
		}
		return 0, true
	case isa.LUI:
		return uint32(in.Imm) << 16, true
	}
	return 0, false
}

// Monitor-core hardware parameters: the checker core plus its lag buffer
// add ~38% flip-flops to the OoO design (the paper's γ = 1.38), and cost
// ~9% area / 16.3% power (Table 3); the buffer depth bounds detection
// latency at 128 cycles.
const (
	MonitorFFOverhead = 0.38
	MonitorLatency    = 128
	MonitorClockMHz   = 2000
	MonitorIPC        = 0.7
)

// MonitorCost returns the monitor core's hardware cost on the main core.
func MonitorCost(m power.Model) power.Cost {
	ffs := int(MonitorFFOverhead * float64(m.NumFFs))
	// The checker is a complete datapath (ALUs, regfile port, cache port)
	// validating every committed instruction: its combinational logic is a
	// multiple of its flip-flop budget and it is never idle.
	return m.ExtraFFCost(ffs, float64(ffs)*2.65, float64(ffs)*2.7)
}

// MonitorStallsMain reports whether the monitor core would stall the main
// core: it must retire at least the main core's commit throughput.
// (Table 9: a 2 GHz, IPC 0.7 checker against a 600 MHz, IPC~1.3 core.)
func MonitorStallsMain(mainClockMHz, mainIPC float64) bool {
	return MonitorClockMHz/mainClockMHz*MonitorIPC < mainIPC
}
