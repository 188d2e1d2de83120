// Package tcode pre-translates assembled CRV32 programs into threaded
// code: every instruction word is decoded exactly once, at load time, into
// a DInst — the fully resolved decode product (operand registers, sign- or
// zero-extended immediate, format-derived control facts) plus per-core
// execute closures with the opcode dispatch and immediate already baked in.
// The per-cycle hot loops of internal/ino and internal/ooo then execute
// closures instead of re-running the decode switches of package isa on
// every pipeline stage of every cycle.
//
// Translation is a pure function of the 32-bit instruction word, which is
// what makes compiled execution bit-identical to the interpreter even under
// fault injection: a flipped bit in an instruction latch produces a word
// that simply misses the per-PC translation table and is compiled on demand
// (memoized in a small per-core Cache), yielding exactly the semantics
// isa.Decode plus the interpreter switches would give the corrupted word.
// The equivalence is pinned by fuzz and campaign-level tests
// (FuzzThreadedEquivalence, TestCompiledCampaignEquivalence).
//
// Compiled execution is on by default and gated by SetEnabled, which the
// equivalence tests and cmd/perfbench use to run the decode-switch
// interpreter — left untouched as the reference any suspected translation
// bug can be cross-checked against.
package tcode

import (
	"sync/atomic"

	"clear/internal/isa"
)

// enabled gates compiled execution process-wide. Cores consult it when they
// (re)bind to a program, never mid-run, so toggling affects subsequently
// reset cores only. Atomic because campaign workers construct cores
// concurrently while tests elsewhere may flip the gate.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns compiled (threaded-code) execution on or off for cores
// bound after the call. The interpreter and compiled paths are bit-identical;
// the switch exists for equivalence testing and interpreter measurements.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether cores should execute threaded code.
func Enabled() bool { return enabled.Load() }

// ExecFn is the in-order core's execute-stage semantics of one instruction:
// ALU result, store value, the Y byproduct, and trap information. It mirrors
// ino's execALU contract exactly.
type ExecFn func(op1, op2, pc uint32) (result, storeVal, y uint32, trap bool, tt uint64)

// ALUFn is the out-of-order core's single-cycle ALU semantics (loads,
// stores, multiplies and control flow run on dedicated units there). It
// mirrors ooo's execALU contract exactly.
type ALUFn func(s1, s2 uint32) (val uint32, exc bool)

// BranchFn resolves a control instruction: taken and target. It mirrors the
// cores' (identical) resolveBranch contract.
type BranchFn func(op1, op2, pc uint32) (taken bool, target uint32)

// DInst is one instruction's complete translation: the decoded form, every
// format-derived predicate the pipelines consult per cycle, and the execute
// closures. A DInst depends only on the instruction word it was compiled
// from, so translations are immutable and freely shared across cores and
// goroutines.
type DInst struct {
	In    isa.Inst
	Valid bool // In.Op.Valid()

	WritesReg bool // In.Op.WritesReg() (false for invalid opcodes)
	NeedsRs1  bool // format reads rs1
	NeedsRs2  bool // format reads rs2 (FmtR, FmtStore, FmtBranch)
	IsControl bool
	IsBranch  bool
	IsJump    bool

	Exec ExecFn   // in-order execute stage
	ALU  ALUFn    // out-of-order ALU port
	Br   BranchFn // branch resolution; nil unless IsControl
}

// Compile translates a single instruction word. It is the one place the
// decode switches run for compiled execution; everything downstream is
// field reads and closure calls.
func Compile(w uint32) DInst {
	in := isa.Decode(w)
	d := DInst{
		In:        in,
		Valid:     in.Op.Valid(),
		WritesReg: in.Op.WritesReg(),
		IsControl: in.Op.IsControl(),
		IsBranch:  in.Op.IsBranch(),
		IsJump:    in.Op.IsJump(),
	}
	switch in.Op.Fmt() {
	case isa.FmtR, isa.FmtStore, isa.FmtBranch:
		d.NeedsRs1, d.NeedsRs2 = true, true
	case isa.FmtI, isa.FmtLoad, isa.FmtJALR, isa.FmtOut:
		d.NeedsRs1 = true
	}
	d.Exec = compileExec(in)
	d.ALU = compileALU(in)
	if d.IsControl {
		d.Br = compileBranch(in)
	}
	return d
}

// Shared zero-operand closures: ops with no captured state reuse one
// package-level function, so compiling them never allocates.
var (
	execZero ExecFn = func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
		return 0, 0, 0, false, 0
	}
	aluZero ALUFn = func(s1, s2 uint32) (uint32, bool) { return 0, false }
)

// compileExec bakes the in-order execute-stage semantics of in into a
// closure. The case list mirrors ino.execALU instruction for instruction;
// ops outside the list (nop, halt, trapd, branches) fall through to zeros
// exactly as the interpreter's switch default does.
func compileExec(in isa.Inst) ExecFn {
	imm := uint32(in.Imm)
	simm := in.Imm
	switch in.Op {
	case isa.ADD:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 + op2, 0, 0, false, 0
		}
	case isa.SUB:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 - op2, 0, 0, false, 0
		}
	case isa.AND:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 & op2, 0, 0, false, 0
		}
	case isa.OR:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 | op2, 0, 0, false, 0
		}
	case isa.XOR:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 ^ op2, 0, 0, false, 0
		}
	case isa.SLL:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 << (op2 & 31), 0, 0, false, 0
		}
	case isa.SRL:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 >> (op2 & 31), 0, 0, false, 0
		}
	case isa.SRA:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return uint32(int32(op1) >> (op2 & 31)), 0, 0, false, 0
		}
	case isa.SLT:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return b2u32(int32(op1) < int32(op2)), 0, 0, false, 0
		}
	case isa.SLTU:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return b2u32(op1 < op2), 0, 0, false, 0
		}
	case isa.MUL:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			p := int64(int32(op1)) * int64(int32(op2))
			return uint32(p), 0, uint32(uint64(p) >> 32), false, 0
		}
	case isa.MULH:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			p := int64(int32(op1)) * int64(int32(op2))
			hi := uint32(uint64(p) >> 32)
			return hi, 0, hi, false, 0
		}
	case isa.DIV:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			if op2 == 0 {
				return 0, 0, 0, true, 10
			}
			return uint32(int32(op1) / int32(op2)), 0, 0, false, 0
		}
	case isa.REM:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			if op2 == 0 {
				return 0, 0, 0, true, 10
			}
			return uint32(int32(op1) % int32(op2)), 0, 0, false, 0
		}
	case isa.ADDI:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 + imm, 0, 0, false, 0
		}
	case isa.ANDI:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 & imm, 0, 0, false, 0
		}
	case isa.ORI:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 | imm, 0, 0, false, 0
		}
	case isa.XORI:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 ^ imm, 0, 0, false, 0
		}
	case isa.SLLI:
		sh := imm & 31
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 << sh, 0, 0, false, 0
		}
	case isa.SRLI:
		sh := imm & 31
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1 >> sh, 0, 0, false, 0
		}
	case isa.SRAI:
		sh := imm & 31
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return uint32(int32(op1) >> sh), 0, 0, false, 0
		}
	case isa.SLTI:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return b2u32(int32(op1) < simm), 0, 0, false, 0
		}
	case isa.LUI:
		v := imm << 16
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return v, 0, 0, false, 0
		}
	case isa.LW:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return uint32(int32(op1) + simm), 0, 0, false, 0 // effective address
		}
	case isa.SW:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return uint32(int32(op1) + simm), op2, 0, false, 0
		}
	case isa.JAL, isa.JALR:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return pc + 1, 0, 0, false, 0
		}
	case isa.OUT:
		return func(op1, op2, pc uint32) (uint32, uint32, uint32, bool, uint64) {
			return op1, 0, 0, false, 0
		}
	}
	return execZero
}

// compileALU bakes the out-of-order ALU-port semantics of in into a
// closure, mirroring ooo.execALU: multiplies, memory ops and control flow
// are absent (dedicated units handle them) and fall through to zeros.
func compileALU(in isa.Inst) ALUFn {
	imm := uint32(in.Imm)
	simm := in.Imm
	switch in.Op {
	case isa.ADD:
		return func(s1, s2 uint32) (uint32, bool) { return s1 + s2, false }
	case isa.SUB:
		return func(s1, s2 uint32) (uint32, bool) { return s1 - s2, false }
	case isa.AND:
		return func(s1, s2 uint32) (uint32, bool) { return s1 & s2, false }
	case isa.OR:
		return func(s1, s2 uint32) (uint32, bool) { return s1 | s2, false }
	case isa.XOR:
		return func(s1, s2 uint32) (uint32, bool) { return s1 ^ s2, false }
	case isa.SLL:
		return func(s1, s2 uint32) (uint32, bool) { return s1 << (s2 & 31), false }
	case isa.SRL:
		return func(s1, s2 uint32) (uint32, bool) { return s1 >> (s2 & 31), false }
	case isa.SRA:
		return func(s1, s2 uint32) (uint32, bool) { return uint32(int32(s1) >> (s2 & 31)), false }
	case isa.SLT:
		return func(s1, s2 uint32) (uint32, bool) { return b2u32(int32(s1) < int32(s2)), false }
	case isa.SLTU:
		return func(s1, s2 uint32) (uint32, bool) { return b2u32(s1 < s2), false }
	case isa.DIV:
		return func(s1, s2 uint32) (uint32, bool) {
			if s2 == 0 {
				return 0, true
			}
			return uint32(int32(s1) / int32(s2)), false
		}
	case isa.REM:
		return func(s1, s2 uint32) (uint32, bool) {
			if s2 == 0 {
				return 0, true
			}
			return uint32(int32(s1) % int32(s2)), false
		}
	case isa.ADDI:
		return func(s1, s2 uint32) (uint32, bool) { return s1 + imm, false }
	case isa.ANDI:
		return func(s1, s2 uint32) (uint32, bool) { return s1 & imm, false }
	case isa.ORI:
		return func(s1, s2 uint32) (uint32, bool) { return s1 | imm, false }
	case isa.XORI:
		return func(s1, s2 uint32) (uint32, bool) { return s1 ^ imm, false }
	case isa.SLLI:
		sh := imm & 31
		return func(s1, s2 uint32) (uint32, bool) { return s1 << sh, false }
	case isa.SRLI:
		sh := imm & 31
		return func(s1, s2 uint32) (uint32, bool) { return s1 >> sh, false }
	case isa.SRAI:
		sh := imm & 31
		return func(s1, s2 uint32) (uint32, bool) { return uint32(int32(s1) >> sh), false }
	case isa.SLTI:
		return func(s1, s2 uint32) (uint32, bool) { return b2u32(int32(s1) < simm), false }
	case isa.LUI:
		v := imm << 16
		return func(s1, s2 uint32) (uint32, bool) { return v, false }
	case isa.OUT:
		return func(s1, s2 uint32) (uint32, bool) { return s1, false }
	}
	return aluZero
}

// compileBranch bakes branch resolution into a closure, mirroring the
// cores' resolveBranch. Only control instructions receive one.
func compileBranch(in isa.Inst) BranchFn {
	imm := uint32(in.Imm)
	simm := in.Imm
	switch in.Op {
	case isa.BEQ:
		return func(op1, op2, pc uint32) (bool, uint32) { return op1 == op2, pc + imm }
	case isa.BNE:
		return func(op1, op2, pc uint32) (bool, uint32) { return op1 != op2, pc + imm }
	case isa.BLT:
		return func(op1, op2, pc uint32) (bool, uint32) { return int32(op1) < int32(op2), pc + imm }
	case isa.BGE:
		return func(op1, op2, pc uint32) (bool, uint32) { return int32(op1) >= int32(op2), pc + imm }
	case isa.BLTU:
		return func(op1, op2, pc uint32) (bool, uint32) { return op1 < op2, pc + imm }
	case isa.BGEU:
		return func(op1, op2, pc uint32) (bool, uint32) { return op1 >= op2, pc + imm }
	case isa.JAL:
		return func(op1, op2, pc uint32) (bool, uint32) { return true, pc + imm }
	case isa.JALR:
		return func(op1, op2, pc uint32) (bool, uint32) { return true, uint32(int32(op1) + simm) }
	}
	return func(op1, op2, pc uint32) (bool, uint32) { return false, pc + imm }
}

// Program is the threaded-code translation of one assembled program: the
// program text plus one DInst per word. Immutable after Translate; shared
// read-only by every core bound to the program.
type Program struct {
	Words []uint32
	ByPC  []DInst
}

// Translate compiles every word of an assembled program. Cost is linear in
// program size and paid once per (program, software-variant) pair — the
// engine's program memo hands the same *prog.Program (and therefore the
// same translation) to every campaign of a sweep.
func Translate(words []uint32) *Program {
	t := &Program{Words: words, ByPC: make([]DInst, len(words))}
	for i, w := range words {
		t.ByPC[i] = Compile(w)
	}
	return t
}

// AtPC returns the pre-translated instruction at pc when the latch word w
// matches the program text there — the uncorrupted case, hit on virtually
// every decode of a fault-free cycle. A mismatch (injected bit flip in an
// instruction or PC latch, bubble word, out-of-range fetch) returns nil and
// the caller falls back to its Cache. Because ByPC[pc] was compiled from
// Words[pc] == w, the result is a pure function of w, exactly like Compile.
func (t *Program) AtPC(pc, w uint32) *DInst {
	if uint(pc) < uint(len(t.Words)) && t.Words[pc] == w {
		return &t.ByPC[pc]
	}
	return nil
}

// cacheBits sizes the per-core fallback decode cache (direct-mapped,
// 1<<cacheBits entries). Corrupted words seen after an injection recur for
// a handful of cycles while they drain the pipeline, so even a small cache
// absorbs nearly all fallback decodes.
const cacheBits = 9

// Cache memoizes Compile for words outside (or corrupted away from) the
// per-PC translation: a direct-mapped, word-tagged table. Each core owns
// one — it is mutable and must not be shared across goroutines. Entries are
// pure functions of the word, so the cache survives Reset and program
// rebinds unchanged.
type Cache struct {
	tags [1 << cacheBits]uint32
	ents [1 << cacheBits]*DInst
}

// Decode returns the translation of w, compiling and caching on miss.
func (dc *Cache) Decode(w uint32) *DInst {
	i := (w * 2654435761) >> (32 - cacheBits)
	if d := dc.ents[i]; d != nil && dc.tags[i] == w {
		return d
	}
	d := new(DInst)
	*d = Compile(w)
	dc.tags[i] = w
	dc.ents[i] = d
	return d
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
