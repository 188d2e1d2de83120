// Package prog represents executable CRV32 programs: assembled code, the
// initial data-memory image, golden outputs, named program variables (used
// by program-variable-level fault injection), and basic-block structure
// (used by control-flow/dataflow signature checkers).
package prog

import (
	"fmt"
	"sort"
	"sync"

	"clear/internal/isa"
	"clear/internal/tcode"
)

// Var names a program variable's location in data memory, so the harness can
// reproduce the paper's program-variable-level injection modes (varU/varW).
type Var struct {
	Name string
	Addr int // first word address
	Len  int // length in words
}

// Block is a basic block of the assembled program. Sig is the static
// control-flow signature assigned to the block (used by CFCSS and DFC).
type Block struct {
	Start int // pc of first instruction
	End   int // pc one past the last instruction
	Succs []int
	Sig   uint32
}

// Program is an assembled CRV32 program plus everything the evaluation
// harness needs to judge a run.
type Program struct {
	Name     string
	Items    []isa.Item // symbolic form, kept for software transforms
	Code     []isa.Inst
	Words    []uint32
	Labels   map[string]int
	Data     []uint32 // initial data image, loaded at address 0
	MemWords int      // total data memory size in words
	Expected []uint32 // golden output stream
	Vars     []Var
	Blocks   []Block

	// threaded-code translation of Words, built on first use. Words is
	// assigned once at assembly time and never mutated, so the translation
	// can never go stale.
	tcOnce sync.Once
	tc     *tcode.Program
}

// Threaded returns the program's threaded-code translation, compiling it on
// first call. The translation is memoized on the Program, so everything that
// shares a *Program — notably every campaign of a sweep, via core.Engine's
// per-(benchmark, variant) program memo — pays translation exactly once.
func (p *Program) Threaded() *tcode.Program {
	p.tcOnce.Do(func() { p.tc = tcode.Translate(p.Words) })
	return p.tc
}

// New assembles items into a Program. MemWords must cover the data image.
// Expected output is left nil; callers either set it directly or derive it
// with ComputeExpected.
func New(name string, items []isa.Item, data []uint32, memWords int) (*Program, error) {
	code, labels, err := isa.Assemble(items)
	if err != nil {
		return nil, fmt.Errorf("prog %s: %w", name, err)
	}
	if memWords < len(data) {
		return nil, fmt.Errorf("prog %s: memWords %d < data image %d", name, memWords, len(data))
	}
	p := &Program{
		Name:     name,
		Items:    items,
		Code:     code,
		Words:    isa.EncodeAll(code),
		Labels:   labels,
		Data:     data,
		MemWords: memWords,
	}
	p.Blocks = findBlocks(code)
	return p, nil
}

// ComputeExpected runs the program functionally and records its output as the
// golden reference. It returns an error if the program does not terminate
// normally within maxSteps.
func (p *Program) ComputeExpected(maxSteps int) error {
	res := Run(p, maxSteps)
	if res.Status != StatusHalted {
		return fmt.Errorf("prog %s: golden run ended with %v after %d steps", p.Name, res.Status, res.Steps)
	}
	p.Expected = res.Output
	return nil
}

// BlockOf returns the index of the basic block containing pc, or -1.
func (p *Program) BlockOf(pc int) int {
	i := sort.Search(len(p.Blocks), func(i int) bool { return p.Blocks[i].End > pc })
	if i < len(p.Blocks) && pc >= p.Blocks[i].Start {
		return i
	}
	return -1
}

// findBlocks partitions code into basic blocks and assigns each a distinct
// static signature. Successors of a block ending in JALR are unknown (empty).
func findBlocks(code []isa.Inst) []Block {
	if len(code) == 0 {
		return nil
	}
	leader := make([]bool, len(code)+1)
	leader[0] = true
	for pc, in := range code {
		switch {
		case in.Op.IsBranch():
			t := pc + int(in.Imm)
			if t >= 0 && t < len(code) {
				leader[t] = true
			}
			leader[pc+1] = true
		case in.Op == isa.JAL:
			t := pc + int(in.Imm)
			if t >= 0 && t < len(code) {
				leader[t] = true
			}
			leader[pc+1] = true
		case in.Op == isa.JALR || in.Op == isa.HALT || in.Op == isa.TRAPD:
			leader[pc+1] = true
		}
	}
	var blocks []Block
	start := 0
	for pc := 1; pc <= len(code); pc++ {
		if leader[pc] {
			blocks = append(blocks, Block{Start: start, End: pc})
			start = pc
		}
	}
	// Assign signatures: a simple multiplicative hash of the block index
	// keeps signatures distinct and well-spread.
	startIdx := make(map[int]int, len(blocks))
	for i := range blocks {
		blocks[i].Sig = uint32(i+1) * 2654435761
		startIdx[blocks[i].Start] = i
	}
	for i := range blocks {
		last := blocks[i].End - 1
		in := code[last]
		addSucc := func(pc int) {
			if j, ok := startIdx[pc]; ok {
				blocks[i].Succs = append(blocks[i].Succs, j)
			}
		}
		switch {
		case in.Op.IsBranch():
			addSucc(last + int(in.Imm))
			addSucc(last + 1)
		case in.Op == isa.JAL:
			addSucc(last + int(in.Imm))
		case in.Op == isa.JALR, in.Op == isa.HALT, in.Op == isa.TRAPD:
			// unknown or none
		default:
			addSucc(blocks[i].End)
		}
	}
	return blocks
}
