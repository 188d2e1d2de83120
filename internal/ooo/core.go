package ooo

import (
	"clear/internal/ff"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/tcode"
)

const illegalWord = 0xFFFFFFFF

// Core is an instance of the out-of-order core bound to a program.
type Core struct {
	space *ff.Space

	program *prog.Program
	arf     [32]uint32 // architectural register file (RAM: not injected)
	mem     []uint32
	out     []uint32

	// predictor and cache metadata (SRAM structures: not injected)
	btbTag   [btbSize]uint32
	btbTgt   [btbSize]uint32
	btbValid [btbSize]bool
	gshare   [gshareSize]uint8
	cacheTag [CacheLines]uint32
	cacheVld [CacheLines]bool

	cycles  int
	retired int64
	done    bool
	status  prog.Status

	// tp is the program's threaded-code translation, which Step executes;
	// dcache memoizes decodes of words that miss the per-PC translation
	// (corrupted state, out-of-range fetch words).
	tp     *tcode.Program
	dcache tcode.Cache

	// u is the core's flip-flop state, one machine word per field
	// (unpacked.go), which Step runs on, checkpoints carry and FlipBits
	// strikes in place.
	u uLatches

	hook sim.CommitHook
}

var _ sim.Core = (*Core)(nil)

// New returns an OoO core reset to run p.
func New(p *prog.Program) *Core {
	c := &Core{space: sharedSpace}
	c.Reset(p)
	return c
}

// Reset rebinds the core to p and clears all state.
func (c *Core) Reset(p *prog.Program) {
	c.program = p
	c.u = uLatches{}
	c.arf = [32]uint32{}
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
	c.btbTag = [btbSize]uint32{}
	c.btbTgt = [btbSize]uint32{}
	c.btbValid = [btbSize]bool{}
	c.gshare = [gshareSize]uint8{}
	c.cacheTag = [CacheLines]uint32{}
	c.cacheVld = [CacheLines]bool{}
	c.cycles = 0
	c.retired = 0
	c.done = false
	c.status = prog.StatusHalted
	c.tp = p.Threaded()
}

// FlipBits flips the given bits of the core's flip-flop state, numbered as
// in its ff.Space: each flips its latch word in place.
func (c *Core) FlipBits(bits ...int) {
	for _, b := range bits {
		latches.Flip(&c.u, b)
	}
}

// SpaceOf returns the core's flip-flop space.
func (c *Core) SpaceOf() *ff.Space { return c.space }

// SetCommitHook installs an architecture-level commit observer.
func (c *Core) SetCommitHook(h sim.CommitHook) { c.hook = h }

// Done reports whether the program has finished.
func (c *Core) Done() bool { return c.done }

// Cycles returns cycles simulated so far.
func (c *Core) Cycles() int { return c.cycles }

// Retired returns committed instruction count.
func (c *Core) Retired() int64 { return c.retired }

// Output returns the output stream emitted so far.
func (c *Core) Output() []uint32 { return c.out }

// Result summarizes a finished run.
func (c *Core) Result() prog.Result {
	return prog.Result{Status: c.status, Output: c.out, Steps: c.cycles}
}

// Run steps the core until completion or the cycle budget.
func (c *Core) Run(maxCycles int) prog.Result {
	for !c.done && c.cycles < maxCycles {
		c.Step()
	}
	if !c.done {
		return prog.Result{Status: prog.StatusMaxSteps, Output: c.out, Steps: c.cycles}
	}
	return c.Result()
}

// age returns the distance of ROB index i from the current head; smaller is
// older. Under corrupted pointers this degrades gracefully (mod arithmetic).
func (c *Core) age(head, i uint64) uint64 {
	return (i - head + RobSize) % RobSize
}

// readyEntry describes an issue-queue entry eligible for selection.
type readyEntry struct {
	iq  int
	age uint64
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
