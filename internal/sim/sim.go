// Package sim defines the interfaces shared by the cycle-level processor
// cores (internal/ino, internal/ooo) and consumed by the fault-injection
// engine and the architecture-level checkers.
package sim

import (
	"clear/internal/ff"
	"clear/internal/prog"
)

// CommitEvent describes one instruction retiring in program order.
// Architecture-level checkers (DFC, monitor core) observe the commit stream
// through these events — the same vantage point the hardware checkers have.
type CommitEvent struct {
	PC       uint32
	Word     uint32 // instruction encoding as committed (possibly corrupted)
	Result   uint32 // value written to the register file (if any)
	StoreVal uint32
	Addr     uint32 // effective address for loads/stores
}

// CommitHook observes retiring instructions; returning true signals that an
// architecture-level checker detected an error, ending the run with
// prog.StatusDetected.
type CommitHook func(ev CommitEvent) bool

// Checker is a commit-stream checker whose internal state is explicit, the
// only form in which the fault-injection engine takes one: it saves the
// state beside each reference checkpoint, restores it with the core,
// compares it when pruning, and copies it when forking a lane (DESIGN.md
// §6). Observe is the commit hook; an installed Observe must be the only
// thing that changes the checker's state, and that state must be a
// deterministic function of the commit events observed.
//
// This contract lets a checked campaign warm-start and prune exactly like
// an unchecked one: a run whose core state and checker state both equal the
// fault-free reference's at the same cycle shares the reference's future,
// in which the checker detects nothing. A campaign's checkers run on
// concurrent workers, so whatever copies share must be read-only.
type Checker interface {
	// Observe checks one committed instruction; true signals a detection.
	Observe(ev CommitEvent) bool
	// Clone saves the checker's state: it returns an independent checker
	// holding a copy of it. A saved checker is never observed again and is
	// safe to share read-only across goroutines.
	Clone() Checker
	// CopyFrom makes this checker's state identical to src's — loading a
	// saved state or copying a live checker. src must be a checker of the
	// same kind built for the same program.
	CopyFrom(src Checker)
	// Equal reports whether this checker's state is identical to other's.
	Equal(other Checker) bool
}

// InFlightInst describes one instruction occupying a pipeline structure at a
// clock boundary: the structure's functional-unit name (matching the unit
// strings of the core's ff.Space), the slot inside it (the entry index for
// multi-entry structures such as a reorder buffer; -1 for single-occupant
// stages), and the static instruction's PC. The fault-injection engine uses
// these observations to attribute a strike to the instruction whose state it
// corrupted (CFA-style root-cause analysis).
type InFlightInst struct {
	Unit string
	Slot int
	PC   uint32
}

// Checkpoint is a complete capture of a core's simulation state at a clock
// boundary: architectural register file, data memory, the output stream
// emitted so far, and the cycle/retired counters. Extra holds the
// core-specific rest: the core's flip-flop state, in whatever form the core
// keeps it between cycles, and any microarchitectural state outside the
// flip-flop space (e.g. predictor and cache-tag SRAMs), so that restoring a
// checkpoint reproduces the exact cycle-by-cycle future of the captured run.
//
// A Checkpoint is bound to the (core design, program) pair it was taken
// from; restoring it into a core bound to a different program is undefined.
// Checkpoints are immutable once taken and safe to share across goroutines.
type Checkpoint struct {
	Regs    [32]uint32
	Mem     []uint32
	Out     []uint32
	Cycles  int
	Retired int64
	Done    bool
	Status  prog.Status
	Extra   any // core-specific state: flip-flops and SRAM structures
}

// Core is a cycle-level processor core with flip-flop-resolution state.
// The flip-flop state is numbered bit by bit in the layout of the core's
// ff.Space, and changes from outside only through FlipBits; how the core
// holds it between cycles, and in its checkpoints, is its own.
type Core interface {
	// Reset rebinds the core to p and clears all state.
	Reset(p *prog.Program)
	// Step advances one clock cycle.
	Step()
	// Done reports whether the program has finished.
	Done() bool
	// Run steps until done or maxCycles, returning the result (a cutoff
	// reports prog.StatusMaxSteps).
	Run(maxCycles int) prog.Result
	// Result summarizes the finished run.
	Result() prog.Result
	// FlipBits flips the given bits of the flip-flop state, numbered as in
	// SpaceOf(), between two clock cycles: the soft error of fault
	// injection. Bits flipped together land in the same cycle.
	FlipBits(bits ...int)
	// SpaceOf returns the core's flip-flop space.
	SpaceOf() *ff.Space
	// Cycles returns cycles simulated so far.
	Cycles() int
	// Retired returns committed instruction count.
	Retired() int64
	// Output returns the output stream emitted so far.
	Output() []uint32
	// SetCommitHook installs an architecture-level commit observer.
	SetCommitHook(h CommitHook)
	// Snapshot captures the full simulation state at the current cycle.
	Snapshot() *Checkpoint
	// Restore rewinds the core to a previously captured checkpoint taken
	// from the same (design, program) pair. The installed commit hook is
	// left untouched; a Checker's state is restored separately.
	Restore(ck *Checkpoint)
	// Matches reports whether the core's current state is bit-for-bit
	// identical to the checkpoint, without allocating. Two identical states
	// provably share the same deterministic future.
	Matches(ck *Checkpoint) bool
	// InFlight appends one entry per instruction currently occupying a
	// pipeline structure (stage latches, buffers, queues, rename mappings)
	// to dst and returns the extended slice. It is a pure observation — the
	// simulated future is unchanged. Callers pass a reusable dst to keep the
	// injection hot path allocation-free.
	InFlight(dst []InFlightInst) []InFlightInst
}

// Divergence classes reported by GangCore.DiffFrom, ordered by detection
// priority: a diff is classified by the first group that differs, so a
// DiffState result says nothing about the aux group. A zero result means
// every group — control, latch/register state, and side state — is
// bit-for-bit identical, which carries the same guarantee as Matches: two
// identical states of a deterministic core share the same future.
const (
	// DiffCtl: execution has left the reference trajectory's control path —
	// done flag, status, cycle/retired counters, or the fetch PC differ.
	DiffCtl uint8 = 1 << iota
	// DiffState: flip-flop or register-file state differs.
	DiffState
	// DiffAux: memory, output stream, or core-specific SRAM side state
	// (predictors, cache tags) differs while control and latch state match.
	DiffAux
)

// GangCore is the optional capability the packed fault-injection engine
// (internal/inject, DESIGN.md §14) needs from a core: zero-allocation
// core-to-core state cloning to fork an injection lane off a fault-free
// carrier, and a cheap classified comparison against that carrier to detect
// reconvergence (gang pruning) and control-flow divergence (lane eviction)
// every cycle instead of only at checkpoint boundaries.
type GangCore interface {
	Core

	// CopyStateFrom makes this core's simulation state bit-for-bit
	// identical to src — the core-to-core analogue of Restore(src.Snapshot())
	// without allocating a Checkpoint. Both cores must be of the same
	// design and bound to the same program; like Restore, the installed
	// commit hook is left untouched.
	CopyStateFrom(src Core)

	// DiffFrom compares this core's full state against ref and returns the
	// first divergence class found (checked in DiffCtl, DiffState, DiffAux
	// order), or 0 when the states are identical. Like Matches it never
	// changes the simulated future.
	DiffFrom(ref Core) uint8

	// Dead reports whether a flip of bit in the core's current state can
	// never be read before it is overwritten: the bit is a payload whose
	// gate (a valid bit, a ready bit, a ring window) is closed, so no
	// field, register, memory word, SRAM entry, output, counter, status or
	// commit event is ever computed from it. Gates are never dead
	// themselves, so any set of dead bits stays dead when flipped together.
	// The answer relies on invariants a fault-free run maintains (a valid
	// issue-queue entry names a live reorder-buffer entry, say); the engine
	// asks it only of its fault-free carrier. It reads the state without
	// changing it. A core with no gated payloads returns false.
	Dead(bit int) bool
}
