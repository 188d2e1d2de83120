// Package inject is the fault-injection engine: at uniformly sampled
// (flip-flop, cycle) points it flips the flip-flops a fault model says one
// strike upsets while a core runs an application benchmark, classifies
// each run's outcome, and aggregates per-flip-flop vulnerability
// statistics.
//
// Outcome classes follow the paper (Sec 2.1):
//
//	Vanished — normal termination, outputs match the error-free run
//	OMM      — normal termination, outputs differ (SDC-causing)
//	UT       — abnormal termination (DUE-causing)
//	Hang     — no termination within 2x nominal cycles (DUE-causing)
//	ED       — a resilience technique flagged the error (DUE-causing when
//	           no recovery is attached)
package inject

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// Outcome is the classification of a single injection run.
type Outcome int

// Injection outcome classes.
const (
	Vanished Outcome = iota
	OMM
	UT
	Hang
	ED
	numOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Vanished:
		return "Vanished"
	case OMM:
		return "OMM"
	case UT:
		return "UT"
	case Hang:
		return "Hang"
	case ED:
		return "ED"
	}
	return "?"
}

// CoreKind selects which processor design is injected.
type CoreKind int

// The two processor designs studied.
const (
	InO CoreKind = iota
	OoO
)

func (k CoreKind) String() string {
	if k == InO {
		return "InO"
	}
	return "OoO"
}

// NewCore instantiates a fresh core of the given kind bound to p.
func NewCore(k CoreKind, p *prog.Program) sim.Core {
	if k == InO {
		return ino.New(p)
	}
	return ooo.New(p)
}

// SpaceBits returns the flip-flop count of a core kind.
func SpaceBits(k CoreKind) int {
	if k == InO {
		return ino.Space().NumBits()
	}
	return ooo.Space().NumBits()
}

// HangFactor is the hang cutoff multiplier over nominal execution time
// (the paper uses 2x).
const HangFactor = 2

// Classify maps a finished run to an outcome class.
func Classify(p *prog.Program, res prog.Result) Outcome {
	switch res.Status {
	case prog.StatusHalted:
		if p.OutputsEqual(res.Output) {
			return Vanished
		}
		return OMM
	case prog.StatusTrap:
		return UT
	case prog.StatusDetected:
		return ED
	default:
		return Hang
	}
}

// classifyRun classifies a finished run and reports the cycle a detection
// fired at (-1 unless the outcome is ED).
func classifyRun(p *prog.Program, res prog.Result) (Outcome, int) {
	if out := Classify(p, res); out != ED {
		return out, -1
	}
	return ED, res.Steps
}

// Counts aggregates outcome tallies.
type Counts struct {
	N        int
	Vanished int
	OMM      int
	UT       int
	Hang     int
	ED       int
}

// Add accumulates one outcome.
func (c *Counts) Add(o Outcome) {
	c.N++
	switch o {
	case Vanished:
		c.Vanished++
	case OMM:
		c.OMM++
	case UT:
		c.UT++
	case Hang:
		c.Hang++
	case ED:
		c.ED++
	}
}

// Merge accumulates other into c.
func (c *Counts) Merge(other Counts) {
	c.N += other.N
	c.Vanished += other.Vanished
	c.OMM += other.OMM
	c.UT += other.UT
	c.Hang += other.Hang
	c.ED += other.ED
}

// SDC returns the count of SDC-causing errors (output mismatches).
func (c Counts) SDC() int { return c.OMM }

// DUE returns the count of DUE-causing errors (UT + Hang + ED).
func (c Counts) DUE() int { return c.UT + c.Hang + c.ED }

// FFStats is the per-flip-flop outcome tally of a campaign.
type FFStats struct {
	N    uint16 // samples on this flip-flop
	OMM  uint16
	UT   uint16
	Hang uint16
	ED   uint16
}

// SDCFrac returns the fraction of errors in this flip-flop causing SDC.
func (f FFStats) SDCFrac() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.OMM) / float64(f.N)
}

// DUEFrac returns the fraction of errors in this flip-flop causing DUE.
func (f FFStats) DUEFrac() float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.UT+f.Hang+f.ED) / float64(f.N)
}

// Config describes an injection campaign: a (core, program) pair plus
// sampling parameters. Tag distinguishes campaigns whose behavior differs
// through a commit hook or transformed program (e.g. "dfc", "eddi").
type Config struct {
	Core         CoreKind
	Bench        string
	Tag          string
	SamplesPerFF int
	Seed         uint64
}

// Result is a completed campaign: per-flip-flop statistics over uniform
// (flip-flop, cycle) samples.
type Result struct {
	Config    Config
	NomCycles int
	NomRet    int64 // retired instructions in the nominal run
	PerFF     []FFStats
	Totals    Counts
	// Detection latency statistics over ED outcomes (cycles from injection
	// to detection).
	DetLatSum int64
	DetN      int64
}

// SDCCount and DUECount report campaign-wide outcome totals.
func (r *Result) SDCCount() int { return r.Totals.SDC() }

// DUECount reports total DUE-causing errors in the campaign.
func (r *Result) DUECount() int { return r.Totals.DUE() }

// splitmix64 provides deterministic per-sample randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nomBudget is the cycle budget of a campaign's nominal (fault-free) run.
const nomBudget = 8_000_000

// Run executes a campaign: SamplesPerFF uniform-random cycles for every
// flip-flop bit of the strike population. The program may be a transformed
// (software-protected) variant; hookFactory attaches an architecture-level
// checker. A "<model>/" prefix on cfg.Tag selects a registered fault model
// (mbu, uncore, set — see model.go); the unprefixed form is the paper's
// single-bit model, ssb. Every sample expands through its model into a
// Scenario and runs through the injection kernel (scenario.go).
//
// Hookless campaigns amortize simulation work through the fault-free
// reference trajectory (see CheckpointInterval and RunOneFrom): each
// injection warm-starts from the nearest snapshot and prunes as soon as its
// state reconverges with the reference. Sinkless campaigns further batch up
// to 64 same-window injections into gangs that share one carrier replay of
// the window prefix and gang-prune reconverged lanes every cycle (see Packed
// and batch.go). A hookFactory is an opaque closure whose state the engine
// cannot save, so a hooked Run replays every injection from reset; a
// checker with savable state takes the warm, pruned and packed paths
// through RunChecked instead. Results are bit-for-bit identical to the
// from-reset path for a fixed Config.Seed.
//
// Injections, prunes, and outcome tallies land on this injector's
// counters. Counters only observe the campaign — they never feed back into
// it, so results are identical whichever injector runs the campaign.
func (in *Injector) Run(cfg Config, p *prog.Program, hookFactory func(*prog.Program) sim.CommitHook) (*Result, error) {
	return in.run(cfg, p, hookFactory, nil)
}

// RunChecked runs a campaign checked by the commit-stream checker cf
// builds. It returns exactly what Run returns with cf's checkers as plain
// hooks (func(p) { return cf(p).Observe }), but because a sim.Checker's
// state can be saved, restored and compared, the campaign warm-starts from
// the reference, prunes when core and checker both reconverge, and runs on
// the packed gang engine like a hookless one. Each worker core owns one
// checker for the whole campaign instead of building one per injection.
func (in *Injector) RunChecked(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*Result, error) {
	return in.run(cfg, p, nil, cf)
}

// hooksOf adapts a checker factory to a plain hook factory.
func hooksOf(cf func(*prog.Program) sim.Checker) func(*prog.Program) sim.CommitHook {
	return func(p *prog.Program) sim.CommitHook { return cf(p).Observe }
}

// nominal is the prologue every campaign shares. It checks that p has a
// golden output and that samples fits the uint16 per-flip-flop counters,
// then performs the fault-free nominal run: it records the warm-start
// reference (under cf's checker, when non-nil) unless an opaque
// hookFactory or a zero CheckpointInterval rules warm starts out, in which
// case it runs cold under the hook. The run must halt with the golden
// output. It returns the reference (nil for a cold campaign), the nominal
// cycle count, and the retired-instruction count.
func nominal(k CoreKind, p *prog.Program, bench, tag string, samples int,
	hookFactory func(*prog.Program) sim.CommitHook, cf func(*prog.Program) sim.Checker) (*Reference, int, int64, error) {
	if p.Expected == nil {
		return nil, 0, 0, fmt.Errorf("inject: %s has no golden output", p.Name)
	}
	if samples < 0 || samples > math.MaxUint16 {
		return nil, 0, 0, fmt.Errorf("inject: %d samples outside the per-FF counter range [0, %d]",
			samples, math.MaxUint16)
	}
	var ref *Reference
	var res prog.Result
	var nom sim.Core
	if hookFactory == nil && CheckpointInterval > 0 {
		var err error
		if ref, res, nom, err = buildReferenceCore(k, p, CheckpointInterval, nomBudget, cf); err != nil {
			return nil, 0, 0, err
		}
	} else {
		nom = NewCore(k, p)
		if hookFactory != nil {
			nom.SetCommitHook(hookFactory(p))
		}
		res = nom.Run(nomBudget)
	}
	if res.Status != prog.StatusHalted || !p.OutputsEqual(res.Output) {
		return nil, 0, 0, fmt.Errorf("inject: nominal run of %s/%s failed: %v", bench, tag, res.Status)
	}
	return ref, res.Steps, nom.Retired(), nil
}

// campaign is one computed campaign's fixed inputs, shared read-only by its
// workers: the strike population is strikes (nil = every flip-flop), and
// sample s of population index i strikes bit(i) at a splitmix64-drawn
// cycle, expanded through model. At most one of hookFactory and cf is
// non-nil.
type campaign struct {
	cfg         Config
	p           *prog.Program
	ref         *Reference
	hookFactory func(*prog.Program) sim.CommitHook
	cf          func(*prog.Program) sim.Checker
	nomCycles   int
	nStrikes    int
	strikes     []int
	model       FaultModel
	env         *ModelEnv
}

// bit returns the flip-flop at population index i.
func (c *campaign) bit(i int) int {
	if c.strikes != nil {
		return c.strikes[i]
	}
	return i
}

// sample draws sample s of bit: its hash and injection cycle. The stream
// is frozen — cached results depend on it.
func (c *campaign) sample(bit, s int) (h uint64, cycle int) {
	h = splitmix64(c.cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
	return h, int(h % uint64(c.nomCycles))
}

// tally is one worker's compact outcome accounting, indexed by strike
// population, merged into the Result once the worker is done. A
// restricted model (uncore) strikes a few hundred bits and must not pay a
// full-space slice per worker.
type tally struct {
	local        []FFStats
	totals       Counts
	latSum, latN int64
}

// add accounts one decided injection of population index pop struck at
// cycle.
func (t *tally) add(pop, cycle int, out Outcome, det int) {
	if out == ED && det >= cycle {
		t.latSum += int64(det - cycle)
		t.latN++
	}
	st := &t.local[pop]
	st.N++
	switch out {
	case OMM:
		st.OMM++
	case UT:
		st.UT++
	case Hang:
		st.Hang++
	case ED:
		st.ED++
	}
	t.totals.Add(out)
}

// mergeInto scatters the tally back to res's full-space, bit-indexed PerFF.
func (t *tally) mergeInto(res *Result, c *campaign) {
	for i, l := range t.local {
		st := &res.PerFF[c.bit(i)]
		st.N += l.N
		st.OMM += l.OMM
		st.UT += l.UT
		st.Hang += l.Hang
		st.ED += l.ED
	}
	res.Totals.Merge(t.totals)
	res.DetLatSum += t.latSum
	res.DetN += t.latN
}

// fanOut runs work items 0..items-1 on GOMAXPROCS workers. newWorker runs
// once on each worker and returns the worker's item body and its merge
// step, which runs under a mutex shared by all workers.
func fanOut(items int, newWorker func() (do func(item int), merge func())) {
	workers := max(runtime.GOMAXPROCS(0), 1)
	next := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do, merge := newWorker()
			for item := range next {
				do(item)
			}
			mu.Lock()
			merge()
			mu.Unlock()
		}()
	}
	for item := 0; item < items; item++ {
		next <- item
	}
	close(next)
	wg.Wait()
}

// scalarChunk is the number of strike-population bits one scalar work item
// covers.
const scalarChunk = 64

// run is the campaign body behind Run (hookFactory, run from reset) and
// RunChecked (cf, run warm); at most one of the two is non-nil.
func (in *Injector) run(cfg Config, p *prog.Program, hookFactory func(*prog.Program) sim.CommitHook,
	cf func(*prog.Program) sim.Checker) (*Result, error) {
	if cf != nil && CheckpointInterval <= 0 {
		// No reference to warm-start from: the checker runs as a plain hook.
		hookFactory, cf = hooksOf(cf), nil
	}
	ref, nomCycles, nomRet, err := nominal(cfg.Core, p, cfg.Bench, cfg.Tag, cfg.SamplesPerFF, hookFactory, cf)
	if err != nil {
		return nil, err
	}
	modelName, _ := SplitModelTag(cfg.Tag)
	c := &campaign{cfg: cfg, p: p, ref: ref, hookFactory: hookFactory, cf: cf, nomCycles: nomCycles,
		model: LookupModel(modelName), env: EnvFor(cfg.Core)}
	// The strike population: every flip-flop, unless the model restricts
	// it (uncore). PerFF is always full-space sized and indexed by the
	// struck bit, so per-structure reporting works across models.
	nBits := SpaceBits(cfg.Core)
	c.strikes = c.model.Bits(c.env)
	c.nStrikes = nBits
	if c.strikes != nil {
		c.nStrikes = len(c.strikes)
	}
	res := &Result{Config: cfg, NomCycles: nomCycles, NomRet: nomRet, PerFF: make([]FFStats, nBits)}

	// Eligible campaigns run on the packed (gang-batched) engine — see
	// batch.go for the eligibility reasoning. Results are bit-identical to
	// the scalar loop below, which the equivalence tests compare against
	// and which runs opaque-hook and sink-carrying campaigns.
	if Packed && hookFactory == nil && in.Sink == nil && ref.usable() {
		in.runPacked(res, c)
	} else {
		in.runScalar(res, c)
	}
	in.addOutcomes(res.Totals)
	return res, nil
}

// runScalar executes the campaign one injection at a time, filling res:
// each worker takes chunks of the strike population and runs every sample
// of a bit in order, which keeps a record sink's per-bit arrival order
// deterministic.
func (in *Injector) runScalar(res *Result, c *campaign) {
	fanOut((c.nStrikes+scalarChunk-1)/scalarChunk, func() (func(int), func()) {
		core, chk := newChecked(c.cfg.Core, c.p, c.cf)
		t := tally{local: make([]FFStats, c.nStrikes)}
		var sc Scenario
		do := func(chunk int) {
			for i := chunk * scalarChunk; i < min((chunk+1)*scalarChunk, c.nStrikes); i++ {
				bit := c.bit(i)
				for s := 0; s < c.cfg.SamplesPerFF; s++ {
					h, cycle := c.sample(bit, s)
					sc = c.model.Expand(c.env, bit, cycle, h, sc[:0])
					out, det := in.runScenarioFrom(core, chk, c.p, c.ref, sc, cycle, c.nomCycles, c.hookFactory)
					t.add(i, cycle, out, det)
				}
			}
		}
		return do, func() { t.mergeInto(res, c) }
	})
}
