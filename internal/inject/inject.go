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
//
// Every campaign is planned once into gangs of injections that share a
// checkpoint window and runs through one executor, the gang engine
// (batch.go): gang lanes fork off a fault-free carrier and finish through
// the warm tail of the injection kernel (scenario.go). Three kinds of
// strike are decided Vanished without stepping a cycle: the empty
// scenarios of a fault model (a strike that latches nothing) and strikes
// whose every flip is inert — in a field the core declares it never reads
// (ff.Space.AllocInert) — or dead in the carrier's state at the fork — a
// payload behind a closed gate, overwritten before anything reads it
// (sim.GangCore.Dead). The same argument decides a tail at each checkpoint
// boundary: a run that differs from the fault-free checkpoint only in the
// retired counter and in flip-flops inert or dead in the checkpoint's
// state shares its future (sim.Core.Matches), so it is Vanished; and a run
// whose core one Step leaves unchanged but for the cycle counter never
// halts, so it is Hang.
package inject

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/resilient"
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

// kindOf returns the kind of a core NewCore built.
func kindOf(c sim.Core) CoreKind {
	if _, ok := c.(*ooo.Core); ok {
		return OoO
	}
	return InO
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
// (software-protected) variant; cf, when non-nil, builds the
// architecture-level commit-stream checker that watches the nominal run and
// every injection (its detections classify as ED). A "<model>/" prefix on
// cfg.Tag selects a registered fault model (mbu, uncore, set — see
// model.go); the unprefixed form is the paper's single-bit model, ssb.
// Every sample expands through its model into a Scenario and runs through
// the injection kernel (scenario.go).
//
// Every campaign is planned into gangs of up to 64 same-window injections
// (batch.go) and amortizes simulation work through the fault-free
// reference trajectory (see CheckpointInterval): each gang shares one
// carrier replay of its window prefix, and each injection prunes as soon
// as its state — core and checker — reconverges with the reference. A
// sim.Checker's state can be saved, restored and compared, so each worker
// core owns one checker for the whole campaign instead of building one per
// injection. Strikes the fault model expands to an empty scenario, and
// strikes whose flips all land in inert or dead flip-flops, are Vanished
// without simulation. Results are bit-for-bit identical to replaying every
// injection from reset under a fresh checker (RunScenario) for a fixed
// Config.Seed.
//
// Injections, prunes, inert and dead decisions, and outcome tallies land
// on this injector's counters. Counters only observe the campaign — they
// never feed back into it, so results are identical whichever injector
// runs the campaign. Identical per-(bit, cycle) outcomes summed by
// commutative tallies make the Result independent of how the gangs are
// scheduled on GOMAXPROCS workers. A panic on a worker fails the campaign
// with a *resilient.PanicError (see fanOut) and no Result.
func (in *Injector) Run(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*Result, error) {
	c, nomRet, err := in.newCampaign(cfg, p, cf)
	if err != nil {
		return nil, err
	}
	// PerFF is always full-space sized and indexed by the struck bit, so
	// per-structure reporting works across models.
	res := &Result{Config: cfg, NomCycles: c.nomCycles, NomRet: nomRet, PerFF: make([]FFStats, SpaceBits(cfg.Core))}

	plan := planCampaign(c)
	if err := fanOut(len(plan.gangs), func() (func(int), func()) {
		w := newWorker(in, c)
		return func(g int) { w.run(plan.gangs[g]) }, func() { w.mergeInto(res, c) }
	}); err != nil {
		return nil, err
	}
	// Strikes the fault model says latch nothing: Vanished by construction,
	// no simulation, no record.
	in.injTotal.Add(int64(len(plan.vanished)))
	in.injInert.Add(int64(len(plan.vanished)))
	for _, bit := range plan.vanished {
		res.PerFF[bit].N++
		res.Totals.Add(Vanished)
	}
	in.addOutcomes(res.Totals)
	return res, nil
}

// campaign is one computed campaign's fixed inputs, shared read-only by its
// workers: the strike population is strikes (nil = every flip-flop), and
// sample s of population index i strikes bit(i) at a splitmix64-drawn
// cycle, expanded through model. Injections are planned by the window of
// interval cycles they fall in; ref is the warm-start reference, recorded
// under cf's checker when cf is non-nil.
type campaign struct {
	cfg       Config
	p         *prog.Program
	ref       *Reference
	cf        func(*prog.Program) sim.Checker
	interval  int
	nomCycles int
	nStrikes  int
	strikes   []int
	model     FaultModel
	env       *ModelEnv
}

// atFork reports whether strike sc, about to fork off carrier car, cannot
// change what the core does, so it is Vanished without simulation: every
// flip lands in a flip-flop the core declares inert (ff.Space.AllocInert)
// or in one that is dead in car's current state (sim.GangCore.Dead). inert
// reports that every flip is inert.
func (c *campaign) atFork(car sim.GangCore, sc Scenario) (vanished, inert bool) {
	inert = true
	for _, bit := range sc {
		if c.env.Pl.Space.Inert(bit) {
			continue
		}
		if !car.Dead(bit) {
			return false, false
		}
		inert = false
	}
	return true, inert
}

// nominal performs the campaign's fault-free run, recording the warm-start
// reference (under cf's checker, when non-nil), and sets ref and
// nomCycles. The run must halt with the golden output. It returns the
// retired-instruction count.
func (c *campaign) nominal() (int64, error) {
	ref, res, nom, err := buildReferenceCore(c.cfg.Core, c.p, c.interval, nomBudget, c.cf)
	if err != nil {
		return 0, err
	}
	if res.Status != prog.StatusHalted || !c.p.OutputsEqual(res.Output) {
		return 0, fmt.Errorf("inject: nominal run of %s/%s failed: %v", c.cfg.Bench, c.cfg.Tag, res.Status)
	}
	c.ref, c.nomCycles = ref, res.Steps
	return nom.Retired(), nil
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

// fanOut runs work items 0..items-1 on GOMAXPROCS workers, each claiming
// the next unclaimed item from a shared counter until none is left, so no
// goroutine feeds them and the caller only waits. A worker yields its CPU
// between items: it never blocks, and without the yield the runtime's
// background GC mark worker waits for the 10 ms preemption tick to run,
// which keeps the write barrier on every pointer store that long. newWorker
// runs once on each worker and returns the worker's item body and its
// merge step, which runs under a mutex shared by all workers. A panic on a
// worker is recovered there and raises the stop flag: the other workers
// finish the items they hold and claim no more, and fanOut returns the
// first panic as a *resilient.PanicError carrying the worker's value and
// stack.
func fanOut(items int, newWorker func() (do func(item int), merge func())) error {
	workers := max(runtime.GOMAXPROCS(0), 1)
	var next atomic.Int64
	var stop atomic.Bool
	var failure error
	var once sync.Once
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := resilient.Safe(func() (struct{}, error) {
				do, merge := newWorker()
				for !stop.Load() {
					item := int(next.Add(1)) - 1
					if item >= items {
						break
					}
					do(item)
					runtime.Gosched()
				}
				mu.Lock()
				defer mu.Unlock()
				merge()
				return struct{}{}, nil
			})
			if err != nil {
				stop.Store(true)
				once.Do(func() { failure = err })
			}
		}()
	}
	wg.Wait()
	return failure
}

// newCampaign checks that p has a golden output and that the sample count
// fits the uint16 per-flip-flop counters, performs the campaign's nominal
// run and fixes its strike population. It returns the campaign and the
// nominal run's retired-instruction count.
func (in *Injector) newCampaign(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*campaign, int64, error) {
	if p.Expected == nil {
		return nil, 0, fmt.Errorf("inject: %s has no golden output", p.Name)
	}
	if cfg.SamplesPerFF < 0 || cfg.SamplesPerFF > math.MaxUint16 {
		return nil, 0, fmt.Errorf("inject: %d samples outside the per-FF counter range [0, %d]",
			cfg.SamplesPerFF, math.MaxUint16)
	}
	modelName, _ := SplitModelTag(cfg.Tag)
	c := &campaign{cfg: cfg, p: p, cf: cf, interval: cmp.Or(in.interval, CheckpointInterval),
		model: LookupModel(modelName), env: EnvFor(cfg.Core)}
	nomRet, err := c.nominal()
	if err != nil {
		return nil, 0, err
	}
	// The strike population: every flip-flop, unless the model restricts
	// it (uncore).
	c.strikes = c.model.Bits(c.env)
	c.nStrikes = SpaceBits(cfg.Core)
	if c.strikes != nil {
		c.nStrikes = len(c.strikes)
	}
	return c, nomRet, nil
}
