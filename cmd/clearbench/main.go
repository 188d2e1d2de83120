package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"clear/internal/core"
	"clear/internal/inject"
)

// processStart approximates the process start: main-package variables are
// initialized after every imported package, whose init functions take about
// a millisecond together.
var processStart = time.Now()

// defaultSeed is the campaign seed of every engine (core.NewEngine) and the
// seed the pinned digests were computed at.
const defaultSeed = 0xC1EA5

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // JSONL output path for the traced run's spans
	quick    bool
	tmp      string // parent directory of the scratch campaign caches
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the benchmark, prints the report to stdout and
// returns the process exit status: 0 only when every output was correct.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clearbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "campaign seed of every engine and injector")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measure for this many seconds (whole iterations, at least one)")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced run printing end-to-end metrics")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: also write every span as JSONL to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke mode: one iteration on one benchmark and the first 24 combinations")
	fs.StringVar(&cfg.tmp, "tmp", "", "directory for scratch campaign caches (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloadByName(cfg.workload) == nil {
		fmt.Fprintf(stderr, "clearbench: unknown -workload %q (accepted: %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "clearbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 || math.IsNaN(cfg.seconds) {
		fmt.Fprintf(stderr, "clearbench: -seconds must be positive\n")
		return 2
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "clearbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "clearbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// run is the state of one benchmark process: one workload at one seed.
type run struct {
	wl     *workload
	seed   uint64
	quick  bool
	tmp    string           // scratch root, removed at exit
	tr     *tracer          // nil in untraced runs
	attrib *inject.Injector // the workload's one attribution injector

	warmDir    string  // sweep-warm: the campaign cache setup filled
	warmDigest string  // sweep-warm: digest of the setup's cold pass
	peakMB     float64 // peak resident set of set-up and iterations (see boundary)
}

// iter is what one iteration produced and measured.
type iter struct {
	id      int
	span    int // the iteration's span (0 untraced)
	d       *digest
	digest  string
	engines []*core.Engine

	wall      time.Duration
	kernel    float64       // host speed around the iteration (hostSpeed seconds)
	tasks     []float64     // per-task latency in ms: a campaign or a sweep cell
	busy      time.Duration // summed sweep-cell time
	sweepWall time.Duration // summed sweep.Run time
	cells     int

	attempted, failed int
	problems          []string

	counts  counts
	allocMB float64
	gcs     uint32
	liveMB  float64
}

// counts are the layer counters one iteration moved. They are functions of
// the workload and seed alone, except campaignsJoined, which counts how
// often two sweep workers asked for the same campaign at the same moment.
type counts struct {
	injections, pruned, cacheHits, cacheMisses, quarantined int64
	campaignsRun, campaignsJoined, programsBuilt            int64
}

// task records one task latency.
func (it *iter) task(d time.Duration) { it.tasks = append(it.tasks, float64(d)/1e6) }

// fail records an operation error; it reports whether err was non-nil.
func (it *iter) fail(err error) bool {
	if err == nil {
		return false
	}
	it.failed++
	it.problems = append(it.problems, err.Error())
	return true
}

// check counts one consistency check, failed when err is non-nil.
func (it *iter) check(err error) {
	it.attempted++
	it.fail(err)
}

// call runs fn inside a span named name under parent and returns fn's
// duration. fn receives the span id for its own children.
func (r *run) call(parent int, name string, a attrs, fn func(id int)) time.Duration {
	id := r.tr.begin(parent, name, a)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	r.tr.end(id)
	return d
}

// cacheDir creates an empty campaign cache directory in the scratch root.
func (r *run) cacheDir() (string, error) {
	return os.MkdirTemp(r.tmp, "cache-")
}

// useCache points every campaign at dir.
func useCache(dir string) error {
	return os.Setenv("CLEAR_CACHE_DIR", dir)
}

func execute(cfg config) (*report, error) {
	wl := workloadByName(cfg.workload)
	runtime.GOMAXPROCS(runtime.NumCPU())
	scratch, err := os.MkdirTemp(cfg.tmp, "clearbench-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	if prev, ok := os.LookupEnv("CLEAR_CACHE_DIR"); ok {
		defer os.Setenv("CLEAR_CACHE_DIR", prev)
	} else {
		defer os.Unsetenv("CLEAR_CACHE_DIR")
	}
	// Until a workload points campaigns at a cache of its own, they use the
	// scratch root: never the repository's committed cache.
	if err := useCache(scratch); err != nil {
		return nil, err
	}

	r := &run{wl: wl, seed: cfg.seed, quick: cfg.quick, tmp: scratch, attrib: inject.NewInjector()}
	if cfg.trace {
		r.tr = newTracer()
	}
	rep := &report{cfg: cfg, wl: wl}

	setupRaw, setup, k, err := r.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.setupRaw, rep.setup = setupRaw, setup

	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for id := 0; ; id++ {
		it, err := r.iteration(id)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", id, err)
		}
		next := r.boundary()
		it.kernel = (k + next) / 2
		k = next
		rep.iters = append(rep.iters, it)
		if cfg.quick {
			break
		}
		// Start another iteration only if it should end within the budget.
		var walls []float64
		for _, it := range rep.iters {
			walls = append(walls, it.wall.Seconds())
		}
		if time.Since(start).Seconds()+median(walls) > budget.Seconds() {
			break
		}
	}
	if cfg.trace {
		probes, err := r.probes()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		rep.probes = probes
		rep.spans = r.tr.snapshot()
		rep.spanCost = spanCost()
		if cfg.spans != "" {
			if err := r.tr.writeJSONL(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	rep.peakRSSMB = r.peakMB
	rep.finish()
	return rep, nil
}

// warmups is the number of set-up passes of a workload without a set-up of
// its own.
const warmups = 3

// setup performs everything before the first timed iteration. It returns
// each set-up pass's time in seconds, unscaled and scaled to the reference
// host (see speed.go), and the kernel time measured after the last pass;
// the first pass is timed from process start. Every workload first builds
// its benchmark programs, their golden outputs and their threaded code.
// sweep-warm then fills its campaign cache in one pass. The other workloads
// warm up instead: each pass is a quick iteration (one benchmark on a fresh
// engine with an empty cache), so the process is past its lazy
// initialization and has grown its heap before anything is timed.
func (r *run) setup() (raw, scaled []float64, kernel float64, err error) {
	id := r.tr.begin(0, "clearbench.setup", attrs{})
	defer r.tr.end(id)
	// pass records one pass of d seconds, scaled by the kernel times
	// measured before (after the previous pass) and after it.
	pass := func(d float64) {
		k := r.boundary()
		before := kernel
		if before == 0 {
			before = k
		}
		raw = append(raw, d)
		scaled = append(scaled, d*scale((before+k)/2))
		kernel = k
	}
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		benches, err := r.benchesFor(kind)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, b := range benches {
			p, err := b.Program()
			if err != nil {
				return nil, nil, 0, err
			}
			p.Threaded()
		}
	}
	if r.wl.setup != nil {
		if err := r.wl.setup(r); err != nil {
			return nil, nil, 0, err
		}
		pass(time.Since(processStart).Seconds())
		return raw, scaled, kernel, nil
	}
	passes := warmups
	if r.quick {
		passes = 1
	}
	warm := *r
	warm.quick, warm.tr = true, nil
	t0 := processStart
	for i := 0; i < passes; i++ {
		if _, err := warm.iteration(-1); err != nil {
			return nil, nil, 0, err
		}
		pass(time.Since(t0).Seconds())
		t0 = time.Now()
	}
	return raw, scaled, kernel, nil
}

// iteration runs one timed iteration of the workload.
func (r *run) iteration(id int) (*iter, error) {
	it := &iter{id: id, d: newDigest()}
	dir := r.warmDir
	if r.wl.setup == nil {
		var err error
		if dir, err = r.cacheDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	if err := useCache(dir); err != nil {
		return nil, err
	}
	attrib0 := r.attrib.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC

	r.tr.setIter(id)
	it.span = r.tr.begin(0, "clearbench.iteration", attrs{})
	t0 := time.Now()
	err := r.wl.iterate(r, it)
	it.wall = time.Since(t0)
	r.tr.end(it.span)
	if err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&ms)
	it.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	it.gcs = ms.NumGC - gc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	it.liveMB = float64(ms.HeapAlloc) / (1 << 20)

	for _, e := range it.engines {
		s, in := e.Stats(), e.Inj.Snapshot()
		it.counts.injections += in.TotalInjections
		it.counts.pruned += in.PrunedInjections
		it.counts.cacheHits += in.CacheHits
		it.counts.cacheMisses += in.CacheMisses
		it.counts.quarantined += in.Quarantined
		it.counts.campaignsRun += s.CampaignsRun
		it.counts.campaignsJoined += s.CampaignsJoined
		it.counts.programsBuilt += s.ProgramsBuilt
	}
	it.engines = nil
	a := r.attrib.Snapshot()
	it.counts.injections += a.TotalInjections - attrib0.TotalInjections
	it.counts.pruned += a.PrunedInjections - attrib0.PrunedInjections
	it.digest = it.d.sum()
	return it, nil
}

// spanCost measures the time to record one span, in nanoseconds, on a
// throwaway tracer: the traced run's overhead estimate multiplies it by the
// number of spans its iterations recorded.
func spanCost() float64 {
	const n = 20000
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		t := newTracer()
		r := &run{tr: t}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r.call(0, "core.Engine.EvalCombo", attrs{Bench: "gzip", Core: "InO", Tag: "base"}, func(int) {})
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(xs)
}
