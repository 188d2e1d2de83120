package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The shared hosts this benchmark runs on change speed in phases lasting
// from tens of seconds to minutes: on a 2-vCPU Intel Xeon virtual machine,
// the same iteration of the same seed took anywhere from 1× to 2× its
// fastest time as neighbouring load came and went. A phase that outlasts a
// run moves every statistic taken inside it, so the benchmark measures the
// host's current speed with reference kernels of its own at every
// iteration and set-up boundary, and scales the times it reports to a host
// on which the kernels take refKernelSeconds.
//
// The kernels are the benchmark's own code, so no change to the repository
// can move them: a change that makes an iteration 10% faster makes the
// scaled time 10% smaller. Each runs on every processor at once, as the
// workloads do, and loads the host the way one part of the workloads does:
// an interpreter over a register file and a small memory with
// data-dependent branches (the simulators' inner loops), random updates of
// a table larger than a core's cache (checkpoints and simulator state),
// and a stream of short-lived allocations (the campaign engine and the
// sweep's hardening). The host's speed is the geometric mean of the three
// kernel times. Choosing them, over eight runs of three workloads in a
// phase when unscaled times varied 2×, the interquartile spread of the
// median iteration time was 0.63–0.72 of its median unscaled, 0.29–0.36
// scaled by the interpreter alone and 0.10–0.12 scaled by all three; two
// later sets of ten runs per workload kept it within 0.03–0.10. The report
// prints the unscaled times beside the scaled ones.

// refKernelSeconds is the kernel time the reported times are scaled to:
// each kernel's fast-phase pass time on the machine above.
const refKernelSeconds = 0.010

const (
	kernelPasses = 3
	aluSteps     = 3_000_000
	aluMem       = 1 << 14 // words of interpreter memory per processor
	aluCode      = 1 << 12 // interpreter instructions per processor
	tableSteps   = 2_000_000
	tableWords   = 1 << 19 // 4 MiB of table per processor
	churnAllocs  = 75_000
)

var kernelSink atomic.Uint64

// hostSpeed times each kernel kernelPasses times, interleaved, and returns
// the geometric mean of their median pass times in seconds.
func hostSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	tables := make([][]uint64, procs)
	for w := range tables {
		tables[w] = make([]uint64, tableWords)
		for i := range tables[w] {
			tables[w][i] = uint64(i) // fault the pages in before timing
		}
	}
	kernels := []func(w int) uint64{
		func(w int) uint64 { return uint64(interpret(uint64(w + 1))) },
		func(w int) uint64 { return walk(tables[w], uint64(w+1)) },
		func(w int) uint64 { return churn(uint64(w + 1)) },
	}
	times := make([][]float64, len(kernels))
	for pass := 0; pass < kernelPasses; pass++ {
		for k, fn := range kernels {
			times[k] = append(times[k], onEveryProcessor(procs, fn))
		}
	}
	logSum := 0.0
	for _, ts := range times {
		logSum += math.Log(median(ts))
	}
	return math.Exp(logSum / float64(len(kernels)))
}

// onEveryProcessor runs fn once per processor concurrently and returns the
// elapsed seconds.
func onEveryProcessor(procs int, fn func(w int) uint64) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kernelSink.Add(fn(w))
		}(w)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// interpret runs a fixed pseudo-random program of register, memory and
// branch instructions for aluSteps steps and returns a register, so the
// work cannot be optimized away.
func interpret(seed uint64) uint32 {
	var regs [32]uint32
	mem := make([]uint32, aluMem)
	code := make([]uint64, aluCode)
	x := seed
	for i := range code {
		x = splitmix64(x)
		code[i] = x
	}
	pc := 0
	for i := 0; i < aluSteps; i++ {
		ins := code[pc]
		rd, ra, rb := ins>>3&31, ins>>8&31, ins>>13&31
		a, b := regs[ra], regs[rb]
		switch ins & 7 {
		case 0:
			regs[rd] = a + b
		case 1:
			regs[rd] = a ^ b<<3
		case 2:
			mem[(a+uint32(ins>>20))&(aluMem-1)] = b
		case 3:
			regs[rd] = mem[(b+uint32(ins>>20))&(aluMem-1)]
		case 4:
			if a < b {
				pc = int(ins>>32) & (aluCode - 1)
				continue
			}
		case 5:
			regs[rd] = a * (b | 1)
		case 6:
			regs[rd] = a - b>>1
		default:
			regs[rd] = uint32(i)
		}
		pc = (pc + 1) & (aluCode - 1)
	}
	return regs[1]
}

// walk adds to random words of table.
func walk(table []uint64, seed uint64) uint64 {
	x := seed
	for i := 0; i < tableSteps; i++ {
		x = splitmix64(x)
		table[x&(tableWords-1)] += x
	}
	return x
}

// churn allocates short-lived buffers of random sizes, keeping at most a
// few hundred alive at a time.
func churn(seed uint64) uint64 {
	x := seed
	var keep [][]byte
	for i := 0; i < churnAllocs; i++ {
		x = splitmix64(x)
		keep = append(keep, make([]byte, 32+x%512))
		if len(keep) > 512 {
			keep = keep[:0]
		}
	}
	return x + uint64(len(keep))
}

// scale returns the factor that converts a time measured while the
// kernels took kernelSeconds into reference-host time.
func scale(kernelSeconds float64) float64 {
	return refKernelSeconds / kernelSeconds
}

// boundary ends one timed stretch (a set-up pass or an iteration): it
// folds the stretch's peak resident set into r.peakMB, measures the host's
// speed, and then returns the kernels' memory to the system and restarts
// the kernel's peak count, so no later peak includes the kernels.
func (r *run) boundary() float64 {
	r.peakMB = max(r.peakMB, residentPeakMB())
	k := hostSpeed()
	debug.FreeOSMemory()
	// Writing 5 resets the process's peak resident set (Linux 4.0+); where
	// it fails, later peaks may include the kernels' few MiB.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return k
}

// residentPeakMB returns the process's peak resident set since the last
// reset (VmHWM), or, where that is unavailable, since process start.
func residentPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
