package ino

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/prog"
)

// midRunCore returns a core halfway through gzip's fault-free run: a
// pipeline full of live instructions, as a campaign's carrier holds it
// when a lane forks.
func midRunCore(b *testing.B) *Core {
	b.Helper()
	p := bench.ByName("gzip").MustProgram()
	nominal := New(p).Run(10_000_000).Steps
	c := New(p)
	for c.Cycles() < nominal/2 {
		c.Step()
	}
	return c
}

// BenchmarkFlipBits times one strike: FlipBits of a single bit, walking
// every bit of the space in turn (each is flipped back on the next lap).
func BenchmarkFlipBits(b *testing.B) {
	c := midRunCore(b)
	n := sharedSpace.NumBits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FlipBits(i % n)
	}
}

// BenchmarkCheckpoint times the three checkpoint operations of a
// warm-started campaign on a mid-run state: Snapshot at each reference
// checkpoint, Restore at each warm start, and Matches at each checkpoint
// boundary of a lane's tail.
func BenchmarkCheckpoint(b *testing.B) {
	c := midRunCore(b)
	ck := c.Snapshot()
	b.Run("Snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ck = c.Snapshot()
		}
	})
	b.Run("Restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Restore(ck)
		}
	})
	b.Run("Matches", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !c.Matches(ck) {
				b.Fatal("a restored core does not match its checkpoint")
			}
		}
	})
}

// BenchmarkStepSuite steps every benchmark program of the in-order core
// from reset to halt, one core per program, and reports the mean cost of a
// simulated cycle: the in-package twin of clearbench's
// ino.step_ns_per_cycle probe, and of the out-of-order core's benchmark of
// the same name. One iteration is one pass over the suite.
func BenchmarkStepSuite(b *testing.B) {
	var ps []*prog.Program
	var cores []*Core
	for _, bm := range bench.All() {
		p := bm.MustProgram()
		ps, cores = append(ps, p), append(cores, New(p))
	}
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range cores {
			c.Reset(ps[k])
			r := c.Run(10_000_000)
			if r.Status != prog.StatusHalted {
				b.Fatalf("%s: run ended %v after %d cycles", ps[k].Name, r.Status, r.Steps)
			}
			cycles += r.Steps
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
