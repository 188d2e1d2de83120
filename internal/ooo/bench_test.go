package ooo

import (
	"testing"

	"clear/internal/bench"
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
