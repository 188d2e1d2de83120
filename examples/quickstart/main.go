// Quickstart: inject soft errors into the in-order core running the gzip
// benchmark and classify the outcomes — the raw reliability-analysis step
// at the bottom of the CLEAR framework.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"clear"
)

func main() {
	b := clear.BenchmarkByName("gzip")
	p, err := b.Program()
	if err != nil {
		log.Fatal(err)
	}

	// fault-free run: nominal execution time
	c := clear.NewCore(clear.InO, p)
	nominal := c.Run(1_000_000)
	fmt.Printf("gzip on the in-order core: %d cycles fault-free, output %v\n",
		nominal.Steps, nominal.Output)

	// inject 400 uniform random (flip-flop, cycle) soft errors
	nBits := c.SpaceOf().NumBits()
	rng := rand.New(rand.NewSource(1))
	counts := map[clear.InjectionOutcome]int{}
	const n = 400
	for i := 0; i < n; i++ {
		bit := rng.Intn(nBits)
		cycle := rng.Intn(nominal.Steps)
		out, err := clear.InjectOne(clear.InO, p, bit, cycle, nominal.Steps)
		if err != nil {
			log.Fatal(err)
		}
		counts[out]++
	}

	fmt.Printf("\noutcomes of %d injections into %d flip-flops:\n", n, nBits)
	for _, o := range []clear.InjectionOutcome{clear.Vanished, clear.OMM, clear.UT, clear.Hang} {
		fmt.Printf("  %-9v %4d  (%.1f%%)\n", o, counts[o], 100*float64(counts[o])/n)
	}
	fmt.Printf("\nSDC-causing: %.1f%%   DUE-causing: %.1f%%\n",
		100*float64(counts[clear.OMM])/n,
		100*float64(counts[clear.UT]+counts[clear.Hang])/n)
	fmt.Println("\n(most errors vanish — that asymmetry is what selective protection exploits)")
}
