package clear_test

import (
	"fmt"

	"clear"
)

// Enumerate reproduces the paper's Table 18 combination counting.
func ExampleEnumerate() {
	fmt.Println(len(clear.Enumerate(clear.InO)) + len(clear.Enumerate(clear.OoO)))
	// Output: 586
}

// Soft errors are single bit flips in a core's flip-flop space; most
// vanish, some corrupt outputs or crash the program.
func ExampleInjectOne() {
	b := clear.BenchmarkByName("inner_product")
	p, _ := b.Program()
	c := clear.NewCore(clear.InO, p)
	nominal := c.Run(1_000_000)

	// a flip in a dead status register always vanishes
	statusBit := c.SpaceOf().BitsOf("w.s.tba")[0]
	out, err := clear.InjectOne(clear.InO, p, statusBit, nominal.Steps/2, nominal.Steps)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(out)
	// Output: Vanished
}

// Combinations are named by their techniques and recovery mechanism.
func ExampleCombo() {
	c := clear.Combo{DICE: true, Parity: true, Recovery: clear.RecFlush}
	fmt.Println(c.Name())
	// Output: LEAP-DICE+Parity (+flush)
}
