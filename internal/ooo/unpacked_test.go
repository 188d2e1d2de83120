package ooo

import (
	"math/rand"
	"testing"

	"clear/internal/prog"
)

// TestMirrorRoundTrip asserts the unpacked mirror is lossless over arbitrary
// packed states: unpackU followed by packU must reproduce every bit,
// including values (corrupted head/tail pointers, out-of-range counts,
// garbage instruction words) no fault-free run would ever hold. This is the
// invariant that lets FlipBit target any flip-flop between compiled steps.
func TestMirrorRoundTrip(t *testing.T) {
	p := &prog.Program{Name: "rt", Words: []uint32{0}, MemWords: 4}
	c := New(p)
	rng := rand.New(rand.NewSource(0xC1EA5))
	bits := c.space.NumBits()
	for iter := 0; iter < 64; iter++ {
		for b := 0; b < bits; b++ {
			if rng.Intn(2) == 1 {
				c.st.FlipBit(b)
			}
		}
		want := c.st.Clone()
		c.unpackU()
		c.uValid = true
		c.syncU()
		if !c.st.Equal(want) {
			t.Fatalf("iter %d: pack(unpack(state)) != state", iter)
		}
	}
}
