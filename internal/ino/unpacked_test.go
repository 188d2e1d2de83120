package ino

import (
	"math/rand"
	"testing"

	"clear/internal/ff"
	"clear/internal/prog"
)

// imageBytes encodes a packed image bit by bit, bit b in byte b/8.
func imageBytes(st *ff.State) []byte {
	data := make([]byte, (sharedSpace.NumBits()+7)/8)
	for b := range sharedSpace.NumBits() {
		data[b/8] |= byte(st.Bit(b)) << (b % 8)
	}
	return data
}

// FuzzMirrorRoundTrip asserts the latch state is lossless over arbitrary
// packed images: unpackU followed by packU must reproduce every bit,
// including values (garbage instruction words, impossible valid/trap
// combinations) no fault-free run would ever hold. Every FlipBits,
// Restore, Snapshot and Matches crosses this boundary. The image is
// inverted between the two calls, so a field packU skips fails the check
// as surely as one unpackU drops. The seeds are 64 random images; input
// bytes beyond the image are ignored and missing ones read as zero.
func FuzzMirrorRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(0xC1EA5))
	st := sharedSpace.NewState()
	for range 64 {
		for b := range sharedSpace.NumBits() {
			if rng.Intn(2) == 1 {
				st.FlipBit(b)
			}
		}
		f.Add(imageBytes(st))
	}
	p := &prog.Program{Name: "rt", Words: []uint32{0}, MemWords: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(p)
		for b := range sharedSpace.NumBits() {
			if b/8 < len(data) && data[b/8]>>(b%8)&1 == 1 {
				c.st.FlipBit(b)
			}
		}
		want := c.st.Clone()
		c.unpackU()
		for b := range sharedSpace.NumBits() {
			c.st.FlipBit(b)
		}
		c.packU()
		if !c.st.Equal(want) {
			for b := range sharedSpace.NumBits() {
				if c.st.Bit(b) != want.Bit(b) {
					name, _ := sharedSpace.NameOf(b)
					t.Fatalf("pack(unpack(image)) differs from the image first at bit %d (%s)", b, name)
				}
			}
		}
	})
}
