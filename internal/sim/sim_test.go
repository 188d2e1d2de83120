package sim

import "testing"

// TestWordsEqual pins WordsEqual on lengths around its chunk size: equal
// slices, one differing word in a whole chunk and one in the tail, and
// slices of unequal length.
func TestWordsEqual(t *testing.T) {
	words := func(n int) []uint32 {
		w := make([]uint32, n)
		for i := range w {
			w[i] = uint32(i)*2654435761 + 7
		}
		return w
	}
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		a := words(n)
		if !WordsEqual(a, words(n)) {
			t.Errorf("len %d: equal slices compare unequal", n)
		}
		// a differing word at the start and end of each whole chunk, and
		// at the start and end of the tail
		var at []int
		for c := 0; c+wordsChunk <= n; c += wordsChunk {
			at = append(at, c, c+wordsChunk-1)
		}
		if tail := n - n%wordsChunk; tail < n {
			at = append(at, tail, n-1)
		}
		for _, i := range at {
			b := words(n)
			b[i] ^= 1 << 31
			if WordsEqual(a, b) || WordsEqual(b, a) {
				t.Errorf("len %d: a difference in word %d is missed", n, i)
			}
		}
		if longer := words(n + 1); WordsEqual(a, longer) || WordsEqual(longer, a) {
			t.Errorf("len %d: a slice equals the one-word-longer slice it begins", n)
		}
	}
	if !WordsEqual(nil, []uint32{}) {
		t.Error("a nil and an empty slice compare unequal")
	}
}
