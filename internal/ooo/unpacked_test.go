package ooo

import (
	"math/rand"
	"testing"

	"clear/internal/ff"
	"clear/internal/prog"
)

// imaged is a core with a packed image st of its latch state, in the bit
// layout of the flip-flop space, held on the test side: the interpreter
// oracle (interp_test.go) steps on the image, and the closure tests
// (inert_test.go, dead_test.go) compare through it. packU and unpackU
// below are the image's codec. They are written field by field,
// independently of the ff.Latches map that FlipBits strikes through, so
// FuzzFlipBits can check one against the other.
type imaged struct {
	*Core
	st *ff.State
}

// newImaged returns a core reset to run p, with an all-zero image.
func newImaged(p *prog.Program) *imaged {
	return &imaged{Core: New(p), st: sharedSpace.NewState()}
}

// unpackU loads the latch state from its packed image st.
func (c *imaged) unpackU() {
	st := c.st
	r := &sharedRegs
	u := &c.u
	u.pc = r.pc.Get(st)
	u.lhist = r.lhist.Get(st)
	u.takenAddr = r.takenAddr.Get(st)
	u.rasInv = r.rasInv.Get(st)
	for i := 0; i < FBSize; i++ {
		u.fbInst[i] = r.fbInst[i].Get(st)
		u.fbPC[i] = r.fbPC[i].Get(st)
		u.fbPred[i] = r.fbPred[i].Get(st)
		u.fbPTgt[i] = r.fbPTgt[i].Get(st)
	}
	u.fbHead = r.fbHead.Get(st)
	u.fbTail = r.fbTail.Get(st)
	u.fbCount = r.fbCount.Get(st)
	for i := 0; i < 32; i++ {
		u.rat[i] = r.rat[i].Get(st)
	}
	u.robHead = r.robHead.Get(st)
	u.robTail = r.robTail.Get(st)
	u.robCount = r.robCount.Get(st)
	for i := 0; i < RobSize; i++ {
		u.robInst[i] = r.robInst[i].Get(st)
		u.robPC[i] = r.robPC[i].Get(st)
		u.robDone[i] = r.robDone[i].Get(st)
		u.robExc[i] = r.robExc[i].Get(st)
		u.robVal[i] = r.robVal[i].Get(st)
		u.robFlags[i] = r.robFlags[i].Get(st)
		u.robPTgt[i] = r.robPTgt[i].Get(st)
	}
	for i := 0; i < IQSize; i++ {
		u.iqValid[i] = r.iqValid[i].Get(st)
		u.iqInst[i] = r.iqInst[i].Get(st)
		u.iqRob[i] = r.iqRob[i].Get(st)
		u.iqS1Tag[i] = r.iqS1Tag[i].Get(st)
		u.iqS1Rdy[i] = r.iqS1Rdy[i].Get(st)
		u.iqS1Val[i] = r.iqS1Val[i].Get(st)
		u.iqS2Tag[i] = r.iqS2Tag[i].Get(st)
		u.iqS2Rdy[i] = r.iqS2Rdy[i].Get(st)
		u.iqS2Val[i] = r.iqS2Val[i].Get(st)
	}
	u.sqHead = r.sqHead.Get(st)
	u.sqTail = r.sqTail.Get(st)
	u.sqCount = r.sqCount.Get(st)
	for i := 0; i < SQSize; i++ {
		u.sqValid[i] = r.sqValid[i].Get(st)
		u.sqRob[i] = r.sqRob[i].Get(st)
		u.sqAddr[i] = r.sqAddr[i].Get(st)
		u.sqData[i] = r.sqData[i].Get(st)
		u.sqDone[i] = r.sqDone[i].Get(st)
	}
	u.ldValid = r.ldValid.Get(st)
	u.ldRob = r.ldRob.Get(st)
	u.ldAddr = r.ldAddr.Get(st)
	u.ldCnt = r.ldCnt.Get(st)
	u.ldData = r.ldData.Get(st)
	for i := 0; i < 4; i++ {
		u.ldAddrIn[i] = r.ldAddrIn[i].Get(st)
		u.ldDataIn[i] = r.ldDataIn[i].Get(st)
	}
	for i := 0; i < 2; i++ {
		u.ldAddrOut[i] = r.ldAddrOut[i].Get(st)
	}
	for i := 0; i < 4; i++ {
		u.muA[i] = r.muA[i].Get(st)
		u.muB[i] = r.muB[i].Get(st)
		u.muV[i] = r.muV[i].Get(st)
		u.muRob[i] = r.muRob[i].Get(st)
		u.muHi[i] = r.muHi[i].Get(st)
	}
	u.caBr = r.caBr.Get(st)
	for i := 0; i < 3; i++ {
		u.caP[i] = r.caP[i].Get(st)
	}
	for i := 0; i < 6; i++ {
		u.rrEx[i] = r.rrEx[i].Get(st)
		u.exWb[i] = r.exWb[i].Get(st)
	}
	for i := 0; i < 8; i++ {
		u.wbRet[i] = r.wbRet[i].Get(st)
	}
}

// packU stores the latch state into its packed image st.
func (c *imaged) packU() {
	st := c.st
	r := &sharedRegs
	u := &c.u
	r.pc.Set(st, u.pc)
	r.lhist.Set(st, u.lhist)
	r.takenAddr.Set(st, u.takenAddr)
	r.rasInv.Set(st, u.rasInv)
	for i := 0; i < FBSize; i++ {
		r.fbInst[i].Set(st, u.fbInst[i])
		r.fbPC[i].Set(st, u.fbPC[i])
		r.fbPred[i].Set(st, u.fbPred[i])
		r.fbPTgt[i].Set(st, u.fbPTgt[i])
	}
	r.fbHead.Set(st, u.fbHead)
	r.fbTail.Set(st, u.fbTail)
	r.fbCount.Set(st, u.fbCount)
	for i := 0; i < 32; i++ {
		r.rat[i].Set(st, u.rat[i])
	}
	r.robHead.Set(st, u.robHead)
	r.robTail.Set(st, u.robTail)
	r.robCount.Set(st, u.robCount)
	for i := 0; i < RobSize; i++ {
		r.robInst[i].Set(st, u.robInst[i])
		r.robPC[i].Set(st, u.robPC[i])
		r.robDone[i].Set(st, u.robDone[i])
		r.robExc[i].Set(st, u.robExc[i])
		r.robVal[i].Set(st, u.robVal[i])
		r.robFlags[i].Set(st, u.robFlags[i])
		r.robPTgt[i].Set(st, u.robPTgt[i])
	}
	for i := 0; i < IQSize; i++ {
		r.iqValid[i].Set(st, u.iqValid[i])
		r.iqInst[i].Set(st, u.iqInst[i])
		r.iqRob[i].Set(st, u.iqRob[i])
		r.iqS1Tag[i].Set(st, u.iqS1Tag[i])
		r.iqS1Rdy[i].Set(st, u.iqS1Rdy[i])
		r.iqS1Val[i].Set(st, u.iqS1Val[i])
		r.iqS2Tag[i].Set(st, u.iqS2Tag[i])
		r.iqS2Rdy[i].Set(st, u.iqS2Rdy[i])
		r.iqS2Val[i].Set(st, u.iqS2Val[i])
	}
	r.sqHead.Set(st, u.sqHead)
	r.sqTail.Set(st, u.sqTail)
	r.sqCount.Set(st, u.sqCount)
	for i := 0; i < SQSize; i++ {
		r.sqValid[i].Set(st, u.sqValid[i])
		r.sqRob[i].Set(st, u.sqRob[i])
		r.sqAddr[i].Set(st, u.sqAddr[i])
		r.sqData[i].Set(st, u.sqData[i])
		r.sqDone[i].Set(st, u.sqDone[i])
	}
	r.ldValid.Set(st, u.ldValid)
	r.ldRob.Set(st, u.ldRob)
	r.ldAddr.Set(st, u.ldAddr)
	r.ldCnt.Set(st, u.ldCnt)
	r.ldData.Set(st, u.ldData)
	for i := 0; i < 4; i++ {
		r.ldAddrIn[i].Set(st, u.ldAddrIn[i])
		r.ldDataIn[i].Set(st, u.ldDataIn[i])
	}
	for i := 0; i < 2; i++ {
		r.ldAddrOut[i].Set(st, u.ldAddrOut[i])
	}
	for i := 0; i < 4; i++ {
		r.muA[i].Set(st, u.muA[i])
		r.muB[i].Set(st, u.muB[i])
		r.muV[i].Set(st, u.muV[i])
		r.muRob[i].Set(st, u.muRob[i])
		r.muHi[i].Set(st, u.muHi[i])
	}
	r.caBr.Set(st, u.caBr)
	for i := 0; i < 3; i++ {
		r.caP[i].Set(st, u.caP[i])
	}
	for i := 0; i < 6; i++ {
		r.rrEx[i].Set(st, u.rrEx[i])
		r.exWb[i].Set(st, u.exWb[i])
	}
	for i := 0; i < 8; i++ {
		r.wbRet[i].Set(st, u.wbRet[i])
	}
}

// imageBytes encodes a packed image bit by bit, bit b in byte b/8.
func imageBytes(st *ff.State) []byte {
	data := make([]byte, (sharedSpace.NumBits()+7)/8)
	for b := range sharedSpace.NumBits() {
		data[b/8] |= byte(st.Bit(b)) << (b % 8)
	}
	return data
}

// loadImage sets c's image to data (imageBytes' encoding; missing bytes
// read as zero) and decodes it into the latch state.
func (c *imaged) loadImage(data []byte) {
	c.st.Reset()
	for b := range sharedSpace.NumBits() {
		if b/8 < len(data) && data[b/8]>>(b%8)&1 == 1 {
			c.st.FlipBit(b)
		}
	}
	c.unpackU()
}

// randomImage returns imageBytes of a uniformly random image.
func randomImage(rng *rand.Rand) []byte {
	st := sharedSpace.NewState()
	for b := range sharedSpace.NumBits() {
		if rng.Intn(2) == 1 {
			st.FlipBit(b)
		}
	}
	return imageBytes(st)
}

// FuzzMirrorRoundTrip asserts the codec is lossless over arbitrary packed
// images: unpackU followed by packU must reproduce every bit, including
// values (corrupted head/tail pointers, out-of-range counts, garbage
// instruction words) no fault-free run would ever hold. The image is
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
		c := newImaged(p)
		c.loadImage(data)
		want := c.st.Clone()
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

// scenarioBits reads a strike of 1-8 bits from data: one little-endian
// uint16 per bit, reduced modulo the space size, with missing bytes read
// as zero. A bit may repeat; a second flip of it cancels the first.
func scenarioBits(data []byte) []int {
	bits := make([]int, min(max(len(data)/2, 1), 8))
	for i := range bits {
		var v int
		if 2*i < len(data) {
			v = int(data[2*i])
		}
		if 2*i+1 < len(data) {
			v |= int(data[2*i+1]) << 8
		}
		bits[i] = v % sharedSpace.NumBits()
	}
	return bits
}

// scenarioBytes encodes bits for scenarioBits.
func scenarioBytes(bits ...int) []byte {
	data := make([]byte, 0, 2*len(bits))
	for _, b := range bits {
		data = append(data, byte(b), byte(b>>8))
	}
	return data
}

// FuzzFlipBits pins FlipBits, which flips each struck bit in its latch
// word through the ff.Latches map, to the codec: from an arbitrary packed
// image, a strike of 1-8 bits (scenarioBits) must leave the latch state
// packU, ff.State.FlipBit of each bit and unpackU leave. The seeds strike
// every bit of the space at least once, eight bits a fuzz input spread
// across the space, each on its own random image, plus strikes that repeat
// a bit.
func FuzzFlipBits(f *testing.F) {
	n := sharedSpace.NumBits()
	rng := rand.New(rand.NewSource(0xF11B))
	stride := (n + 7) / 8
	for k := range stride {
		var bits []int
		for j := range 8 {
			bits = append(bits, (k+j*stride)%n)
		}
		f.Add(randomImage(rng), scenarioBytes(bits...))
	}
	for range 16 {
		b, c := rng.Intn(n), rng.Intn(n)
		f.Add(randomImage(rng), scenarioBytes(b, c, b))
	}
	p := &prog.Program{Name: "flip", Words: []uint32{0}, MemWords: 4}
	f.Fuzz(func(t *testing.T, image, scenario []byte) {
		bits := scenarioBits(scenario)
		got, want := newImaged(p), newImaged(p)
		got.loadImage(image)
		want.loadImage(image)
		got.FlipBits(bits...)
		want.packU()
		for _, b := range bits {
			want.st.FlipBit(b)
		}
		want.unpackU()
		if got.u != want.u {
			got.packU()
			for b := range n {
				if got.st.Bit(b) != want.st.Bit(b) {
					name, _ := sharedSpace.NameOf(b)
					t.Fatalf("FlipBits(%v) differs from the codec's strike first at bit %d (%s)", bits, b, name)
				}
			}
			t.Fatalf("FlipBits(%v) leaves a latch word outside its field width", bits)
		}
	})
}
