package ino

import (
	"fmt"
	"math/rand"
	"testing"

	"clear/internal/ff"
	"clear/internal/prog"
)

// imaged is a core with a packed image st of its latch state, in the bit
// layout of the flip-flop space, held on the test side: the interpreter
// oracle (interp_test.go) steps on the image, and the closure tests
// (inert_test.go) compare through it. packU and unpackU below are the
// image's codec. They are written field by field, independently of the
// ff.Latches map that FlipBits strikes through, so FuzzFlipBits can check
// one against the other.
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
	u.fPC = uint32(r.fPC.Get(st))
	u.dInst = uint32(r.dInst.Get(st))
	u.dPC = uint32(r.dPC.Get(st))
	u.dValid = r.dValid.Get(st) == 1
	u.dPV = r.dPV.Get(st) == 1
	u.dMexc = r.dMexc.Get(st) == 1
	u.dCnt = uint8(r.dCnt.Get(st))
	u.aInst = uint32(r.aInst.Get(st))
	u.aPC = uint32(r.aPC.Get(st))
	u.aValid = r.aValid.Get(st) == 1
	u.aRs1 = uint8(r.aRs1.Get(st))
	u.aRs2 = uint8(r.aRs2.Get(st))
	u.aCWP = uint8(r.aCWP.Get(st))
	u.aRFE1 = r.aRFE1.Get(st) == 1
	u.aRFE2 = r.aRFE2.Get(st) == 1
	u.aTT = uint8(r.aTT.Get(st))
	u.aWY = r.aWY.Get(st) == 1
	u.eInst = uint32(r.eInst.Get(st))
	u.ePC = uint32(r.ePC.Get(st))
	u.eValid = r.eValid.Get(st) == 1
	u.eOp1 = uint32(r.eOp1.Get(st))
	u.eOp2 = uint32(r.eOp2.Get(st))
	u.eY = uint32(r.eY.Get(st))
	u.eTT = uint8(r.eTT.Get(st))
	u.eCWP = uint8(r.eCWP.Get(st))
	u.eET = r.eET.Get(st) == 1
	u.eMAC = r.eMAC.Get(st) == 1
	u.eMul = r.eMul.Get(st) == 1
	u.eMulstep = uint8(r.eMulstep.Get(st))
	u.eSU = r.eSU.Get(st) == 1
	u.eYMSB = r.eYMSB.Get(st) == 1
	u.mInst = uint32(r.mInst.Get(st))
	u.mPC = uint32(r.mPC.Get(st))
	u.mValid = r.mValid.Get(st) == 1
	u.mResult = uint32(r.mResult.Get(st))
	u.mStoreVal = uint32(r.mStoreVal.Get(st))
	u.mTrap = r.mTrap.Get(st) == 1
	u.mTT = uint8(r.mTT.Get(st))
	u.mY = uint32(r.mY.Get(st))
	u.mICC = uint8(r.mICC.Get(st))
	u.mWICC = r.mWICC.Get(st) == 1
	u.mWY = r.mWY.Get(st) == 1
	u.mDciASI = uint8(r.mDciASI.Get(st))
	u.mDciLock = r.mDciLock.Get(st) == 1
	u.mDciSign = r.mDciSign.Get(st) == 1
	u.mIrqen = r.mIrqen.Get(st) == 1
	u.mIrqen2 = r.mIrqen2.Get(st) == 1
	u.xInst = uint32(r.xInst.Get(st))
	u.xPC = uint32(r.xPC.Get(st))
	u.xValid = r.xValid.Get(st) == 1
	u.xResult = uint32(r.xResult.Get(st))
	u.xTrap = r.xTrap.Get(st) == 1
	u.xTT = uint8(r.xTT.Get(st))
	u.xY = uint32(r.xY.Get(st))
	u.xICC = uint8(r.xICC.Get(st))
	u.xNPC = uint32(r.xNPC.Get(st))
	u.xAddr = uint32(r.xAddr.Get(st))
	u.xStoreVal = uint32(r.xStoreVal.Get(st))
	u.xWICC = r.xWICC.Get(st) == 1
	u.xWY = r.xWY.Get(st) == 1
	u.xRETT = r.xRETT.Get(st) == 1
	u.xPV = r.xPV.Get(st) == 1
	u.xDebug = uint32(r.xDebug.Get(st))
	u.xIntack = r.xIntack.Get(st) == 1
	u.xIpend = uint8(r.xIpend.Get(st))
	u.xAnnul = r.xAnnul.Get(st) == 1
	u.wInst = uint32(r.wInst.Get(st))
	u.wPC = uint32(r.wPC.Get(st))
	u.wValid = r.wValid.Get(st) == 1
	u.wResult = uint32(r.wResult.Get(st))
	u.wTrap = r.wTrap.Get(st) == 1
	u.wTT = uint8(r.wTT.Get(st))
	u.wAddr = uint32(r.wAddr.Get(st))
	u.wStoreVal = uint32(r.wStoreVal.Get(st))
	u.wSICC = uint8(r.wSICC.Get(st))
	u.wSY = uint32(r.wSY.Get(st))
	u.wSTT = uint8(r.wSTT.Get(st))
	u.wSTBA = uint32(r.wSTBA.Get(st))
	u.wSWIM = uint8(r.wSWIM.Get(st))
	u.wSPIL = uint8(r.wSPIL.Get(st))
	u.wSEC = r.wSEC.Get(st) == 1
	u.wSEF = r.wSEF.Get(st) == 1
	u.wSPS = r.wSPS.Get(st) == 1
	u.wSET = r.wSET.Get(st) == 1
	u.wSCWP = uint8(r.wSCWP.Get(st))
	u.wSDWT = r.wSDWT.Get(st) == 1
	u.icCfg = uint16(r.icCfg.Get(st))
	u.dcCfg = uint16(r.dcCfg.Get(st))
}

// packU stores the latch state into its packed image st.
func (c *imaged) packU() {
	st := c.st
	r := &sharedRegs
	u := &c.u
	r.fPC.Set(st, uint64(u.fPC))
	r.dInst.Set(st, uint64(u.dInst))
	r.dPC.Set(st, uint64(u.dPC))
	r.dValid.Set(st, b2u(u.dValid))
	r.dPV.Set(st, b2u(u.dPV))
	r.dMexc.Set(st, b2u(u.dMexc))
	r.dCnt.Set(st, uint64(u.dCnt))
	r.aInst.Set(st, uint64(u.aInst))
	r.aPC.Set(st, uint64(u.aPC))
	r.aValid.Set(st, b2u(u.aValid))
	r.aRs1.Set(st, uint64(u.aRs1))
	r.aRs2.Set(st, uint64(u.aRs2))
	r.aCWP.Set(st, uint64(u.aCWP))
	r.aRFE1.Set(st, b2u(u.aRFE1))
	r.aRFE2.Set(st, b2u(u.aRFE2))
	r.aTT.Set(st, uint64(u.aTT))
	r.aWY.Set(st, b2u(u.aWY))
	r.eInst.Set(st, uint64(u.eInst))
	r.ePC.Set(st, uint64(u.ePC))
	r.eValid.Set(st, b2u(u.eValid))
	r.eOp1.Set(st, uint64(u.eOp1))
	r.eOp2.Set(st, uint64(u.eOp2))
	r.eY.Set(st, uint64(u.eY))
	r.eTT.Set(st, uint64(u.eTT))
	r.eCWP.Set(st, uint64(u.eCWP))
	r.eET.Set(st, b2u(u.eET))
	r.eMAC.Set(st, b2u(u.eMAC))
	r.eMul.Set(st, b2u(u.eMul))
	r.eMulstep.Set(st, uint64(u.eMulstep))
	r.eSU.Set(st, b2u(u.eSU))
	r.eYMSB.Set(st, b2u(u.eYMSB))
	r.mInst.Set(st, uint64(u.mInst))
	r.mPC.Set(st, uint64(u.mPC))
	r.mValid.Set(st, b2u(u.mValid))
	r.mResult.Set(st, uint64(u.mResult))
	r.mStoreVal.Set(st, uint64(u.mStoreVal))
	r.mTrap.Set(st, b2u(u.mTrap))
	r.mTT.Set(st, uint64(u.mTT))
	r.mY.Set(st, uint64(u.mY))
	r.mICC.Set(st, uint64(u.mICC))
	r.mWICC.Set(st, b2u(u.mWICC))
	r.mWY.Set(st, b2u(u.mWY))
	r.mDciASI.Set(st, uint64(u.mDciASI))
	r.mDciLock.Set(st, b2u(u.mDciLock))
	r.mDciSign.Set(st, b2u(u.mDciSign))
	r.mIrqen.Set(st, b2u(u.mIrqen))
	r.mIrqen2.Set(st, b2u(u.mIrqen2))
	r.xInst.Set(st, uint64(u.xInst))
	r.xPC.Set(st, uint64(u.xPC))
	r.xValid.Set(st, b2u(u.xValid))
	r.xResult.Set(st, uint64(u.xResult))
	r.xTrap.Set(st, b2u(u.xTrap))
	r.xTT.Set(st, uint64(u.xTT))
	r.xY.Set(st, uint64(u.xY))
	r.xICC.Set(st, uint64(u.xICC))
	r.xNPC.Set(st, uint64(u.xNPC))
	r.xAddr.Set(st, uint64(u.xAddr))
	r.xStoreVal.Set(st, uint64(u.xStoreVal))
	r.xWICC.Set(st, b2u(u.xWICC))
	r.xWY.Set(st, b2u(u.xWY))
	r.xRETT.Set(st, b2u(u.xRETT))
	r.xPV.Set(st, b2u(u.xPV))
	r.xDebug.Set(st, uint64(u.xDebug))
	r.xIntack.Set(st, b2u(u.xIntack))
	r.xIpend.Set(st, uint64(u.xIpend))
	r.xAnnul.Set(st, b2u(u.xAnnul))
	r.wInst.Set(st, uint64(u.wInst))
	r.wPC.Set(st, uint64(u.wPC))
	r.wValid.Set(st, b2u(u.wValid))
	r.wResult.Set(st, uint64(u.wResult))
	r.wTrap.Set(st, b2u(u.wTrap))
	r.wTT.Set(st, uint64(u.wTT))
	r.wAddr.Set(st, uint64(u.wAddr))
	r.wStoreVal.Set(st, uint64(u.wStoreVal))
	r.wSICC.Set(st, uint64(u.wSICC))
	r.wSY.Set(st, uint64(u.wSY))
	r.wSTT.Set(st, uint64(u.wSTT))
	r.wSTBA.Set(st, uint64(u.wSTBA))
	r.wSWIM.Set(st, uint64(u.wSWIM))
	r.wSPIL.Set(st, uint64(u.wSPIL))
	r.wSEC.Set(st, b2u(u.wSEC))
	r.wSEF.Set(st, b2u(u.wSEF))
	r.wSPS.Set(st, b2u(u.wSPS))
	r.wSET.Set(st, b2u(u.wSET))
	r.wSCWP.Set(st, uint64(u.wSCWP))
	r.wSDWT.Set(st, b2u(u.wSDWT))
	r.icCfg.Set(st, uint64(u.icCfg))
	r.dcCfg.Set(st, uint64(u.dcCfg))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
// values (garbage instruction words, impossible valid/trap combinations) no
// fault-free run would ever hold. The image is inverted between the two
// calls, so a field packU skips fails the check as surely as one unpackU
// drops. The seeds are 64 random images; input bytes beyond the image are
// ignored and missing ones read as zero.
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
// packU, ff.State.FlipBit of each bit and unpackU leave, and every stage
// decode must follow its flipped word. The seeds strike every bit of the
// space at least once, eight bits a fuzz input spread across the space,
// each on its own random image, plus strikes that repeat a bit.
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
		requireStageDecodes(t, got.Core, fmt.Sprintf("FlipBits(%v)", bits))
	})
}
