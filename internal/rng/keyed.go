package rng

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync"
)

// FillKeyed fills out with uniform values in [-1, 1) that are a pure function
// of (key, seq): no pool, no cursor, any seq in any order from any process —
// the random-access fill a dealer and a party that share key both expand
// instead of one shipping it to the other (paper Eqs. 10–12: do not send what
// the receiver can compute). The generator is AES-128 in counter mode, not
// the paper's §5.1 generator, whose state 624 outputs give away: value i is
// 32-bit word i mod 4 of the keystream block whose counter block is
// seq ‖ i/4 (DESIGN.md "Why AES-CTR for the fills").
//
// more continues the run: out takes its values 0 … len(out)−1, more[0] the
// next len(more[0]), and so on, so a set of separate stores is filled exactly
// as one slice of their total length would be.
func FillKeyed(out []float32, key [16]byte, seq uint64, more ...[]float32) {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: every 16-byte key is an AES-128 key
	}
	n := len(out)
	for _, o := range more {
		n += len(o)
	}
	if n <= blockSize { // one block: inline, with no closure to allocate
		keystreamFloats(out, c, seq, 0, more...)
		return
	}
	run := append([][]float32{out}, more...)
	forBlocks(n, func(lo, hi int) {
		part := window(run, lo, hi)
		keystreamFloats(part[0], c, seq, uint64(lo)/4, part[1:]...)
	})
}

// window returns values [lo, hi) of the run laid over run's slices, as the
// slices (or parts of them) that hold those values.
func window(run [][]float32, lo, hi int) [][]float32 {
	var part [][]float32
	for _, o := range run {
		if lo < len(o) && hi > 0 {
			part = append(part, o[max(lo, 0):min(hi, len(o))])
		}
		lo, hi = lo-len(o), hi-len(o)
	}
	return part
}

// keystreamChunk is how many keystream bytes keystreamFloats asks the cipher
// for at a time.
const keystreamChunk = 1024

// zeros is the plaintext the keystream is XORed onto; it is never written.
var zeros [keystreamChunk]byte

// keystreamScratch is what keystreamFloats needs beside the cipher: the
// initial counter block, which the CTR stream's constructor would otherwise
// move to the heap, and the chunk buffer.
type keystreamScratch struct {
	iv  [aes.BlockSize]byte
	buf [keystreamChunk]byte
}

// keystreamScratches lends keystreamFloats its scratch, so a fill allocates
// neither.
var keystreamScratches = sync.Pool{New: func() any { return new(keystreamScratch) }}

// keystreamFloats fills out, then each of more, from c's CTR keystream,
// starting at the counter block seq ‖ block (two big-endian words, as NIST
// SP 800-38A counts: the counter's low half is the block index and it never
// carries into seq). Each 32-bit word w, read little-endian, becomes
// 2·(w>>8)·2⁻²⁴ − 1, the 24-bit map of a Pool's uniform fills — exact in
// float32, so a host that fuses the multiply-add rounds it no differently.
// The words run on across the slices, whatever their lengths.
func keystreamFloats(out []float32, c cipher.Block, seq, block uint64, more ...[]float32) {
	sc := keystreamScratches.Get().(*keystreamScratch)
	defer keystreamScratches.Put(sc)
	binary.BigEndian.PutUint64(sc.iv[:8], seq)
	binary.BigEndian.PutUint64(sc.iv[8:], block)
	ctr := cipher.NewCTR(c, sc.iv[:])
	n := len(out)
	for _, o := range more {
		n += len(o)
	}
	for n > 0 {
		b := sc.buf[:min(4*n, keystreamChunk)]
		ctr.XORKeyStream(b, zeros[:len(b)])
		n -= len(b) / 4
		for len(b) > 0 {
			for len(out) == 0 {
				out, more = more[0], more[1:]
			}
			w := min(len(out), len(b)/4)
			unitFloats(out[:w], b[:4*w])
			out, b = out[w:], b[4*w:]
		}
	}
}

// unitFloats maps the little-endian words of b, one per value, onto out.
func unitFloats(out []float32, b []byte) {
	for ; len(b) >= 16; b, out = b[16:], out[4:] { // one AES block: four values
		o := out[:4]
		o[0], o[1] = unitFloat(b[0:]), unitFloat(b[4:])
		o[2], o[3] = unitFloat(b[8:]), unitFloat(b[12:])
	}
	for ; len(b) >= 4; b, out = b[4:], out[1:] {
		out[0] = unitFloat(b)
	}
}

// unitFloat maps the little-endian word at b to [-1, 1).
func unitFloat(b []byte) float32 {
	return float32(int32(binary.LittleEndian.Uint32(b)>>8))*0x1p-23 - 1
}
