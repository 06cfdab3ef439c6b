package rng

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// FillKeyed fills out with uniform values in [-1, 1) that are a pure function
// of (key, seq): no pool, no cursor, any seq in any order from any process —
// the random-access fill a dealer and a party that share key both expand
// instead of one shipping it to the other (paper Eqs. 10–12: do not send what
// the receiver can compute). The generator is AES-128 in counter mode, not
// the paper's §5.1 generator, whose state 624 outputs give away: value i is
// 32-bit word i mod 4 of the keystream block whose counter block is
// seq ‖ i/4 (DESIGN.md "Why AES-CTR for the fills").
func FillKeyed(out []float32, key [16]byte, seq uint64) {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: every 16-byte key is an AES-128 key
	}
	forBlocks(len(out), func(lo, hi int) { keystreamFloats(out[lo:hi], c, seq, uint64(lo)/4) })
}

// keystreamChunk is how many keystream bytes keystreamFloats asks the cipher
// for at a time.
const keystreamChunk = 1024

// zeros is the plaintext the keystream is XORed onto; it is never written.
var zeros [keystreamChunk]byte

// keystreamFloats fills out from c's CTR keystream, starting at the counter
// block seq ‖ block (two big-endian words, as NIST SP 800-38A counts: the
// counter's low half is the block index and it never carries into seq). Each
// 32-bit word w, read little-endian, becomes 2·(w>>8)·2⁻²⁴ − 1, the 24-bit
// map of a Pool's uniform fills — exact in float32, so a host that fuses the
// multiply-add rounds it no differently.
func keystreamFloats(out []float32, c cipher.Block, seq, block uint64) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], seq)
	binary.BigEndian.PutUint64(iv[8:], block)
	ctr := cipher.NewCTR(c, iv[:])
	buf := make([]byte, min(4*len(out), keystreamChunk))
	for len(out) > 0 {
		b := buf[:min(4*len(out), len(buf))]
		ctr.XORKeyStream(b, zeros[:len(b)])
		for ; len(b) >= 16; b, out = b[16:], out[4:] { // one AES block: four values
			o := out[:4]
			o[0], o[1] = unitFloat(b[0:]), unitFloat(b[4:])
			o[2], o[3] = unitFloat(b[8:]), unitFloat(b[12:])
		}
		for ; len(b) >= 4; b, out = b[4:], out[1:] {
			out[0] = unitFloat(b)
		}
	}
}

// unitFloat maps the little-endian word at b to [-1, 1).
func unitFloat(b []byte) float32 {
	return float32(int32(binary.LittleEndian.Uint32(b)>>8))*0x1p-23 - 1
}
