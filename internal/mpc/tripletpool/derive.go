// Package tripletpool is the dealer tier: the paper's offline phase (§2.2), a
// third party handing each server its share of every Beaver triplet, as a
// service. Dealer is that third party (cmd/psml-dealer), DealerClient a
// server's end of it (an mpc.TripletFeed), proto.go the frames between them,
// and derive.go the one definition of a triplet stream — which NewStreamSource
// replays in process, for reference runs and benchmarks.
package tripletpool

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// Derived triplet halves: a share that is pure generator output is expanded
// where it is used, not shipped (the paper's Eqs. 10–12 applied to its own
// §5.1 fills; CrypTen's trusted-third-party provider does the same). The
// functions below are the one definition of a dealer stream — how a stream
// keys mpc.DeriveHalf, where the expansion itself is defined. The Dealer, both
// DealerClients and NewStreamSource call them and nothing else, which is what
// makes dealer-fed ≡ client-dealt and resumed ≡ uninterrupted hold bit for
// bit: there is no second place a half is computed.

// shape is a GEMM geometry key: (m×k)·(k×n).
type shape struct{ M, K, N int }

// StreamSeed mixes a seed with a GEMM geometry (splitmix64 finalizer over the
// packed dimensions): a general-purpose mixer for drill and benchmark input
// seeds. No key is made with it; streamKey is the keyed one.
func StreamSeed(base uint64, m, k, n int) uint64 {
	z := base ^ (uint64(m)<<42 + uint64(k)<<21 + uint64(n)) ^ 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// partyKey is party's 128-bit stream key under base: SHA-256(base ‖ party)[:16].
// One-way, so a party holding its key learns nothing about base or the other
// party's key; the dealer, holding base, derives both. The 64-bit base widens
// here, so every key below it is a full AES-128 key.
func partyKey(base uint64, party int) [16]byte {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], base)
	b[8] = byte(party)
	sum := sha256.Sum256(b[:])
	return [16]byte(sum[:16])
}

func partyKeys(base uint64) [2][16]byte {
	return [2][16]byte{partyKey(base, 0), partyKey(base, 1)}
}

// streamKey is the key of shape s's stream under a party's key:
// SHA-256(key ‖ m ‖ k ‖ n)[:16], so no two shapes expand the same fills and a
// shape's key says nothing of another's. Its holders compute it once per
// (key, shape) and keep it beside the shape — the feed's feedShape, the
// source's map, one per ASK on the dealer — not once per seq.
func streamKey(key [16]byte, s shape) [16]byte {
	var b [16 + 3*8]byte
	copy(b[:], key[:])
	binary.LittleEndian.PutUint64(b[16:], uint64(s.M))
	binary.LittleEndian.PutUint64(b[24:], uint64(s.K))
	binary.LittleEndian.PutUint64(b[32:], uint64(s.N))
	sum := sha256.Sum256(b[:])
	return [16]byte(sum[:16])
}

func streamKeys(keys [2][16]byte, s shape) [2][16]byte {
	return [2][16]byte{streamKey(keys[0], s), streamKey(keys[1], s)}
}

// deriveHalf is what party holds of triplet seq of s's stream without being
// sent anything: mpc.DeriveHalf — the one definition of a derived half, which
// a derived request's parties expand too — for one member and with no input
// masks, keyed by (the shape's stream key, the full 64-bit seq), so any seq
// can be drawn in any order. Uᵢ ‖ Vᵢ and, for party 0, ‖ Z₀; party 1's Z
// stays nil: it is the correction only the dealer can compute (deriveTriplet).
func deriveHalf(stream [16]byte, party int, s shape, seq uint64) mpc.TripletShares {
	d := mpc.DerivedHalf{Seed: stream, Rows: s.M, K: s.K, N: s.N}
	return mpc.DeriveHalf(d, seq, party, 1, false).T
}

// deriveTriplet is the dealer's view of triplet seq: both derived halves, from
// the shape's two stream keys, and the correction that completes party 1's.
func deriveTriplet(streams [2][16]byte, s shape, seq uint64) (p0, p1 mpc.TripletShares) {
	p0 = deriveHalf(streams[0], 0, s, seq)
	p1 = deriveHalf(streams[1], 1, s, seq)
	p1.Z = newCorrection(s, nil).of(p0, p1)
	return p0, p1
}

// correction is the arithmetic of party 1's correction
// Z₁ = (U₀+U₁)×(V₀+V₁) − Z₀ and its stores: the U and V sums and Z₁ itself,
// which the dealer reuses triplet after triplet of one ASK.
type correction struct{ u, v, z1 *tensor.Matrix }

// newCorrection draws s's stores from p (nil: fresh allocations).
func newCorrection(s shape, p *tensor.Pool) correction {
	return correction{u: p.Get(s.M, s.K), v: p.Get(s.K, s.N), z1: p.Get(s.M, s.N)}
}

// of computes the correction of the halves p0 and p1 into c.z1 and returns it.
func (c correction) of(p0, p1 mpc.TripletShares) *tensor.Matrix {
	tensor.Add(c.u, p0.U, p1.U)
	tensor.Add(c.v, p0.V, p1.V)
	tensor.Mul(c.z1, c.u, c.v)
	tensor.Sub(c.z1, c.z1, p0.Z)
	return c.z1
}

// appendFeed appends the FEED frame of triplet seq to buf: the dealer's step
// per triplet. Both halves are derived, corrected in c and, once Z₁ is
// encoded, given back to mpc.Lender — the frame is all the dealer keeps.
func (c correction) appendFeed(buf []byte, streams [2][16]byte, s shape, seq uint64) []byte {
	p0 := deriveHalf(streams[0], 0, s, seq)
	p1 := deriveHalf(streams[1], 1, s, seq)
	buf = appendFeedFrame(buf, s, seq, c.of(p0, p1))
	p0.GiveBack()
	p1.GiveBack()
	return buf
}

// StreamSource replays a dealer's streams in process: the j-th Gen call for
// shape (m,k,n) yields triplet j of that shape's stream, both halves,
// regardless of what other shapes were drawn in between. This is what makes
// a dealer-fed fleet reproducible against a client-dealt reference run.
type StreamSource struct {
	keys    [2][16]byte
	mu      sync.Mutex
	streams map[shape]*sourceStream
}

// sourceStream is one shape's stream keys and its next seq.
type sourceStream struct {
	keys [2][16]byte
	next uint64
}

// NewStreamSource returns a source whose triplet sequence per shape is
// a pure function of (base, shape): stream j of shape s is identical
// across processes and runs, and bit-identical to the halves a Dealer on the
// same base hands its parties. Use distinct bases for distinct server
// pairs in deployments where triplet reuse across pairs matters.
func NewStreamSource(base uint64) *StreamSource {
	return &StreamSource{keys: partyKeys(base), streams: make(map[shape]*sourceStream)}
}

// Gen returns both parties' shares of the shape's next triplet. Safe for
// concurrent use.
func (s *StreamSource) Gen(m, k, n int) (p0, p1 mpc.TripletShares) {
	sh := shape{M: m, K: k, N: n}
	s.mu.Lock()
	st, ok := s.streams[sh]
	if !ok {
		st = &sourceStream{keys: streamKeys(s.keys, sh)}
		s.streams[sh] = st
	}
	seq := st.next
	st.next++
	s.mu.Unlock()
	return deriveTriplet(st.keys, sh, seq)
}
