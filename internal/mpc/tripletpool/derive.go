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
// packed dimensions) — how a party's stream key becomes the key of one
// shape's fills (deriveHalf), and a general-purpose mixer for drill and
// benchmark input seeds.
func StreamSeed(base uint64, m, k, n int) uint64 {
	z := base ^ (uint64(m)<<42 + uint64(k)<<21 + uint64(n)) ^ 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// partyKey is party's stream key under base: SHA-256(base ‖ party)[:8].
// One-way, so a party holding its key learns nothing about base or the other
// party's key; the dealer, holding base, derives both. A hash and not the
// MT19937 mix used everywhere else because this is the one value whose
// pre-image must stay secret from a party that holds the image.
func partyKey(base uint64, party int) uint64 {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], base)
	b[8] = byte(party)
	sum := sha256.Sum256(b[:])
	return binary.LittleEndian.Uint64(sum[:])
}

func partyKeys(base uint64) [2]uint64 {
	return [2]uint64{partyKey(base, 0), partyKey(base, 1)}
}

// deriveHalf is what party holds of triplet seq of s's stream without being
// sent anything: mpc.DeriveHalf — the one definition of a derived half, which
// a derived request's parties expand too — for one member and with no input
// masks, keyed by (the party's key, the shape, the full 64-bit seq), so any
// seq can be drawn in any order. Uᵢ ‖ Vᵢ and, for party 0, ‖ Z₀; party 1's Z
// stays nil: it is the correction only the dealer can compute (deriveTriplet).
func deriveHalf(key uint64, party int, s shape, seq uint64) mpc.TripletShares {
	d := mpc.DerivedHalf{Seed: StreamSeed(key, s.M, s.K, s.N), Rows: s.M, K: s.K, N: s.N}
	return mpc.DeriveHalf(d, seq, party, 1, false).T
}

// deriveTriplet is the dealer's view of triplet seq: both derived halves and
// the correction Z₁ = (U₀+U₁)×(V₀+V₁) − Z₀ that completes party 1's.
func deriveTriplet(keys [2]uint64, s shape, seq uint64) (p0, p1 mpc.TripletShares) {
	p0 = deriveHalf(keys[0], 0, s, seq)
	p1 = deriveHalf(keys[1], 1, s, seq)
	p1.Z = tensor.MulTo(tensor.AddTo(p0.U, p1.U), tensor.AddTo(p0.V, p1.V))
	tensor.Sub(p1.Z, p1.Z, p0.Z)
	return p0, p1
}

// StreamSource replays a dealer's streams in process: the j-th Gen call for
// shape (m,k,n) yields triplet j of that shape's stream, both halves,
// regardless of what other shapes were drawn in between. This is what makes
// a dealer-fed fleet reproducible against a client-dealt reference run.
type StreamSource struct {
	keys [2]uint64
	mu   sync.Mutex
	next map[shape]uint64
}

// NewStreamSource returns a source whose triplet sequence per shape is
// a pure function of (base, shape): stream j of shape s is identical
// across processes and runs, and bit-identical to the halves a Dealer on the
// same base hands its parties. Use distinct bases for distinct server
// pairs in deployments where triplet reuse across pairs matters.
func NewStreamSource(base uint64) *StreamSource {
	return &StreamSource{keys: partyKeys(base), next: make(map[shape]uint64)}
}

// Gen returns both parties' shares of the shape's next triplet. Safe for
// concurrent use.
func (s *StreamSource) Gen(m, k, n int) (p0, p1 mpc.TripletShares) {
	sh := shape{M: m, K: k, N: n}
	s.mu.Lock()
	seq := s.next[sh]
	s.next[sh] = seq + 1
	s.mu.Unlock()
	return deriveTriplet(s.keys, sh, seq)
}
