package mpc

import (
	"crypto/sha256"
	"encoding/binary"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Wall-clock offline-phase primitives for the serving stack, in two forms.
//
// The pool form (SplitRand, GenGemmTripletShares) is the same mathematics as
// internal/mpcsim's Client.Split and Client.GenGemmTriplet, bit-identical
// for the same seed (mpcsim's TestClientMatchesServingPrimitives), but
// carries no simulated-time accounting, so it is safe for concurrent use:
// rng.Pool fills are thread-safe (block-seeded per-stream MT19937, §5.1) and
// everything else is pure computation on fresh matrices. Every share it
// makes is materialised and shipped.
//
// The derived form (DeriveHalf, dealDerived) ships no share that is pure
// generator output: whoever deals — the dealer tier for a triplet stream,
// the client for a whole request — hands each party a 128-bit key, and the
// party expands its half where it uses it (the paper's Eqs. 10–12 applied to
// its own random fills; the fill is AES-CTR, rng.FillKeyed). DESIGN.md
// "Derived request halves".

// SplitRand divides secret into two float shares (secret = s0 + s1)
// using rp's uniform masks — the §2.2 partitioning step, without the
// simulator's cost model.
func SplitRand(rp *rng.Pool, secret *tensor.Matrix) (s0, s1 *tensor.Matrix) {
	s0 = rp.NewUniform(secret.Rows, secret.Cols, -ShareRange, ShareRange)
	s1 = tensor.SubTo(secret, s0)
	return s0, s1
}

// GenGemmTripletShares prepares and splits a Beaver triplet for an
// (m×k)·(k×n) multiplication: U, V uniform, Z = U×V, each split into two
// shares — five pool fills. Observed on the offline-phase histogram. Safe
// for concurrent use with a shared rp. This is the client-as-dealer draw of
// the materialised form; a dealer stream's triplets and a derived request's
// are DeriveHalf's keyed expansion, not this.
func GenGemmTripletShares(rp *rng.Pool, m, k, n int) (p0, p1 TripletShares) {
	defer metrics.phaseTriplet.Start().Stop()
	u := rp.NewUniform(m, k, -1, 1)
	v := rp.NewUniform(k, n, -1, 1)
	z := tensor.MulTo(u, v)
	p0.U, p1.U = SplitRand(rp, u)
	p0.V, p1.V = SplitRand(rp, v)
	p0.Z, p1.Z = SplitRand(rp, z)
	return p0, p1
}

// DerivedHalf names one party's half of a request — or, in the dealer tier,
// of a triplet — whose generator-output matrices are not shipped: the key
// they expand from and the stacked geometry to expand them to. A and U are
// Rows×K, Z is Rows×N, and B and V, members·K × N, exist unless Kept: the
// three-matrix form of a request against a registered operand
// (Shares.Operand), which carries neither.
type DerivedHalf struct {
	Seed       [16]byte
	Rows, K, N int
	Kept       bool
}

// DeriveHalf is the one definition of a half that is pure generator output:
// one keyed fill — rng.FillKeyed's only caller, keyed by (d.Seed, seq), so
// any half can be drawn in any order by anyone who holds the key — laid over
//
//	party 0:  U₀ ‖ [V₀] ‖ Z₀ ‖ A₀ ‖ [B₀]     (A₀, B₀ only with masks)
//	party 1:  U₁ ‖ [V₁]
//
// for members row-stacked same-shape products. Uᵢ, Vᵢ are U(−1,1), so
// U = U₀+U₁ and V lie in (−2,2) and no share is larger than the U − U₀ a pool
// split produces; Z₀ and the input masks A₀, B₀ are U(±ShareRange), as
// SplitRand draws a mask. What the expansion cannot hold is left nil for
// whoever dealt the half to compute and ship: party 1's Z₁ = U×V − Z₀ always,
// and with masks its A₁ = A − A₀ and B₁ = B − B₀ (dealDerived; the dealer
// tier's deriveTriplet). The triplet comes first and the masks last because
// a keyed fill's value i is a function of i alone: a maskless, one-member
// call — a dealer stream's triplet seq — is a prefix of the same layout, so a
// dealer stream and a derived request expand their triplets alike.
//
// Each matrix is a whole store of its own, lent by Lender: whoever is done
// with the half gives it back (GiveBack for the triplet, Lender().Put for the
// masks), or keeps it for good.
func DeriveHalf(d DerivedHalf, seq uint64, party, members int, masks bool) Shares {
	out := Shares{Members: members}
	out.T.U = lender.Get(d.Rows, d.K)
	if !d.Kept {
		out.T.V = lender.Get(members*d.K, d.N)
	}
	if party == 0 {
		out.T.Z = lender.Get(d.Rows, d.N)
		if masks {
			out.A = lender.Get(d.Rows, d.K)
			if !d.Kept {
				out.B = lender.Get(members*d.K, d.N)
			}
		}
	}
	var run [4][]float32 // what follows U, in the fill's order
	n := 0
	for _, m := range [...]*tensor.Matrix{out.T.V, out.T.Z, out.A, out.B} {
		if m != nil {
			run[n] = m.Data
			n++
		}
	}
	rng.FillKeyed(out.T.U.Data, d.Seed, seq, run[:n]...)
	for _, m := range [...]*tensor.Matrix{out.T.Z, out.A, out.B} { // they mask a secret
		if m != nil {
			for i := range m.Data {
				m.Data[i] *= ShareRange
			}
		}
	}
	return out
}

// lender lends every per-request store whose life is one request: triplet
// halves (DeriveHalf, a dealer feed's Z₁), a derived request's input masks,
// and a client's reply shares. One pool for the process, as comm's frame
// pool is one: a store given back by one session is lent to the next.
var lender = tensor.NewPool()

// Lender returns the process's pool of triplet stores: what DeriveHalf draws
// from, a dealer feed decodes Z₁ into, and GiveBack returns to. A view is
// never put to it: a view of a class-size capacity would be lent twice.
func Lender() *tensor.Pool { return lender }

// GiveBack returns t's stores to Lender. Nothing may read t, or any view of
// its matrices, after the call.
func (t TripletShares) GiveBack() {
	lender.Put(t.U)
	lender.Put(t.V)
	lender.Put(t.Z)
}

// expand completes a derived half (Shares.Derived) into the classic or kept
// form it stands for, as party reads it: one DeriveHalf, laid over what was
// shipped — which decodeRequest already held to the header. Every matrix it
// adds is a store Lender lent, for the caller to give back.
func (in *Shares) expand(party int) {
	h := DeriveHalf(*in.Derived, 0, party, in.members(), true)
	in.T.U, in.T.V = h.T.U, h.T.V
	if party == 0 {
		in.A, in.B, in.T.Z = h.A, h.B, h.T.Z
	}
}

// requestSeeds are the two parties' seeds for the counter-th request a client
// keys under base: SHA-256(base ‖ party ‖ counter)[:16], the dealer tier's
// partyKey with a request counter. One-way, so a party holding its seed
// learns nothing about base, the other party's seed or any other request's;
// stateless, so a client names a half by sending its seed and there is
// nothing for a party to hold, register or lose.
func requestSeeds(base, counter uint64) (seeds [2][16]byte) {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[:], base)
	binary.LittleEndian.PutUint64(b[9:], counter)
	for party := range seeds {
		b[8] = byte(party)
		sum := sha256.Sum256(b[:])
		seeds[party] = [16]byte(sum[:16])
	}
	return seeds
}

// dealDerived is the client as dealer of one derived request: the c
// row-stacked products a×b with each party's half expanded from its seed —
// two keyed fills, whatever c is. Party 0 is sent its seed and nothing else.
// Party 1 is sent its seed and the three matrices no expansion holds:
// A₁ = A − A₀, B₁ = B − B₀ and, per member, Z₁ = (U₀+U₁)×(V₀+V₁) − Z₀ — the
// dealer tier's deriveTriplet with the input masks riding the same fill.
//
// v, when non-nil, is the fixed plaintext V stack of a registered operand:
// the halves are of the three-matrix form, Z₁ = U×v − Z₀, and of b only the
// width is read. The plaintext V stack is returned either way, for the
// caller that registers b to keep.
func dealDerived(seeds [2][16]byte, a, b, v *tensor.Matrix, c int) (in0, in1 Shares, vOut *tensor.Matrix) {
	defer metrics.phaseTriplet.Start().Stop()
	d0 := DerivedHalf{Seed: seeds[0], Rows: a.Rows, K: a.Cols, N: b.Cols, Kept: v != nil}
	d1 := d0
	d1.Seed = seeds[1]
	h0, h1 := DeriveHalf(d0, 0, 0, c, true), DeriveHalf(d1, 0, 1, c, true)
	u := tensor.AddTo(h0.T.U, h1.T.U)
	if v == nil {
		v = tensor.AddTo(h0.T.V, h1.T.V)
	}
	z1 := tensor.New(a.Rows, b.Cols)
	m, k := a.Rows/c, a.Cols
	for j := 0; j < c; j++ {
		tensor.Mul(z1.SliceRows(j*m, (j+1)*m), u.SliceRows(j*m, (j+1)*m), v.SliceRows(j*k, (j+1)*k))
	}
	tensor.Sub(z1, z1, h0.T.Z)
	in0 = Shares{Members: c, Derived: &d0}
	in1 = Shares{Members: c, Derived: &d1, A: tensor.SubTo(a, h0.A), T: TripletShares{Z: z1}}
	if !d0.Kept {
		in1.B = tensor.SubTo(b, h0.B)
	}
	h0.T.GiveBack()
	h1.T.GiveBack()
	lender.Put(h0.A)
	lender.Put(h0.B)
	return in0, in1, v
}
