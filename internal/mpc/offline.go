package mpc

import (
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Wall-clock offline-phase primitives for the serving stack. They are
// the same mathematics as internal/mpcsim's Client.Split and
// Client.GenGemmTriplet, bit-identical for the same seed (mpcsim's
// TestClientMatchesServingPrimitives), but carry no simulated-time
// accounting, so they are safe for concurrent use: rng.Pool fills are
// thread-safe (block-seeded per-stream MT19937, §5.1) and everything else
// is pure computation on fresh matrices. The triplet precompute pool
// (internal/mpc/tripletpool) and concurrent client drivers build on these.

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
// shares. Observed on the offline-phase histogram. Safe for concurrent use
// with a shared rp. This is the client-as-dealer draw; a dealer stream's
// triplets are tripletpool's keyed derivation, not this.
func GenGemmTripletShares(rp *rng.Pool, m, k, n int) (p0, p1 TripletShares) {
	p0, p1, _ = genGemmTriplets(rp, 1, m, k, n, nil)
	return p0, p1
}

// genGemmTriplets is GenGemmTripletShares for c same-shape products at
// once, as the row stacks a grouped request ships (Shares.Members): U is
// (c·m)×k, V is (c·k)×n and member j's Z_j = U_j×V_j sits in rows
// [j·m, (j+1)·m) of Z. Still five fills whatever c is — every
// fill seeds an MT19937 block stream, a fixed cost that dwarfs drawing a
// few hundred elements, so c small triplets drawn as stacks cost about
// what one does.
//
// v, when non-nil, is the fixed V stack of a registered operand
// (Shares.Operand): only a fresh U is drawn, Z = U×v, and the V shares stay
// nil — three fills. The plaintext V stack is returned either way.
func genGemmTriplets(rp *rng.Pool, c, m, k, n int, v *tensor.Matrix) (p0, p1 TripletShares, vOut *tensor.Matrix) {
	defer metrics.phaseTriplet.Start().Stop()
	u := rp.NewUniform(c*m, k, -1, 1) // fill 1
	drawV := v == nil
	if drawV {
		v = rp.NewUniform(c*k, n, -1, 1) // fill 2
	}
	z := tensor.New(c*m, n) // pure compute, no fill
	for j := 0; j < c; j++ {
		tensor.Mul(z.SliceRows(j*m, (j+1)*m), u.SliceRows(j*m, (j+1)*m), v.SliceRows(j*k, (j+1)*k))
	}
	p0.U, p1.U = SplitRand(rp, u) // fill 3
	if drawV {
		p0.V, p1.V = SplitRand(rp, v) // fill 4
	}
	p0.Z, p1.Z = SplitRand(rp, z) // fill 5
	return p0, p1, v
}
