// Package mpc is the serving plane of the two-server deployment (Fig. 1b):
// the request/reply wire format (envelope.go), the one implementation of the
// online Beaver exchange between two concurrent parties (wire_pipeline.go,
// Eqs. 4/5/8 with the Fig. 5 transfer/compute overlap on the wall clock),
// the ServeClients accept loop with its pair capability handshake and
// dealer-fed triplet lease (serve.go, feed.go), the client side of a remote
// multiplication (RequestMul and friends) and the wall-clock offline phase
// (offline.go). cmd/psml-server, cmd/psml-router, cmd/psml-dealer,
// internal/fleet, tripletpool and benchmark/ build on it; it schedules no
// virtual time and simulates no hardware.
//
// Shares are additive FP32, the domain the paper's released code uses
// (DESIGN.md states what that does not hide; the Z_2^64 domain lives in
// internal/fixed). The profiled CPU/GPU/pipeline model behind the paper's
// figures is internal/mpcsim, which shares this package's Shares,
// TripletShares and ShareRange and nothing else.
package mpc

import "parsecureml/internal/tensor"

// TripletShares is one party's share of a Beaver triplet (U, V, Z = U×V for
// GEMM geometry, or Z = U⊙V for the Hadamard geometry the paper's CNN
// uses).
type TripletShares struct {
	U, V, Z *tensor.Matrix
}

// Shares is one party's input to a secure multiplication: shares of A and
// B plus its triplet shares.
type Shares struct {
	A, B *tensor.Matrix
	T    TripletShares
	// Members > 1 makes this a group of that many independent same-shape
	// products, row-stacked (A, U: (c·m)×k; B, V: (c·k)×n; Z: (c·m)×n, with
	// Z_j = U_j×V_j per member): one request frame, one exchange, one
	// (c·m)×n reply. 0 and 1 both mean a lone product.
	Members int
	// Operand != 0 names a registered right-hand operand of the client
	// session (DESIGN.md "Registered operands"). On the five-matrix form the
	// pair runs the request as always and keeps B_i and the public F it
	// reconstructs under that handle, write-once for the session. With B and
	// T.V nil — the three-matrix form A, U, Z — the request runs against what
	// the session kept: no B, V or F moves, and Z_j = U_j×V_j for the V the
	// operand was registered with. A party that does not hold the handle
	// answers RouteUnknownOperand.
	Operand uint32
	// Derived != nil makes this a request half whose generator-output
	// matrices are expanded by the party it is sent to, not shipped
	// (DESIGN.md "Derived request halves"): party 0's half carries no matrix
	// at all and party 1's A, [B] and Z — what dealDerived computed against
	// both expansions. The party fills in the rest with one DeriveHalf before
	// it looks at the request, so everything downstream sees the five- or
	// three-matrix form it stands for.
	Derived *DerivedHalf
}

// members is the number of products in holds.
func (in Shares) members() int { return max(in.Members, 1) }

// ShareRange bounds the uniform masks used for float-domain sharing.
// Shares are secret ± U(-ShareRange, ShareRange); larger ranges hide more
// but cost FP32 precision, since the online GEMMs accumulate products of
// masked values — error grows with the mask magnitude squared times the
// inner dimension. ±2 keeps secure training within <1 % of plaintext
// accuracy (the paper's claim) on the benchmark models; the fixed package
// has the cryptographically sound alternative.
const ShareRange = 2
