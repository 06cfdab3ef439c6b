package mpc

import (
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

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
}

// members is the number of products in holds.
func (in Shares) members() int { return max(in.Members, 1) }

// Client is the data owner: it splits inputs into shares and prepares
// triplets during the offline phase. Its GPU (if present) accelerates the
// Z = U×V multiplication, which the paper measures at >90 % of offline
// time (§4.2).
type Client struct {
	*Node
	Pool *rng.Pool
}

// NewClient wraps a node with a seeded share/mask generator.
func NewClient(n *Node, seed uint64) *Client {
	return &Client{Node: n, Pool: rng.NewPool(seed)}
}

// ShareRange bounds the uniform masks used for float-domain sharing.
// Shares are secret ± U(-ShareRange, ShareRange); larger ranges hide more
// but cost FP32 precision, since the online GEMMs accumulate products of
// masked values — error grows with the mask magnitude squared times the
// inner dimension. ±2 keeps secure training within <1 % of plaintext
// accuracy (the paper's claim) on the benchmark models; the fixed package
// has the cryptographically sound alternative.
const ShareRange = 2

// Split divides secret into two float shares (secret = s0 + s1), charging
// the random generation and subtraction to the client CPU. This is the
// §2.2 partitioning step for A and B.
func (c *Client) Split(secret *tensor.Matrix, deps ...*simtime.Task) (s0, s1 *tensor.Matrix, done *simtime.Task) {
	s0 = c.Pool.NewUniform(secret.Rows, secret.Cols, -ShareRange, ShareRange)
	s1 = tensor.SubTo(secret, s0)
	t := c.RandTask("split.rand", secret.Rows*secret.Cols, deps...)
	t = c.ElemTask("split.sub", 3*secret.Bytes(), t)
	return s0, s1, t
}

// GenGemmTriplet prepares a Beaver triplet for an (m×k)·(k×n)
// multiplication and splits it, charging the offline-phase costs: mask
// generation on the CPU, Z = U×V on the GPU when useGPU is set (otherwise
// the CPU), and the share splits on the CPU.
func (c *Client) GenGemmTriplet(m, k, n int, useGPU bool, deps ...*simtime.Task) (p0, p1 TripletShares, done *simtime.Task) {
	defer metrics.phaseTriplet.Start().Stop()
	u := c.Pool.NewUniform(m, k, -1, 1)
	v := c.Pool.NewUniform(k, n, -1, 1)
	genT := c.RandTask("triplet.rand", m*k+k*n, deps...)

	var z *tensor.Matrix
	var zT *simtime.Task
	if useGPU && c.Dev != nil {
		du, tu, err := c.Dev.H2D(u, genT)
		if err != nil {
			panic(err)
		}
		dv, tv, err := c.Dev.H2D(v, genT)
		if err != nil {
			panic(err)
		}
		dz := c.Dev.MustAlloc(m, n)
		kt := c.Dev.Gemm(dz, du, dv, tu, tv)
		z, zT = c.Dev.D2H(dz, kt)
		c.Dev.Free(du)
		c.Dev.Free(dv)
		c.Dev.Free(dz)
	} else {
		z = tensor.MulTo(u, v)
		zT = c.GemmTask("triplet.Z", m, k, n, genT)
	}

	u0, u1, t1 := c.Split(u, zT)
	v0, v1, t2 := c.Split(v, t1)
	z0, z1, t3 := c.Split(z, t2)
	return TripletShares{U: u0, V: v0, Z: z0}, TripletShares{U: u1, V: v1, Z: z1}, t3
}

// GenHadamardTriplet prepares a triplet for an element-wise product of
// rows×cols matrices (Z = U⊙V), the pattern the paper's CNN sliding
// windows use (§7.2).
func (c *Client) GenHadamardTriplet(rows, cols int, useGPU bool, deps ...*simtime.Task) (p0, p1 TripletShares, done *simtime.Task) {
	defer metrics.phaseTriplet.Start().Stop()
	u := c.Pool.NewUniform(rows, cols, -1, 1)
	v := c.Pool.NewUniform(rows, cols, -1, 1)
	genT := c.RandTask("triplet.rand", 2*rows*cols, deps...)

	z := tensor.New(rows, cols)
	tensor.Hadamard(z, u, v)
	var zT *simtime.Task
	if useGPU && c.Dev != nil {
		du, tu, err := c.Dev.H2D(u, genT)
		if err != nil {
			panic(err)
		}
		dv, tv, err := c.Dev.H2D(v, genT)
		if err != nil {
			panic(err)
		}
		dz := c.Dev.MustAlloc(rows, cols)
		kt := c.Dev.Hadamard(dz, du, dv, tu, tv)
		_, zT = c.Dev.D2H(dz, kt)
		c.Dev.Free(du)
		c.Dev.Free(dv)
		c.Dev.Free(dz)
	} else {
		zT = c.ElemTask("triplet.Zhad", 3*z.Bytes(), genT)
	}

	u0, u1, t1 := c.Split(u, zT)
	v0, v1, t2 := c.Split(v, t1)
	z0, z1, t3 := c.Split(z, t2)
	return TripletShares{U: u0, V: v0, Z: z0}, TripletShares{U: u1, V: v1, Z: z1}, t3
}

// Combine reconstructs a secret from its two shares (the client-side merge
// of the returned C_i results), charging the addition.
func (c *Client) Combine(s0, s1 *tensor.Matrix, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	out := tensor.AddTo(s0, s1)
	return out, c.ElemTask("combine", 3*out.Bytes(), deps...)
}
