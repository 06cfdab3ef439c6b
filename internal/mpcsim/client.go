package mpcsim

import (
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

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

// Split divides secret into two float shares (secret = s0 + s1), charging
// the random generation and subtraction to the client CPU. This is the
// §2.2 partitioning step for A and B.
func (c *Client) Split(secret *tensor.Matrix, deps ...*simtime.Task) (s0, s1 *tensor.Matrix, done *simtime.Task) {
	s0 = c.Pool.NewUniform(secret.Rows, secret.Cols, -mpc.ShareRange, mpc.ShareRange)
	s1 = tensor.SubTo(secret, s0)
	t := c.RandTask("split.rand", secret.Rows*secret.Cols, deps...)
	t = c.ElemTask("split.sub", 3*secret.Bytes(), t)
	return s0, s1, t
}

// GenGemmTriplet prepares a Beaver triplet for an (m×k)·(k×n)
// multiplication and splits it, charging the offline-phase costs: mask
// generation on the CPU, Z = U×V on the GPU when useGPU is set (otherwise
// the CPU), and the share splits on the CPU.
func (c *Client) GenGemmTriplet(m, k, n int, useGPU bool, deps ...*simtime.Task) (p0, p1 mpc.TripletShares, done *simtime.Task) {
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
	return mpc.TripletShares{U: u0, V: v0, Z: z0}, mpc.TripletShares{U: u1, V: v1, Z: z1}, t3
}

// GenHadamardTriplet prepares a triplet for an element-wise product of
// rows×cols matrices (Z = U⊙V), the pattern the paper's CNN sliding
// windows use (§7.2).
func (c *Client) GenHadamardTriplet(rows, cols int, useGPU bool, deps ...*simtime.Task) (p0, p1 mpc.TripletShares, done *simtime.Task) {
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
	return mpc.TripletShares{U: u0, V: v0, Z: z0}, mpc.TripletShares{U: u1, V: v1, Z: z1}, t3
}

// Combine reconstructs a secret from its two shares (the client-side merge
// of the returned C_i results), charging the addition.
func (c *Client) Combine(s0, s1 *tensor.Matrix, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	out := tensor.AddTo(s0, s1)
	return out, c.ElemTask("combine", 3*out.Bytes(), deps...)
}
