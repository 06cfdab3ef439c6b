package mpcsim

import (
	"testing"

	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// One definition of a share and of a triplet across the two trees: for the
// same seed the simulated Client (CPU path) and the serving plane's
// wall-clock primitives draw bit-identical matrices, call after call. It is
// why internal/mpc's tests could trade a simulated client for a bare
// rng.Pool without any expected value changing.
func TestClientMatchesServingPrimitives(t *testing.T) {
	const seed = 1
	client := NewDeployment(SecureMLConfig()).Client // its pool is rng.NewPool(cfg.Seed)
	rp := rng.NewPool(seed)
	inputs := rng.NewPool(77)
	same := func(what string, round int, sim, srv *tensor.Matrix) {
		t.Helper()
		if !sim.Equal(srv) {
			t.Fatalf("round %d: %s differs between Client and mpc by %v", round, what, sim.MaxAbsDiff(srv))
		}
	}
	for round, shape := range [][3]int{{13, 21, 9}, {1, 5, 3}, {32, 48, 16}, {8, 8, 8}, {4, 0, 3}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := inputs.NewUniform(m, k, -1, 1)
		s0, s1, _ := client.Split(a)
		r0, r1 := mpc.SplitRand(rp, a)
		same("split share 0", round, s0, r0)
		same("split share 1", round, s1, r1)

		p0, p1, _ := client.GenGemmTriplet(m, k, n, false)
		q0, q1 := mpc.GenGemmTripletShares(rp, m, k, n)
		for _, c := range []struct {
			what     string
			sim, srv *tensor.Matrix
		}{
			{"U0", p0.U, q0.U}, {"V0", p0.V, q0.V}, {"Z0", p0.Z, q0.Z},
			{"U1", p1.U, q1.U}, {"V1", p1.V, q1.V}, {"Z1", p1.Z, q1.Z},
		} {
			same("triplet "+c.what, round, c.sim, c.srv)
		}
	}
}
