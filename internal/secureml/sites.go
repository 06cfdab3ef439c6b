package secureml

import (
	"fmt"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// site is one multiplication site: a Beaver triplet (per party) generated
// offline by the client and reused across epochs (Eqs. 10–12).
type site struct {
	kind    string // "gemm" or "hadamard"
	m, k, n int
	t0, t1  mpc.TripletShares
	ready   *simtime.Task
}

// siteCache is the model's offline-prepared triplet store.
type siteCache struct {
	d     *mpcsim.Deployment
	sites map[string]*site
	// lazyOK permits creating sites during the online phase (tests only);
	// Prepare normally creates every site offline.
	lazyOK bool
}

func newSiteCache(d *mpcsim.Deployment) *siteCache {
	return &siteCache{d: d, sites: make(map[string]*site)}
}

// prepare creates (or returns) the site, charging its offline cost.
func (c *siteCache) prepare(key, kind string, m, k, n int, deps ...*simtime.Task) *site {
	if s, ok := c.sites[key]; ok {
		if s.kind != kind || s.m != m || s.k != k || s.n != n {
			panic(fmt.Sprintf("secureml: site %q reused with %s %dx%dx%d, was %s %dx%dx%d",
				key, kind, m, k, n, s.kind, s.m, s.k, s.n))
		}
		return s
	}
	s := &site{kind: kind, m: m, k: k, n: n}
	if kind == "hadamard" {
		s.t0, s.t1, s.ready = c.d.Client.GenHadamardTriplet(m, k, c.d.Cfg.UseGPU, deps...)
	} else {
		s.t0, s.t1, s.ready = c.d.Client.GenGemmTriplet(m, k, n, c.d.Cfg.UseGPU, deps...)
	}
	s.ready = c.d.Upload(s.t0.U.Bytes()+s.t0.V.Bytes()+s.t0.Z.Bytes(), s.ready)
	c.sites[key] = s
	return s
}

// get fetches a prepared site, or creates it lazily when permitted.
func (c *siteCache) get(key, kind string, m, k, n int) *site {
	if s, ok := c.sites[key]; ok {
		return s
	}
	if !c.lazyOK {
		panic(fmt.Sprintf("secureml: site %q not prepared offline", key))
	}
	return c.prepare(key, kind, m, k, n)
}

// secureMatMul multiplies two server-held shared matrices through the
// Beaver protocol: CPU reconstruct of E, F (with compressed exchange),
// then the Eq. (8) online operation on the GPU (or CPU fallback).
// siteKey identifies the (batch-shared) triplet; streamKey identifies the
// per-batch compression stream whose deltas track epochs (Eqs. 10–12).
func secureMatMul(d *mpcsim.Deployment, cache *siteCache, siteKey, streamKey string, a, b shared) shared {
	s := cache.get(siteKey, "gemm", a.rows(), a.cols(), b.cols())
	in0 := mpc.Shares{A: a.s0, B: b.s0, T: s.t0}
	in1 := mpc.Shares{A: a.s1, B: b.s1, T: s.t1}
	var depA0, depB0, depA1, depB1 *simtime.Task
	if d.Cfg.Pipeline {
		// Fig. 6: the A-half and B-half reconstructs float independently.
		depA0 = d.Eng.After(a.t0, s.ready)
		depB0 = d.Eng.After(b.t0, s.ready)
		depA1 = d.Eng.After(a.t1, s.ready)
		depB1 = d.Eng.After(b.t1, s.ready)
	} else {
		depA0 = d.Eng.After(a.t0, b.t0, s.ready)
		depB0 = depA0
		depA1 = d.Eng.After(a.t1, b.t1, s.ready)
		depB1 = depA1
	}
	ef0, ef1 := mpcsim.ReconstructEF(streamKey, d.S0, d.S1, in0, in1, depA0, depB0, depA1, depB1)

	var c0, c1 *tensor.Matrix
	var tc0, tc1 *simtime.Task
	if d.Cfg.UseGPU {
		c0, tc0 = d.S0.OnlineMulGPU(ef0, in0)
		c1, tc1 = d.S1.OnlineMulGPU(ef1, in1)
	} else {
		c0, tc0 = d.S0.OnlineMulCPU(ef0, in0)
		c1, tc1 = d.S1.OnlineMulCPU(ef1, in1)
	}
	// Refresh the output shares: keeps float-share magnitudes bounded so
	// training does not accumulate mask energy (see mpcsim.Reshare).
	c0, c1, tc0, tc1 = mpcsim.Reshare(streamKey+".rs", d.S0, d.S1, d.MaskPool(), c0, c1, tc0, tc1)
	return shared{s0: c0, s1: c1, t0: tc0, t1: tc1}
}

// secureHadamard multiplies two shared matrices element-wise (the CNN
// point-to-point pattern and the SVM margin product).
func secureHadamard(d *mpcsim.Deployment, cache *siteCache, siteKey, streamKey string, a, b shared) shared {
	s := cache.get(siteKey, "hadamard", a.rows(), a.cols(), b.cols())
	in0 := mpc.Shares{A: a.s0, B: b.s0, T: s.t0}
	in1 := mpc.Shares{A: a.s1, B: b.s1, T: s.t1}
	var depA0, depB0, depA1, depB1 *simtime.Task
	if d.Cfg.Pipeline {
		// Fig. 6: the A-half and B-half reconstructs float independently.
		depA0 = d.Eng.After(a.t0, s.ready)
		depB0 = d.Eng.After(b.t0, s.ready)
		depA1 = d.Eng.After(a.t1, s.ready)
		depB1 = d.Eng.After(b.t1, s.ready)
	} else {
		depA0 = d.Eng.After(a.t0, b.t0, s.ready)
		depB0 = depA0
		depA1 = d.Eng.After(a.t1, b.t1, s.ready)
		depB1 = depA1
	}
	ef0, ef1 := mpcsim.ReconstructEF(streamKey, d.S0, d.S1, in0, in1, depA0, depB0, depA1, depB1)

	var c0, c1 *tensor.Matrix
	var tc0, tc1 *simtime.Task
	if d.Cfg.UseGPU {
		c0, tc0 = d.S0.OnlineHadamardGPU(ef0, in0)
		c1, tc1 = d.S1.OnlineHadamardGPU(ef1, in1)
	} else {
		run := func(sv *mpcsim.Server, ef mpcsim.EF, in mpc.Shares) (*tensor.Matrix, *simtime.Task) {
			dm := in.A.Clone()
			if sv.Party == 1 {
				tensor.AXPY(dm, -1, ef.E)
			}
			c := tensor.New(dm.Rows, dm.Cols)
			tensor.Hadamard(c, dm, ef.F)
			eb := tensor.New(dm.Rows, dm.Cols)
			tensor.Hadamard(eb, ef.E, in.B)
			tensor.Add(c, c, eb)
			tensor.Add(c, c, in.T.Z)
			return c, sv.ElemTask("online.hadamard", 4*3*c.Bytes(), ef.Done)
		}
		c0, tc0 = run(d.S0, ef0, in0)
		c1, tc1 = run(d.S1, ef1, in1)
	}
	c0, c1, tc0, tc1 = mpcsim.Reshare(streamKey+".rs", d.S0, d.S1, d.MaskPool(), c0, c1, tc0, tc1)
	return shared{s0: c0, s1: c1, t0: tc0, t1: tc1}
}

// secureActivate applies the activation protocol to a shared tensor,
// returning the activated shares and the public derivative mask.
func secureActivate(d *mpcsim.Deployment, key string, kind ml.Activation, y shared) (shared, *tensor.Matrix) {
	r0, r1 := mpcsim.SecureActivation(key, d.S0, d.S1, d.MaskPool(), kind, y.s0, y.s1, y.t0, y.t1)
	return shared{s0: r0.Share, s1: r1.Share, t0: r0.Done, t1: r1.Done}, r0.Deriv
}
