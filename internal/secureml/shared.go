// Package secureml builds the paper's six benchmark models (CNN, MLP, RNN,
// linear regression, logistic regression, SVM) on top of the two-party
// engine: weights and activations live as additive shares on the two
// servers, every multiplication runs the Beaver-triplet protocol
// (reconstruct on CPUs + Eq. (8) on GPUs), nonlinearities use the
// activation re-sharing protocol, and the cross-layer double pipeline of
// Fig. 6 is realized through the task-graph dependencies: with the
// pipeline enabled, the backward F-side reconstructs of all layers are
// issued as soon as the forward pass ends, so they overlap the backward
// GPU operations of deeper layers; without it, every step chains.
//
// Training follows SecureML's architecture: the client only participates
// offline (splitting inputs, labels, initial weights, and generating one
// triplet per multiplication site — sites are reused across epochs, which
// is what makes the E/F deltas compressible, §4.4); the online phase is
// servers-only.
package secureml

import (
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// shared is a secret-shared tensor: share i lives on server i. done is the
// task after which both shares are valid (per-server task tracking is
// folded into the protocol calls' dependencies).
type shared struct {
	s0, s1 *tensor.Matrix
	t0, t1 *simtime.Task // per-server readiness
}

func (s shared) rows() int { return s.s0.Rows }
func (s shared) cols() int { return s.s0.Cols }

// reveal reconstructs the plaintext (client-side; test/reporting use).
func (s shared) reveal() *tensor.Matrix { return tensor.AddTo(s.s0, s.s1) }

// localBoth applies an identical local linear operation on both shares,
// charging each server's CPU.
func localBoth(d *mpcsim.Deployment, name string, bytes int, s shared, op func(share *tensor.Matrix) *tensor.Matrix) shared {
	out0 := op(s.s0)
	out1 := op(s.s1)
	return shared{
		s0: out0, s1: out1,
		t0: d.S0.ElemTask(name, bytes, s.t0),
		t1: d.S1.ElemTask(name, bytes, s.t1),
	}
}

// transposeShares transposes both shares (a local data-movement pass).
func transposeShares(d *mpcsim.Deployment, s shared) shared {
	return localBoth(d, "transpose", 2*s.s0.Bytes(), s, func(m *tensor.Matrix) *tensor.Matrix {
		return m.Transpose()
	})
}

// hadamardPublic multiplies both shares element-wise by a public matrix
// (linear, hence share-local).
func hadamardPublic(d *mpcsim.Deployment, s shared, pub *tensor.Matrix) shared {
	return localBoth(d, "maskmul", 3*s.s0.Bytes(), s, func(m *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(m.Rows, m.Cols)
		tensor.Hadamard(out, m, pub)
		return out
	})
}

// scaleShares multiplies both shares by a public scalar.
func scaleShares(d *mpcsim.Deployment, s shared, alpha float32) shared {
	return localBoth(d, "scale", 2*s.s0.Bytes(), s, func(m *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(m.Rows, m.Cols)
		tensor.Scale(out, m, alpha)
		return out
	})
}

// subShares computes a − b share-wise.
func subShares(d *mpcsim.Deployment, a, b shared) shared {
	return shared{
		s0: tensor.SubTo(a.s0, b.s0),
		s1: tensor.SubTo(a.s1, b.s1),
		t0: d.S0.ElemTask("sub", 3*a.s0.Bytes(), a.t0, b.t0),
		t1: d.S1.ElemTask("sub", 3*a.s1.Bytes(), a.t1, b.t1),
	}
}

// addBias adds a 1×n bias share to every row of a batch×n share (local).
func addBias(d *mpcsim.Deployment, s shared, bias shared) shared {
	apply := func(m, b *tensor.Matrix) *tensor.Matrix {
		out := m.Clone()
		if !tensor.ComputeEnabled() {
			return out
		}
		for r := 0; r < out.Rows; r++ {
			row := out.Row(r)
			for c := range row {
				row[c] += b.Data[c]
			}
		}
		return out
	}
	return shared{
		s0: apply(s.s0, bias.s0),
		s1: apply(s.s1, bias.s1),
		t0: d.S0.ElemTask("bias", 2*s.s0.Bytes(), s.t0, bias.t0),
		t1: d.S1.ElemTask("bias", 2*s.s1.Bytes(), s.t1, bias.t1),
	}
}

// colSum reduces a batch×n share to 1×n (bias gradient; local).
func colSum(d *mpcsim.Deployment, s shared) shared {
	sum := func(m *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(1, m.Cols)
		if !tensor.ComputeEnabled() {
			return out
		}
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for c := range row {
				out.Data[c] += row[c]
			}
		}
		return out
	}
	return shared{
		s0: sum(s.s0),
		s1: sum(s.s1),
		t0: d.S0.ElemTask("colsum", s.s0.Bytes(), s.t0),
		t1: d.S1.ElemTask("colsum", s.s1.Bytes(), s.t1),
	}
}

// axpyInPlace applies share_i += alpha·delta_i (SGD update; local).
func axpyInPlace(d *mpcsim.Deployment, dst shared, alpha float32, delta shared) shared {
	tensor.AXPY(dst.s0, alpha, delta.s0)
	tensor.AXPY(dst.s1, alpha, delta.s1)
	return shared{
		s0: dst.s0, s1: dst.s1,
		t0: d.S0.ElemTask("sgd", 3*dst.s0.Bytes(), dst.t0, delta.t0),
		t1: d.S1.ElemTask("sgd", 3*dst.s1.Bytes(), dst.t1, delta.t1),
	}
}

// im2colShares lowers both shares (im2col is linear, hence share-local).
func im2colShares(d *mpcsim.Deployment, s shared, shape tensor.ConvShape) shared {
	return localBoth(d, "im2col", 2*4*s.rows()*shape.Patches()*shape.PatchSize(), s, func(m *tensor.Matrix) *tensor.Matrix {
		return tensor.Im2Col(m, shape)
	})
}

// col2imShares scatters both gradient shares back to image space.
func col2imShares(d *mpcsim.Deployment, s shared, batch int, shape tensor.ConvShape) shared {
	return localBoth(d, "col2im", 2*s.s0.Bytes(), s, func(m *tensor.Matrix) *tensor.Matrix {
		return tensor.Col2Im(m, batch, shape)
	})
}

// sliceCols extracts column range [lo,hi) from both shares (RNN timestep
// extraction; local data movement).
func sliceCols(d *mpcsim.Deployment, s shared, lo, hi int) shared {
	slice := func(m *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(m.Rows, hi-lo)
		if !tensor.ComputeEnabled() {
			return out
		}
		for r := 0; r < m.Rows; r++ {
			copy(out.Row(r), m.Row(r)[lo:hi])
		}
		return out
	}
	return shared{
		s0: slice(s.s0), s1: slice(s.s1),
		t0: d.S0.ElemTask("slice", 2*4*s.rows()*(hi-lo), s.t0),
		t1: d.S1.ElemTask("slice", 2*4*s.rows()*(hi-lo), s.t1),
	}
}

// addShares computes a + b share-wise.
func addShares(d *mpcsim.Deployment, a, b shared) shared {
	return shared{
		s0: tensor.AddTo(a.s0, b.s0),
		s1: tensor.AddTo(a.s1, b.s1),
		t0: d.S0.ElemTask("add", 3*a.s0.Bytes(), a.t0, b.t0),
		t1: d.S1.ElemTask("add", 3*a.s1.Bytes(), a.t1, b.t1),
	}
}
