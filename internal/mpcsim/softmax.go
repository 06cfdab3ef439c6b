package mpcsim

import (
	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// SecureRowSoftmax applies the row-wise approximate softmax (with
// optional causal masking) to shared attention scores S = s0 + s1. It
// follows the same reveal-and-reshare protocol as SecureActivation: the
// servers jointly reconstruct S (one exchange), apply ml.ApproxSoftmax
// — the piecewise/polynomial approximation whose error contract lives
// in DESIGN.md — and re-share: server 0 draws a fresh mask R, keeps
// P−R, and ships R to server 1. Both servers retain the public
// probabilities P in ActResult.Deriv; the backward pass uses them
// linearly (dS = P⊙(dP − rowsum(dP⊙P)) is share-local once P is
// public), exactly like the activation derivative mask.
//
// The reveal leaks the attention scores of the batch to the servers —
// the same per-layer leak profile as the activation reveal, documented
// in DESIGN.md.
func SecureRowSoftmax(stream string, s0, s1 *Server, mask *rng.Pool, causal bool,
	y0, y1 *tensor.Matrix, dep0, dep1 *simtime.Task) (ActResult, ActResult) {

	// Exchange the score shares.
	y0atPeer, t0 := s0.sendShare(stream+".sm", y0, dep0)
	y1atPeer, t1 := s1.sendShare(stream+".sm", y1, dep1)

	// Both reconstruct S and evaluate the public approximation.
	y := tensor.AddTo(y0, y1atPeer)
	yAt1 := tensor.AddTo(y1, y0atPeer)
	sum0 := s0.ElemTask("sm.sum", 3*y.Bytes(), dep0, t1)
	sum1 := s1.ElemTask("sm.sum", 3*y.Bytes(), dep1, t0)

	p := tensor.New(y.Rows, y.Cols)
	pAt1 := tensor.New(y.Rows, y.Cols)
	if tensor.ComputeEnabled() {
		ml.ApproxSoftmax(p, y, causal)
		ml.ApproxSoftmax(pAt1, yAt1, causal)
	}
	// exp poly + row max + normalize ≈ a few passes over the scores.
	a0t := s0.ElemTask("sm.eval", 4*y.Bytes(), sum0)
	a1t := s1.ElemTask("sm.eval", 4*y.Bytes(), sum1)

	// Re-share: server 0 draws R, keeps P−R, sends R.
	r := mask.NewUniform(y.Rows, y.Cols, -mpc.ShareRange, mpc.ShareRange)
	share0 := tensor.SubTo(p, r)
	tMask := s0.RandTask("sm.mask", y.Rows*y.Cols, a0t)
	tMask = s0.ElemTask("sm.resub", 3*r.Bytes(), tMask)
	var tSend *simtime.Task
	var rAt1 *tensor.Matrix
	if tensor.ComputeEnabled() {
		frame := tensor.EncodeMatrix(nil, r)
		tSend = s0.Link().SendRaw(frame, tMask)
		var err error
		rAt1, _, err = tensor.DecodeMatrix(frame)
		must(err)
	} else {
		tSend = s0.Link().SendSized("sm.mask", tensor.EncodedSizeDense(y.Rows, y.Cols), tMask)
		rAt1 = tensor.New(y.Rows, y.Cols)
	}

	done1 := s1.Eng.After(a1t, tSend)
	return ActResult{Share: share0, Deriv: p, Done: tMask},
		ActResult{Share: rAt1, Deriv: pAt1, Done: done1}
}
