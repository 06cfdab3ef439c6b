package ml

import (
	"fmt"
	"math"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Secure multi-head attention treats the batch rows as the token
// sequence: a T×d input is one sequence of T tokens with model width d.
// The softmax over attention scores uses the same polynomial/piecewise
// approximation machinery as the existing activations (Eq. 9,
// SigmoidTaylor) so the secure path can reveal scores, apply the public
// approximation, and re-share — see "Softmax approximation contract" in
// DESIGN.md for the error bound.

// softmaxCutoff is the piecewise range-reduction cutoff: after the
// row-max shift every score is ≤ 0, and entries below -softmaxCutoff
// get weight exactly 0 (e^-16 ≈ 1.1e-7 is below FP32 resolution of the
// row sum anyway).
const softmaxCutoff = 16

// expNegTable holds e^-k for k = 0..softmaxCutoff, the coarse half of
// the piecewise range reduction.
var expNegTable [softmaxCutoff + 1]float32

func init() {
	for k := range expNegTable {
		expNegTable[k] = float32(math.Exp(-float64(k)))
	}
}

// approxExpNeg evaluates e^x for x ≤ 0 as e^-k · P₇(f) with x = -k + f,
// k ∈ {0..softmaxCutoff}, f ∈ (-1, 0], and P₇ the degree-7 Taylor
// polynomial of eˣ (Horner form, like sigmoidTaylor). The polynomial
// remainder on (-1, 0] is below 1/8! ≈ 2.5e-5 relative.
func approxExpNeg(x float32) float32 {
	if x <= -softmaxCutoff {
		return 0
	}
	if x > 0 {
		x = 0
	}
	k := int(-x) // floor of -x, so f = x + k ∈ (-1, 0]
	f := x + float32(k)
	p := 1 + f*(1+f/2*(1+f/3*(1+f/4*(1+f/5*(1+f/6*(1+f/7))))))
	return expNegTable[k] * p
}

// ApproxSoftmax writes the row-wise approximate softmax of src into
// dst. When causal is true, row r attends only to columns 0..r (later
// columns get probability exactly 0); src must then be square. The
// row max is subtracted first, so absolute score magnitude never
// reaches the polynomial — only score *spread* beyond softmaxCutoff is
// truncated to 0.
func ApproxSoftmax(dst, src *tensor.Matrix, causal bool) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("ml: ApproxSoftmax shape mismatch")
	}
	if causal && src.Rows != src.Cols {
		panic("ml: causal ApproxSoftmax needs square scores")
	}
	for r := 0; r < src.Rows; r++ {
		in, out := src.Row(r), dst.Row(r)
		lim := len(in)
		if causal {
			lim = r + 1
		}
		max := in[0]
		for c := 1; c < lim; c++ {
			if in[c] > max {
				max = in[c]
			}
		}
		var sum float32
		for c := 0; c < lim; c++ {
			w := approxExpNeg(in[c] - max)
			out[c] = w
			sum += w
		}
		for c := lim; c < len(in); c++ {
			out[c] = 0
		}
		inv := 1 / sum // sum ≥ 1: the max entry contributes exactly 1
		for c := 0; c < lim; c++ {
			out[c] *= inv
		}
	}
}

// softmaxBackward writes ∂L/∂scores into dst given the softmax output p
// and ∂L/∂p: dS = p ⊙ (dp − rowsum(dp ⊙ p)). Masked entries have p = 0
// and therefore dS = 0 automatically.
func softmaxBackward(dst, p, dp *tensor.Matrix) {
	for r := 0; r < p.Rows; r++ {
		pr, dr, or := p.Row(r), dp.Row(r), dst.Row(r)
		var dot float32
		for c := range pr {
			dot += pr[c] * dr[c]
		}
		for c := range pr {
			or[c] = pr[c] * (dr[c] - dot)
		}
	}
}

// ResidualScale is the 1/√2 residual combiner used in place of
// layernorm: y = (x + f(x))/√2 keeps the output variance of a sum of
// two roughly-unit-variance branches bounded while staying linear —
// and linear means it is share-local in the secure path, where a true
// layernorm would need a secure reciprocal-sqrt.
const ResidualScale = float32(0.7071067811865476)

// Attention is one multi-head self-attention block with a scaled
// residual: y = (x + MHA(x)) · ResidualScale. Weights are d×d, biases
// 1×d; the head width is d/Heads.
type Attention struct {
	Heads  int
	Causal bool

	Wq, Wk, Wv, Wo *tensor.Matrix
	Bq, Bk, Bv, Bo *tensor.Matrix

	dWq, dWk, dWv, dWo *tensor.Matrix
	dBq, dBk, dBv, dBo *tensor.Matrix

	// forward caches for Backward
	x, q, k, v, ctx *tensor.Matrix
	probs           []*tensor.Matrix // per-head T×T softmax outputs
}

// newAttention builds a multi-head attention block of model width d.
func newAttention(d, heads int, causal bool, r *rng.Rand) *Attention {
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("ml: attention width %d not divisible by %d heads", d, heads))
	}
	a := &Attention{Heads: heads, Causal: causal}
	initW := func() *tensor.Matrix {
		w := tensor.New(d, d)
		bound := float32(1.0 / float32(d))
		for i := range w.Data {
			w.Data[i] = (r.Float32()*2 - 1) * bound
		}
		return w
	}
	a.Wq, a.Wk, a.Wv, a.Wo = initW(), initW(), initW(), initW()
	a.Bq, a.Bk, a.Bv, a.Bo = tensor.New(1, d), tensor.New(1, d), tensor.New(1, d), tensor.New(1, d)
	a.InitGradients()
	return a
}

// InitGradients allocates the gradient accumulators (deserialization
// path, mirroring Dense.InitGradients).
func (a *Attention) InitGradients() {
	d := a.Wq.Rows
	a.dWq, a.dWk, a.dWv, a.dWo = tensor.New(d, d), tensor.New(d, d), tensor.New(d, d), tensor.New(d, d)
	a.dBq, a.dBk, a.dBv, a.dBo = tensor.New(1, d), tensor.New(1, d), tensor.New(1, d), tensor.New(1, d)
}

// InDim returns the model width.
func (a *Attention) InDim() int { return a.Wq.Rows }

// OutDim returns the model width.
func (a *Attention) OutDim() int { return a.Wq.Rows }

func affine(x, w, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.MulTo(x, w)
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		for c := range row {
			row[c] += b.Data[c]
		}
	}
	return out
}

// sliceCols copies columns [lo, hi) of m into a fresh matrix.
func sliceCols(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// writeCols copies src into columns [lo, lo+src.Cols) of dst.
func writeCols(dst, src *tensor.Matrix, lo int) {
	for r := 0; r < src.Rows; r++ {
		copy(dst.Row(r)[lo:lo+src.Cols], src.Row(r))
	}
}

// Forward runs multi-head attention over a T×d token sequence.
func (a *Attention) Forward(x *tensor.Matrix) *tensor.Matrix {
	d := a.Wq.Rows
	if x.Cols != d {
		panic(fmt.Sprintf("ml: attention forward input %d, want %d", x.Cols, d))
	}
	a.x = x
	a.q = affine(x, a.Wq, a.Bq)
	a.k = affine(x, a.Wk, a.Bk)
	a.v = affine(x, a.Wv, a.Bv)
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	a.ctx = tensor.New(x.Rows, d)
	a.probs = a.probs[:0]
	for h := 0; h < a.Heads; h++ {
		lo := h * dh
		qh := sliceCols(a.q, lo, lo+dh)
		kh := sliceCols(a.k, lo, lo+dh)
		vh := sliceCols(a.v, lo, lo+dh)
		s := tensor.New(x.Rows, x.Rows)
		tensor.MulABT(s, qh, kh)
		tensor.Scale(s, s, scale)
		p := tensor.New(x.Rows, x.Rows)
		ApproxSoftmax(p, s, a.Causal)
		a.probs = append(a.probs, p)
		writeCols(a.ctx, tensor.MulTo(p, vh), lo)
	}
	out := affine(a.ctx, a.Wo, a.Bo)
	y := tensor.New(x.Rows, d)
	tensor.Add(y, x, out)
	tensor.Scale(y, y, ResidualScale)
	return y
}

func colSumInto(acc *tensor.Matrix, m *tensor.Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			acc.Data[c] += row[c]
		}
	}
}

// Backward computes gradients given ∂L/∂y and returns ∂L/∂x.
func (a *Attention) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if a.ctx == nil {
		panic("ml: attention backward before forward")
	}
	d := a.Wq.Rows
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	// y = (x + ctx·Wo + bo) · ResidualScale
	dres := tensor.New(dout.Rows, d)
	tensor.Scale(dres, dout, ResidualScale)
	// through the output projection
	dctx := tensor.New(dout.Rows, d)
	tensor.MulABT(dctx, dres, a.Wo)
	gwo := tensor.New(d, d)
	tensor.MulATB(gwo, a.ctx, dres)
	tensor.Add(a.dWo, a.dWo, gwo)
	colSumInto(a.dBo, dres)
	// per head, back through score·V and softmax(QKᵀ)
	dq := tensor.New(dout.Rows, d)
	dk := tensor.New(dout.Rows, d)
	dv := tensor.New(dout.Rows, d)
	for h := 0; h < a.Heads; h++ {
		lo := h * dh
		qh := sliceCols(a.q, lo, lo+dh)
		kh := sliceCols(a.k, lo, lo+dh)
		vh := sliceCols(a.v, lo, lo+dh)
		dch := sliceCols(dctx, lo, lo+dh)
		p := a.probs[h]
		dp := tensor.New(p.Rows, p.Cols)
		tensor.MulABT(dp, dch, vh)
		dvh := tensor.New(p.Rows, dh)
		tensor.MulATB(dvh, p, dch)
		ds := tensor.New(p.Rows, p.Cols)
		softmaxBackward(ds, p, dp)
		tensor.Scale(ds, ds, scale)
		dqh := tensor.MulTo(ds, kh)
		dkh := tensor.New(p.Rows, dh)
		tensor.MulATB(dkh, ds, qh)
		writeCols(dq, dqh, lo)
		writeCols(dk, dkh, lo)
		writeCols(dv, dvh, lo)
	}
	// through the Q/K/V projections, plus the residual path
	dx := dres.Clone()
	for _, t := range []struct {
		dproj  *tensor.Matrix
		w      *tensor.Matrix
		gw, gb *tensor.Matrix
	}{
		{dq, a.Wq, a.dWq, a.dBq},
		{dk, a.Wk, a.dWk, a.dBk},
		{dv, a.Wv, a.dWv, a.dBv},
	} {
		gw := tensor.New(d, d)
		tensor.MulATB(gw, a.x, t.dproj)
		tensor.Add(t.gw, t.gw, gw)
		colSumInto(t.gb, t.dproj)
		dxp := tensor.New(dout.Rows, d)
		tensor.MulABT(dxp, t.dproj, t.w)
		tensor.Add(dx, dx, dxp)
	}
	return dx
}

// Update applies SGD and clears the gradients.
func (a *Attention) Update(lr float32) {
	for _, p := range []struct{ w, g *tensor.Matrix }{
		{a.Wq, a.dWq}, {a.Wk, a.dWk}, {a.Wv, a.dWv}, {a.Wo, a.dWo},
		{a.Bq, a.dBq}, {a.Bk, a.dBk}, {a.Bv, a.dBv}, {a.Bo, a.dBo},
	} {
		tensor.AXPY(p.w, -lr, p.g)
		p.g.Zero()
	}
}

// ForwardOps reports the GEMMs of one forward pass at sequence length
// batch (projections, per-head QKᵀ and P·V, output projection).
func (a *Attention) ForwardOps(batch int) []Op {
	d := a.Wq.Rows
	dh := d / a.Heads
	ops := []Op{
		GemmOp(batch, d, d), GemmOp(batch, d, d), GemmOp(batch, d, d), // Q,K,V
		GemmOp(batch, d, d), // out
		ElemOp(4 * batch * d * 3),
	}
	for h := 0; h < a.Heads; h++ {
		ops = append(ops, GemmOp(batch, dh, batch), GemmOp(batch, batch, dh))
	}
	return ops
}

// BackwardOps reports the GEMMs of one backward pass.
func (a *Attention) BackwardOps(batch int) []Op {
	d := a.Wq.Rows
	dh := d / a.Heads
	ops := []Op{
		GemmOp(batch, d, d), GemmOp(d, batch, d), // dctx, dWo
	}
	for h := 0; h < a.Heads; h++ {
		ops = append(ops,
			GemmOp(batch, dh, batch), GemmOp(batch, batch, dh), // dP, dV
			GemmOp(batch, batch, dh), GemmOp(batch, batch, dh), // dQ, dK
		)
	}
	for i := 0; i < 3; i++ {
		ops = append(ops, GemmOp(d, batch, d), GemmOp(batch, d, d)) // dW, dX
	}
	return ops
}

// TransformerBlock is attention followed by a two-layer feed-forward
// stack, each wrapped in a scaled residual:
//
//	y = (x + MHA(x)) · ResidualScale
//	out = (y + FF2(FF1(y))) · ResidualScale
//
// FF1/FF2 are ordinary Dense layers, so the secure path reuses the
// existing dense machinery for them.
type TransformerBlock struct {
	Att      *Attention
	FF1, FF2 *Dense

	y *tensor.Matrix // attention output cache
}

// NewTransformerBlock builds a block of model width d with the given
// head count and feed-forward hidden width.
func NewTransformerBlock(d, heads, ff int, act Activation, causal bool, r *rng.Rand) *TransformerBlock {
	return &TransformerBlock{
		Att: newAttention(d, heads, causal, r),
		FF1: NewDense(d, ff, act, r),
		FF2: NewDense(ff, d, Identity, r),
	}
}

// InDim returns the model width.
func (t *TransformerBlock) InDim() int { return t.Att.InDim() }

// OutDim returns the model width.
func (t *TransformerBlock) OutDim() int { return t.Att.OutDim() }

// Forward runs attention then the feed-forward residual branch.
func (t *TransformerBlock) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := t.Att.Forward(x)
	t.y = y
	h := t.FF2.Forward(t.FF1.Forward(y))
	out := tensor.New(y.Rows, y.Cols)
	tensor.Add(out, y, h)
	tensor.Scale(out, out, ResidualScale)
	return out
}

// Backward computes gradients given ∂L/∂out and returns ∂L/∂x.
func (t *TransformerBlock) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if t.y == nil {
		panic("ml: transformer backward before forward")
	}
	d1 := tensor.New(dout.Rows, dout.Cols)
	tensor.Scale(d1, dout, ResidualScale)
	dff := t.FF1.Backward(t.FF2.Backward(d1))
	dy := tensor.New(d1.Rows, d1.Cols)
	tensor.Add(dy, d1, dff)
	return t.Att.Backward(dy)
}

// Update applies SGD to all sub-layers.
func (t *TransformerBlock) Update(lr float32) {
	t.Att.Update(lr)
	t.FF1.Update(lr)
	t.FF2.Update(lr)
}

// ForwardOps reports the operations of one forward pass.
func (t *TransformerBlock) ForwardOps(batch int) []Op {
	ops := t.Att.ForwardOps(batch)
	ops = append(ops, t.FF1.ForwardOps(batch)...)
	ops = append(ops, t.FF2.ForwardOps(batch)...)
	return ops
}

// BackwardOps reports the operations of one backward pass.
func (t *TransformerBlock) BackwardOps(batch int) []Op {
	ops := t.Att.BackwardOps(batch)
	ops = append(ops, t.FF1.BackwardOps(batch)...)
	ops = append(ops, t.FF2.BackwardOps(batch)...)
	return ops
}
