package mpc

import (
	"fmt"
	"math"

	"parsecureml/internal/comm"
	"parsecureml/internal/ml"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Wire-path transformer inference: the client (who owns both the model
// and the data, Fig. 1b) drives one multi-head attention block — plus an
// optional feed-forward stack — through the two-server serving stack.
// On dependent small products latency is round trips, not FLOPs (Fig. 6),
// so the block's 3 + 2·heads + 3 GEMMs travel as six dependent stages —
// Q/K/V projections (3 members), per-head scores (heads), per-head
// contexts (heads), output projection, FF1, FF2 — each one grouped request
// (Shares.Members): one frame out, one exchange between the servers, one
// reply. A stage's members need only earlier stages, never each other.
// The traffic rides the session mux and the adaptive wire codecs. The
// softmax runs client-side on the recombined scores with ml.ApproxSoftmax —
// the same approximation (and DESIGN.md error contract) as the secure
// training path, but strictly less leaky than the server-side reveal: on
// the wire path no server ever sees scores or probabilities, only shares
// and masked E/F frames.
type WireTransformer struct {
	Heads  int
	Causal bool

	Wq, Wk, Wv, Wo *tensor.Matrix
	Bq, Bk, Bv, Bo *tensor.Matrix

	// Optional feed-forward stack with scaled residual (nil ⇒ attention
	// only).
	FF1W, FF1B, FF2W, FF2B *tensor.Matrix
	FF1Act                 ml.Activation
	HasFF                  bool

	pool        *rng.Pool
	muls, trips int
}

// NewWireAttention wraps a plaintext attention block for wire-path
// inference. seed drives every share split and triplet, so two runs with
// the same seed issue bit-identical requests.
func NewWireAttention(a *ml.Attention, seed uint64) *WireTransformer {
	return &WireTransformer{
		Heads: a.Heads, Causal: a.Causal,
		Wq: a.Wq, Wk: a.Wk, Wv: a.Wv, Wo: a.Wo,
		Bq: a.Bq, Bk: a.Bk, Bv: a.Bv, Bo: a.Bo,
		pool: rng.NewPool(seed),
	}
}

// NewWireTransformer wraps a full plaintext transformer block
// (attention + feed-forward) for wire-path inference.
func NewWireTransformer(b *ml.TransformerBlock, seed uint64) *WireTransformer {
	t := NewWireAttention(b.Att, seed)
	t.FF1W, t.FF1B, t.FF2W, t.FF2B = b.FF1.W, b.FF1.B, b.FF2.W, b.FF2.B
	t.FF1Act = b.FF1.Act
	t.HasFF = true
	return t
}

// Muls reports how many secure products the last Infer ran.
func (t *WireTransformer) Muls() int { return t.muls }

// RoundTrips reports how many dependent requests carried them.
func (t *WireTransformer) RoundTrips() int { return t.trips }

// stage runs the independent same-shape products as[j]×bs[j] as one
// grouped request and returns each product's rows of the reply. Inputs and
// triplets are drawn as stacks — two input splits plus one stacked
// triplet, seven pool fills whatever the member count — and serially, so
// identically seeded runs issue bit-identical requests.
func (t *WireTransformer) stage(s0, s1 comm.Framer, as, bs []*tensor.Matrix) ([]*tensor.Matrix, error) {
	c, m := len(as), as[0].Rows
	a0, a1 := SplitRand(t.pool, stackRows(as))
	b0, b1 := SplitRand(t.pool, stackRows(bs))
	tr0, tr1 := genGemmTriplets(t.pool, c, m, as[0].Cols, bs[0].Cols)
	t.muls += c
	t.trips++
	prod, err := RequestMul(s0, s1, Shares{A: a0, B: b0, T: tr0, Members: c}, Shares{A: a1, B: b1, T: tr1, Members: c})
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Matrix, c)
	for j := range out {
		out[j] = prod.SliceRows(j*m, (j+1)*m)
	}
	return out, nil
}

// proj is a stage of one, x×w, plus the bias row.
func (t *WireTransformer) proj(s0, s1 comm.Framer, x, w, b *tensor.Matrix) (*tensor.Matrix, error) {
	out, err := t.stage(s0, s1, []*tensor.Matrix{x}, []*tensor.Matrix{w})
	if err != nil {
		return nil, err
	}
	return addBias(out[0], b), nil
}

func addBias(m, b *tensor.Matrix) *tensor.Matrix {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += b.Data[c]
		}
	}
	return m
}

// stackRows copies same-width matrices one under the other.
func stackRows(ms []*tensor.Matrix) *tensor.Matrix {
	rows := 0
	for _, m := range ms {
		rows += m.Rows
	}
	out := tensor.New(rows, ms[0].Cols)
	off := 0
	for _, m := range ms {
		off += copy(out.Data[off:], m.Data)
	}
	return out
}

func wireSliceCols(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// Infer runs the block over a T×d token sequence through the server
// pair behind s0/s1 and returns the recombined output.
func (t *WireTransformer) Infer(s0, s1 comm.Framer, x *tensor.Matrix) (*tensor.Matrix, error) {
	d := t.Wq.Rows
	if x.Cols != d {
		return nil, fmt.Errorf("mpc: wire transformer input width %d, want %d", x.Cols, d)
	}
	if t.Heads <= 0 || d%t.Heads != 0 {
		return nil, fmt.Errorf("mpc: wire transformer width %d for %d heads", d, t.Heads)
	}
	t.muls, t.trips = 0, 0
	qkv, err := t.stage(s0, s1, []*tensor.Matrix{x, x, x}, []*tensor.Matrix{t.Wq, t.Wk, t.Wv})
	if err != nil {
		return nil, fmt.Errorf("mpc: Q/K/V projections: %w", err)
	}
	q, k, v := addBias(qkv[0], t.Bq), addBias(qkv[1], t.Bk), addBias(qkv[2], t.Bv)
	dh := d / t.Heads
	qs, kts, vs := make([]*tensor.Matrix, t.Heads), make([]*tensor.Matrix, t.Heads), make([]*tensor.Matrix, t.Heads)
	for h := range qs {
		lo := h * dh
		qs[h] = wireSliceCols(q, lo, lo+dh)
		kts[h] = wireSliceCols(k, lo, lo+dh).Transpose()
		vs[h] = wireSliceCols(v, lo, lo+dh)
	}
	ps, err := t.stage(s0, s1, qs, kts) // scores, turned into probabilities in place
	if err != nil {
		return nil, fmt.Errorf("mpc: head scores: %w", err)
	}
	scale := float32(1 / math.Sqrt(float64(dh)))
	for _, s := range ps {
		tensor.Scale(s, s, scale)
		ml.ApproxSoftmax(s, s, t.Causal) // reads each entry before it writes it
	}
	chs, err := t.stage(s0, s1, ps, vs)
	if err != nil {
		return nil, fmt.Errorf("mpc: head contexts: %w", err)
	}
	ctx := tensor.New(x.Rows, d)
	for h, ch := range chs {
		for r := 0; r < ch.Rows; r++ {
			copy(ctx.Row(r)[h*dh:(h+1)*dh], ch.Row(r))
		}
	}
	out, err := t.proj(s0, s1, ctx, t.Wo, t.Bo)
	if err != nil {
		return nil, fmt.Errorf("mpc: output projection: %w", err)
	}
	y := tensor.New(x.Rows, d)
	tensor.Add(y, x, out)
	tensor.Scale(y, y, ml.ResidualScale)
	if !t.HasFF {
		return y, nil
	}
	h1, err := t.proj(s0, s1, y, t.FF1W, t.FF1B)
	if err != nil {
		return nil, fmt.Errorf("mpc: FF1: %w", err)
	}
	if t.FF1Act != ml.Identity {
		tensor.Apply(h1, h1, t.FF1Act.Apply)
	}
	h2, err := t.proj(s0, s1, h1, t.FF2W, t.FF2B)
	if err != nil {
		return nil, fmt.Errorf("mpc: FF2: %w", err)
	}
	outF := tensor.New(y.Rows, y.Cols)
	tensor.Add(outF, y, h2)
	tensor.Scale(outF, outF, ml.ResidualScale)
	return outF, nil
}
