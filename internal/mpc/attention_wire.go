package mpc

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"parsecureml/internal/comm"
	"parsecureml/internal/ml"
	"parsecureml/internal/tensor"
)

// Wire-path transformer inference: the client (who owns both the model
// and the data, Fig. 1b) drives one multi-head attention block — plus an
// optional feed-forward stack — through the two-server serving stack.
// On dependent small products latency is round trips, not FLOPs (Fig. 6),
// so the block's 1 + 2·heads + 3 GEMMs travel as six dependent stages —
// the fused Q/K/V projection x×[Wq‖Wk‖Wv], per-head scores (heads),
// per-head contexts (heads), output projection, FF1, FF2 — each one request,
// the per-head ones grouped (Shares.Members): one frame out, one exchange
// between the servers, one reply. A stage's members need only earlier
// stages, never each other. The four stages whose right-hand operand is a
// weight register it with the session the first time they run on a
// connection pair (Shares.Operand) and from then on run in the three-matrix
// form: what did not change is not re-sent (Eqs. 10–12, Δ^B = 0). And no
// request ships a share that is pure generator output (Shares.Derived):
// party 0 is sent a seed per request and nothing else, party 1 a seed and
// A₁, [B₁], Z₁ — what the receiver can compute is not sent either.
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

	seed, draws uint64 // requestSeeds' base, and how many requests it has keyed
	muls, trips int

	// What the sessions behind the connection pair last handed to Infer hold
	// of this block's weights; another pair starts from nothing.
	s0, s1 comm.Framer
	ops    map[*tensor.Matrix]wireOperand // by weight
	plain  bool                           // that pair refused a store: five matrices from here on
	wqkv   *tensor.Matrix                 // [Wq‖Wk‖Wv], built on first use
}

// wireOperand is a weight as registered with a session pair: its handle and
// the plaintext mask V behind it, which every later request's Z = U×V needs.
type wireOperand struct {
	handle uint32
	v      *tensor.Matrix
}

// operandCounter hands out handles no two WireTransformers of this process
// share: clients taking turns on a connection pair never collide (write-once).
var operandCounter atomic.Uint32

// newWireAttention wraps a plaintext attention block for wire-path
// inference. seed keys every share split and triplet (requestSeeds), so two
// runs with the same seed issue bit-identical requests.
func newWireAttention(a *ml.Attention, seed uint64) *WireTransformer {
	return &WireTransformer{
		Heads: a.Heads, Causal: a.Causal,
		Wq: a.Wq, Wk: a.Wk, Wv: a.Wv, Wo: a.Wo,
		Bq: a.Bq, Bk: a.Bk, Bv: a.Bv, Bo: a.Bo,
		seed: seed,
	}
}

// NewWireTransformer wraps a full plaintext transformer block
// (attention + feed-forward) for wire-path inference.
func NewWireTransformer(b *ml.TransformerBlock, seed uint64) *WireTransformer {
	t := newWireAttention(b.Att, seed)
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
// grouped request and returns each product's rows of the reply.
func (t *WireTransformer) stage(s0, s1 comm.Framer, as, bs []*tensor.Matrix) ([]*tensor.Matrix, error) {
	c, m := len(as), as[0].Rows
	prod, err := t.request(s0, s1, stackRows(as), stackRows(bs), c, false)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Matrix, c)
	for j := range out {
		out[j] = prod.SliceRows(j*m, (j+1)*m)
	}
	return out, nil
}

// proj is the lone product x×w against the weight w, which the session pair
// keeps after the first time, plus the bias row.
func (t *WireTransformer) proj(s0, s1 comm.Framer, x, w, b *tensor.Matrix) (*tensor.Matrix, error) {
	out, err := t.request(s0, s1, x, w, 1, true)
	if err != nil {
		return nil, err
	}
	return addBias(out, b), nil
}

// request runs one stage: the c row-stacked products a×b in one request
// frame per party, riding out retryable refusals as RequestMulRetry does.
// Each request is drawn in the derived form under the next pair of seeds —
// two keyed fills, one per party's half, whatever c is — so identically
// seeded runs issue bit-identical requests: party 0's frame is its header,
// party 1's carries A₁, B₁, Z₁, or A₁, Z₁ against a registered weight.
//
// A weight goes out in the five-matrix form under a fresh handle the first
// time a connection pair sees it and in the three-matrix form after that.
// Two refusals are answered by drawing the request again, each at most once:
// RouteUnknownOperand (a leg's session is younger than the registration)
// forgets what the pair held and registers again; a refused store (its handle
// already held, or the session's table full) leaves the pair on five matrices.
func (t *WireTransformer) request(s0, s1 comm.Framer, a, b *tensor.Matrix, c int, weight bool) (*tensor.Matrix, error) {
	t.muls += c
	t.trips++
	for {
		op, kept := t.ops[b]
		in0, in1, v := dealDerived(requestSeeds(t.seed, t.draws), a, b, op.v, c)
		t.draws++
		reg := wireOperand{v: v} // what this request registers, once it is answered
		switch {
		case kept:
			in0.Operand, in1.Operand = op.handle, op.handle
		case weight && !t.plain:
			reg.handle = operandCounter.Add(1) // 0, once per wrap, registers nothing
			in0.Operand, in1.Operand = reg.handle, reg.handle
		}
		prod, err := RequestMulRetry(s0, s1, in0, in1, RetryConfig{})
		switch {
		case err == nil:
			if reg.handle != 0 {
				t.ops[b] = reg
			}
			return prod, nil
		case kept && errors.Is(err, &RouteError{Code: RouteUnknownOperand}):
			clear(t.ops)
		case reg.handle != 0 && errors.Is(err, &RouteError{Code: RouteBadRequest}):
			t.plain = true
		default:
			return nil, err
		}
	}
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
// pair behind s0/s1 and returns the recombined output. What an earlier Infer
// registered is used again only when handed the same two Framers (by identity).
func (t *WireTransformer) Infer(s0, s1 comm.Framer, x *tensor.Matrix) (*tensor.Matrix, error) {
	d := t.Wq.Rows
	if x.Cols != d {
		return nil, fmt.Errorf("mpc: wire transformer input width %d, want %d", x.Cols, d)
	}
	if t.Heads <= 0 || d%t.Heads != 0 {
		return nil, fmt.Errorf("mpc: wire transformer width %d for %d heads", d, t.Heads)
	}
	t.muls, t.trips = 0, 0
	if t.ops == nil || t.s0 != s0 || t.s1 != s1 {
		t.s0, t.s1, t.ops, t.plain = s0, s1, map[*tensor.Matrix]wireOperand{}, false
	}
	if t.wqkv == nil {
		t.wqkv = tensor.ConcatCols(tensor.ConcatCols(t.Wq, t.Wk), t.Wv)
	}
	// x crosses each wire once: one product, cut into Q, K, V by column.
	qkv, err := t.request(s0, s1, x, t.wqkv, 1, true)
	if err != nil {
		return nil, fmt.Errorf("mpc: Q/K/V projection: %w", err)
	}
	q := addBias(wireSliceCols(qkv, 0, d), t.Bq)
	k := addBias(wireSliceCols(qkv, d, 2*d), t.Bk)
	v := addBias(wireSliceCols(qkv, 2*d, 3*d), t.Bv)
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
