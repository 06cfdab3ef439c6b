package secureml

import (
	"fmt"
	"math"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// secureAttention is multi-head self-attention over shares. Attention is
// GEMM-dominated, which is exactly the shape the banded E/F pipeline and
// the wire batching were built for: the Q/K/V projections, every head's
// QKᵀ score product and score·V context product, and the output
// projection are each their own Beaver multiplication site. The softmax
// is the one nonlinearity — it runs the reveal-and-reshare protocol
// (mpcsim.SecureRowSoftmax) with the piecewise/polynomial approximation
// whose error contract lives in DESIGN.md, mirroring how the existing
// activations are handled. The residual combiner is the linear
// (x + MHA(x))/√2 layernorm substitute, so it stays share-local.
type secureAttention struct {
	idx    int
	dm     int // model width
	heads  int
	causal bool

	wq, wk, wv, wo shared
	bq, bk, bv, bo shared

	// forward caches
	x, q, k, v, ctx shared
	qhs, khs, vhs   []shared
	ps              []shared         // re-shared per-head probabilities
	probs           []*tensor.Matrix // public per-head probabilities

	dwq, dwk, dwv, dwo shared
	dbq, dbk, dbv, dbo shared
	hasGrad            bool
}

func newSecureAttention(m *Model, idx int, pl *attentionWeights) *secureAttention {
	l := &secureAttention{idx: idx, dm: pl.wq.Rows, heads: pl.heads, causal: pl.causal}
	l.wq, l.wk, l.wv, l.wo = m.splitClient(pl.wq), m.splitClient(pl.wk), m.splitClient(pl.wv), m.splitClient(pl.wo)
	l.bq, l.bk, l.bv, l.bo = m.splitClient(pl.bq), m.splitClient(pl.bk), m.splitClient(pl.bv), m.splitClient(pl.bo)
	return l
}

// attentionWeights is the plain-side parameter bundle newSecureAttention
// splits (decoupled from ml.Attention so RevealInto can reuse it).
type attentionWeights struct {
	heads          int
	causal         bool
	wq, wk, wv, wo *tensor.Matrix
	bq, bk, bv, bo *tensor.Matrix
}

func (l *secureAttention) inDim() int  { return l.dm }
func (l *secureAttention) outDim() int { return l.dm }

func (l *secureAttention) key(op string) string {
	return fmt.Sprintf("L%d.%s", l.idx, op)
}

func (l *secureAttention) hkey(op string, h int) string {
	return fmt.Sprintf("L%d.%s.h%d", l.idx, op, h)
}

func (l *secureAttention) prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task {
	d, dh := l.dm, l.dm/l.heads
	last := dep
	for _, op := range []string{"q", "k", "v"} {
		last = cache.prepare(l.key(op), "gemm", batch, d, d, last).ready
	}
	for h := 0; h < l.heads; h++ {
		last = cache.prepare(l.hkey("sc", h), "gemm", batch, dh, batch, last).ready
		last = cache.prepare(l.hkey("ctx", h), "gemm", batch, batch, dh, last).ready
	}
	last = cache.prepare(l.key("o"), "gemm", batch, d, d, last).ready
	// backward
	last = cache.prepare(l.key("dctx"), "gemm", batch, d, d, last).ready
	last = cache.prepare(l.key("dWo"), "gemm", d, batch, d, last).ready
	for h := 0; h < l.heads; h++ {
		last = cache.prepare(l.hkey("dP", h), "gemm", batch, dh, batch, last).ready
		last = cache.prepare(l.hkey("dV", h), "gemm", batch, batch, dh, last).ready
		last = cache.prepare(l.hkey("dQ", h), "gemm", batch, batch, dh, last).ready
		last = cache.prepare(l.hkey("dK", h), "gemm", batch, batch, dh, last).ready
	}
	for _, op := range []string{"dWq", "dWk", "dWv"} {
		last = cache.prepare(l.key(op), "gemm", d, batch, d, last).ready
	}
	for _, op := range []string{"dXq", "dXk", "dXv"} {
		last = cache.prepare(l.key(op), "gemm", batch, d, d, last).ready
	}
	return last
}

// secureSoftmax runs the reveal-and-reshare softmax protocol, returning
// the re-shared probabilities plus the public probability matrix both
// servers hold afterwards.
func secureSoftmax(d *mpcsim.Deployment, key string, causal bool, s shared) (shared, *tensor.Matrix) {
	r0, r1 := mpcsim.SecureRowSoftmax(key, d.S0, d.S1, d.MaskPool(), causal, s.s0, s.s1, s.t0, s.t1)
	return shared{s0: r0.Share, s1: r1.Share, t0: r0.Done, t1: r1.Done}, r0.Deriv
}

// softmaxBackwardShares computes dS = P⊙(dP − rowsum(dP⊙P)) on shares.
// P is public after the softmax reveal and the map is linear in dP, so
// it is share-local — no extra multiplication sites or exchanges.
func softmaxBackwardShares(d *mpcsim.Deployment, pub *tensor.Matrix, dp shared) shared {
	comp := func(m *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(m.Rows, m.Cols)
		if !tensor.ComputeEnabled() {
			return out
		}
		for r := 0; r < m.Rows; r++ {
			pr, dr, or := pub.Row(r), m.Row(r), out.Row(r)
			var dot float32
			for c := range pr {
				dot += pr[c] * dr[c]
			}
			for c := range pr {
				or[c] = pr[c] * (dr[c] - dot)
			}
		}
		return out
	}
	return localBoth(d, "smbwd", 4*dp.s0.Bytes(), dp, comp)
}

func (l *secureAttention) forward(m *Model, batchTag string, x shared) shared {
	d, dh := l.dm, l.dm/l.heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	l.x = x
	l.q = addBias(m.d, secureMatMul(m.d, m.cache, l.key("q"), l.key("q")+"."+batchTag, x, l.wq), l.bq)
	l.k = addBias(m.d, secureMatMul(m.d, m.cache, l.key("k"), l.key("k")+"."+batchTag, x, l.wk), l.bk)
	l.v = addBias(m.d, secureMatMul(m.d, m.cache, l.key("v"), l.key("v")+"."+batchTag, x, l.wv), l.bv)

	batch := x.rows()
	l.ctx = shared{s0: tensor.New(batch, d), s1: tensor.New(batch, d), t0: x.t0, t1: x.t1}
	l.qhs, l.khs, l.vhs = l.qhs[:0], l.khs[:0], l.vhs[:0]
	l.ps, l.probs = l.ps[:0], l.probs[:0]
	for h := 0; h < l.heads; h++ {
		lo := h * dh
		qh := sliceCols(m.d, l.q, lo, lo+dh)
		kh := sliceCols(m.d, l.k, lo, lo+dh)
		vh := sliceCols(m.d, l.v, lo, lo+dh)
		l.qhs, l.khs, l.vhs = append(l.qhs, qh), append(l.khs, kh), append(l.vhs, vh)
		s := secureMatMul(m.d, m.cache, l.hkey("sc", h), l.hkey("sc", h)+"."+batchTag, qh, transposeShares(m.d, kh))
		s = scaleShares(m.d, s, scale)
		p, pub := secureSoftmax(m.d, l.hkey("sm", h)+"."+batchTag, l.causal, s)
		l.ps, l.probs = append(l.ps, p), append(l.probs, pub)
		ch := secureMatMul(m.d, m.cache, l.hkey("ctx", h), l.hkey("ctx", h)+"."+batchTag, p, vh)
		l.ctx = writeCols(m.d, l.ctx, ch, lo)
	}
	out := addBias(m.d, secureMatMul(m.d, m.cache, l.key("o"), l.key("o")+"."+batchTag, l.ctx, l.wo), l.bo)
	return scaleShares(m.d, addShares(m.d, x, out), ml.ResidualScale)
}

func (l *secureAttention) backward(m *Model, batchTag string, dout shared) shared {
	d, dh := l.dm, l.dm/l.heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	batch := dout.rows()

	// y = (x + ctx·Wo + bo)·α
	dres := scaleShares(m.d, dout, ml.ResidualScale)
	dctx := secureMatMul(m.d, m.cache, l.key("dctx"), l.key("dctx")+"."+batchTag, dres, transposeShares(m.d, l.wo))
	gwo := secureMatMul(m.d, m.cache, l.key("dWo"), l.key("dWo")+"."+batchTag, transposeShares(m.d, l.ctx), dres)
	gbo := colSum(m.d, dres)

	dq := shared{s0: tensor.New(batch, d), s1: tensor.New(batch, d), t0: dout.t0, t1: dout.t1}
	dk := shared{s0: tensor.New(batch, d), s1: tensor.New(batch, d), t0: dout.t0, t1: dout.t1}
	dv := shared{s0: tensor.New(batch, d), s1: tensor.New(batch, d), t0: dout.t0, t1: dout.t1}
	for h := 0; h < l.heads; h++ {
		lo := h * dh
		dch := sliceCols(m.d, dctx, lo, lo+dh)
		dp := secureMatMul(m.d, m.cache, l.hkey("dP", h), l.hkey("dP", h)+"."+batchTag, dch, transposeShares(m.d, l.vhs[h]))
		dvh := secureMatMul(m.d, m.cache, l.hkey("dV", h), l.hkey("dV", h)+"."+batchTag, transposeShares(m.d, l.ps[h]), dch)
		ds := softmaxBackwardShares(m.d, l.probs[h], dp)
		ds = scaleShares(m.d, ds, scale)
		dqh := secureMatMul(m.d, m.cache, l.hkey("dQ", h), l.hkey("dQ", h)+"."+batchTag, ds, l.khs[h])
		dkh := secureMatMul(m.d, m.cache, l.hkey("dK", h), l.hkey("dK", h)+"."+batchTag, transposeShares(m.d, ds), l.qhs[h])
		dq = writeCols(m.d, dq, dqh, lo)
		dk = writeCols(m.d, dk, dkh, lo)
		dv = writeCols(m.d, dv, dvh, lo)
	}

	xT := transposeShares(m.d, l.x)
	gwq := secureMatMul(m.d, m.cache, l.key("dWq"), l.key("dWq")+"."+batchTag, xT, dq)
	gwk := secureMatMul(m.d, m.cache, l.key("dWk"), l.key("dWk")+"."+batchTag, xT, dk)
	gwv := secureMatMul(m.d, m.cache, l.key("dWv"), l.key("dWv")+"."+batchTag, xT, dv)
	gbq, gbk, gbv := colSum(m.d, dq), colSum(m.d, dk), colSum(m.d, dv)

	dx := dres
	dx = addShares(m.d, dx, secureMatMul(m.d, m.cache, l.key("dXq"), l.key("dXq")+"."+batchTag, dq, transposeShares(m.d, l.wq)))
	dx = addShares(m.d, dx, secureMatMul(m.d, m.cache, l.key("dXk"), l.key("dXk")+"."+batchTag, dk, transposeShares(m.d, l.wk)))
	dx = addShares(m.d, dx, secureMatMul(m.d, m.cache, l.key("dXv"), l.key("dXv")+"."+batchTag, dv, transposeShares(m.d, l.wv)))

	if l.hasGrad {
		l.dwq, l.dwk, l.dwv, l.dwo = addShares(m.d, l.dwq, gwq), addShares(m.d, l.dwk, gwk), addShares(m.d, l.dwv, gwv), addShares(m.d, l.dwo, gwo)
		l.dbq, l.dbk, l.dbv, l.dbo = addShares(m.d, l.dbq, gbq), addShares(m.d, l.dbk, gbk), addShares(m.d, l.dbv, gbv), addShares(m.d, l.dbo, gbo)
	} else {
		l.dwq, l.dwk, l.dwv, l.dwo = gwq, gwk, gwv, gwo
		l.dbq, l.dbk, l.dbv, l.dbo = gbq, gbk, gbv, gbo
		l.hasGrad = true
	}
	return dx
}

func (l *secureAttention) update(m *Model, lr float32) {
	if !l.hasGrad {
		return
	}
	l.wq = axpyInPlace(m.d, l.wq, -lr, l.dwq)
	l.wk = axpyInPlace(m.d, l.wk, -lr, l.dwk)
	l.wv = axpyInPlace(m.d, l.wv, -lr, l.dwv)
	l.wo = axpyInPlace(m.d, l.wo, -lr, l.dwo)
	l.bq = axpyInPlace(m.d, l.bq, -lr, l.dbq)
	l.bk = axpyInPlace(m.d, l.bk, -lr, l.dbk)
	l.bv = axpyInPlace(m.d, l.bv, -lr, l.dbv)
	l.bo = axpyInPlace(m.d, l.bo, -lr, l.dbo)
	l.hasGrad = false
}

// secureTransformer is attention followed by the two-layer feed-forward
// stack (plain secureDense machinery), each branch wrapped in the scaled
// residual — the secure counterpart of ml.TransformerBlock.
type secureTransformer struct {
	att      *secureAttention
	ff1, ff2 *secureDense

	y shared // attention output cache
}

func (l *secureTransformer) inDim() int  { return l.att.dm }
func (l *secureTransformer) outDim() int { return l.att.dm }

func (l *secureTransformer) prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task {
	last := l.att.prepare(cache, batch, dep)
	last = l.ff1.prepare(cache, batch, last)
	return l.ff2.prepare(cache, batch, last)
}

func (l *secureTransformer) forward(m *Model, batchTag string, x shared) shared {
	y := l.att.forward(m, batchTag, x)
	l.y = y
	h := l.ff2.forward(m, batchTag, l.ff1.forward(m, batchTag, y))
	return scaleShares(m.d, addShares(m.d, y, h), ml.ResidualScale)
}

func (l *secureTransformer) backward(m *Model, batchTag string, dout shared) shared {
	d1 := scaleShares(m.d, dout, ml.ResidualScale)
	dff := l.ff1.backward(m, batchTag, l.ff2.backward(m, batchTag, d1))
	dy := addShares(m.d, d1, dff)
	return l.att.backward(m, batchTag, dy)
}

func (l *secureTransformer) update(m *Model, lr float32) {
	l.att.update(m, lr)
	l.ff1.update(m, lr)
	l.ff2.update(m, lr)
}
