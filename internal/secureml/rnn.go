package secureml

import (
	"fmt"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// secureRNN is the Elman cell over shares, unrolled over Steps timesteps.
// Every x_t·Wx, h·Wh and BPTT multiplication is its own Beaver site, and
// every step's activation is one re-sharing exchange — the communication-
// heavy profile that makes RNN the slowest SecureML benchmark (Table 3)
// and the biggest ParSecureML win (772× slowdown → 6.8×, Table 2).
type secureRNN struct {
	idx                   int
	inStep, hidden, steps int
	act                   ml.Activation
	wx, wh, b             shared

	xts    []shared
	hs     []shared
	derivs []*tensor.Matrix

	dwx, dwh, db shared
	hasGrad      bool
}

func newSecureRNN(m *Model, idx, inStep, hidden, steps int, act ml.Activation,
	wx, wh, bmat *tensor.Matrix) *secureRNN {
	l := &secureRNN{idx: idx, inStep: inStep, hidden: hidden, steps: steps, act: act}
	l.wx = m.splitClient(wx)
	l.wh = m.splitClient(wh)
	l.b = m.splitClient(bmat)
	return l
}

func (l *secureRNN) inDim() int  { return l.inStep * l.steps }
func (l *secureRNN) outDim() int { return l.hidden }

func (l *secureRNN) key(op string, t int) string {
	return fmt.Sprintf("L%d.%s.t%d", l.idx, op, t)
}

func (l *secureRNN) skey(op string, t int, batchTag string) string {
	return l.key(op, t) + "." + batchTag
}

func (l *secureRNN) prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task {
	last := dep
	for t := 0; t < l.steps; t++ {
		last = cache.prepare(l.key("fx", t), "gemm", batch, l.inStep, l.hidden, last).ready
		last = cache.prepare(l.key("fh", t), "gemm", batch, l.hidden, l.hidden, last).ready
		last = cache.prepare(l.key("dWx", t), "gemm", l.inStep, batch, l.hidden, last).ready
		last = cache.prepare(l.key("dWh", t), "gemm", l.hidden, batch, l.hidden, last).ready
		last = cache.prepare(l.key("dX", t), "gemm", batch, l.hidden, l.inStep, last).ready
		last = cache.prepare(l.key("dH", t), "gemm", batch, l.hidden, l.hidden, last).ready
	}
	return last
}

func (l *secureRNN) forward(m *Model, batchTag string, x shared) shared {
	batch := x.rows()
	l.xts = l.xts[:0]
	l.hs = l.hs[:0]
	l.derivs = l.derivs[:0]

	h := shared{s0: tensor.New(batch, l.hidden), s1: tensor.New(batch, l.hidden)}
	l.hs = append(l.hs, h)
	for t := 0; t < l.steps; t++ {
		xt := sliceCols(m.d, x, t*l.inStep, (t+1)*l.inStep)
		l.xts = append(l.xts, xt)
		px := secureMatMul(m.d, m.cache, l.key("fx", t), l.skey("fx", t, batchTag), xt, l.wx)
		ph := secureMatMul(m.d, m.cache, l.key("fh", t), l.skey("fh", t, batchTag), h, l.wh)
		pre := addShares(m.d, px, ph)
		pre = addBias(m.d, pre, l.b)
		var deriv *tensor.Matrix
		h, deriv = secureActivate(m.d, l.skey("act", t, batchTag), l.act, pre)
		l.derivs = append(l.derivs, deriv)
		l.hs = append(l.hs, h)
	}
	return h
}

func (l *secureRNN) backward(m *Model, batchTag string, dout shared) shared {
	batch := dout.rows()
	dx := shared{s0: tensor.New(batch, l.inDim()), s1: tensor.New(batch, l.inDim())}
	dh := dout

	var dwx, dwh, db shared
	first := true
	for t := l.steps - 1; t >= 0; t-- {
		delta := hadamardPublic(m.d, dh, l.derivs[t])

		xtT := transposeShares(m.d, l.xts[t])
		gx := secureMatMul(m.d, m.cache, l.key("dWx", t), l.skey("dWx", t, batchTag), xtT, delta)
		hT := transposeShares(m.d, l.hs[t])
		gh := secureMatMul(m.d, m.cache, l.key("dWh", t), l.skey("dWh", t, batchTag), hT, delta)
		gb := colSum(m.d, delta)
		if first {
			dwx, dwh, db = gx, gh, gb
			first = false
		} else {
			dwx = addShares(m.d, dwx, gx)
			dwh = addShares(m.d, dwh, gh)
			db = addShares(m.d, db, gb)
		}

		wxT := transposeShares(m.d, l.wx)
		dxt := secureMatMul(m.d, m.cache, l.key("dX", t), l.skey("dX", t, batchTag), delta, wxT)
		dx = writeCols(m.d, dx, dxt, t*l.inStep)

		whT := transposeShares(m.d, l.wh)
		dh = secureMatMul(m.d, m.cache, l.key("dH", t), l.skey("dH", t, batchTag), delta, whT)
	}
	if l.hasGrad {
		l.dwx = addShares(m.d, l.dwx, dwx)
		l.dwh = addShares(m.d, l.dwh, dwh)
		l.db = addShares(m.d, l.db, db)
	} else {
		l.dwx, l.dwh, l.db = dwx, dwh, db
		l.hasGrad = true
	}
	return dx
}

func (l *secureRNN) update(m *Model, lr float32) {
	if !l.hasGrad {
		return
	}
	l.wx = axpyInPlace(m.d, l.wx, -lr, l.dwx)
	l.wh = axpyInPlace(m.d, l.wh, -lr, l.dwh)
	l.b = axpyInPlace(m.d, l.b, -lr, l.db)
	l.hasGrad = false
}

// writeCols copies src's columns into dst starting at column lo (local
// data movement on both shares); dst is returned with updated readiness.
func writeCols(d *mpcsim.Deployment, dst, src shared, lo int) shared {
	write := func(dm, sm *tensor.Matrix) {
		if !tensor.ComputeEnabled() {
			return
		}
		for r := 0; r < sm.Rows; r++ {
			copy(dm.Row(r)[lo:lo+sm.Cols], sm.Row(r))
		}
	}
	write(dst.s0, src.s0)
	write(dst.s1, src.s1)
	return shared{
		s0: dst.s0, s1: dst.s1,
		t0: d.S0.ElemTask("writecols", 2*src.s0.Bytes(), dst.t0, src.t0),
		t1: d.S1.ElemTask("writecols", 2*src.s1.Bytes(), dst.t1, src.t1),
	}
}
