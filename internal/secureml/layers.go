package secureml

import (
	"fmt"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// secureLayer is the secret-shared counterpart of ml.Layer. The batchTag
// identifies the batch's multiplication sites so triplets and compression
// streams stay aligned across epochs.
type secureLayer interface {
	// prepare creates the layer's offline sites (triplets are shared
	// across batches, as in the released implementation — Table 3's
	// offline phase is one batch's worth of triplets).
	prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task
	forward(m *Model, batchTag string, x shared) shared
	backward(m *Model, batchTag string, dout shared) shared
	update(m *Model, lr float32)
	inDim() int
	outDim() int
}

// secureDense is a fully connected layer over shares.
type secureDense struct {
	idx     int
	in, out int
	act     ml.Activation // ml.Identity: no activation protocol
	w, b    shared

	// forward cache
	x     shared
	deriv *tensor.Matrix // public activation derivative
	// gradient accumulators
	dw, db  shared
	hasGrad bool
}

func newSecureDense(m *Model, idx, in, out int, act ml.Activation, w, bmat *tensor.Matrix) *secureDense {
	l := &secureDense{idx: idx, in: in, out: out, act: act}
	l.w = m.splitClient(w)
	l.b = m.splitClient(bmat)
	return l
}

func (l *secureDense) inDim() int  { return l.in }
func (l *secureDense) outDim() int { return l.out }

func (l *secureDense) key(op string) string {
	return fmt.Sprintf("L%d.%s", l.idx, op)
}

func (l *secureDense) prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task {
	s1 := cache.prepare(l.key("fwd"), "gemm", batch, l.in, l.out, dep)
	s2 := cache.prepare(l.key("dW"), "gemm", l.in, batch, l.out, s1.ready)
	s3 := cache.prepare(l.key("dX"), "gemm", batch, l.out, l.in, s2.ready)
	return s3.ready
}

func (l *secureDense) forward(m *Model, batchTag string, x shared) shared {
	l.x = x
	y := secureMatMul(m.d, m.cache, l.key("fwd"), l.key("fwd")+"."+batchTag, x, l.w)
	y = addBias(m.d, y, l.b)
	if l.act != ml.Identity {
		act, deriv := secureActivate(m.d, l.key("act")+"."+batchTag, l.act, y)
		l.deriv = deriv
		return act
	}
	l.deriv = nil
	return y
}

func (l *secureDense) backward(m *Model, batchTag string, dout shared) shared {
	delta := dout
	if l.deriv != nil {
		delta = hadamardPublic(m.d, dout, l.deriv)
	}
	// dW = Xᵀ × δ (secure GEMM); dB = colsum(δ) (local).
	xT := transposeShares(m.d, l.x)
	gw := secureMatMul(m.d, m.cache, l.key("dW"), l.key("dW")+"."+batchTag, xT, delta)
	gb := colSum(m.d, delta)
	if l.hasGrad {
		l.dw = addShares(m.d, l.dw, gw)
		l.db = addShares(m.d, l.db, gb)
	} else {
		l.dw, l.db = gw, gb
		l.hasGrad = true
	}
	// dX = δ × Wᵀ (secure GEMM).
	wT := transposeShares(m.d, l.w)
	return secureMatMul(m.d, m.cache, l.key("dX"), l.key("dX")+"."+batchTag, delta, wT)
}

func (l *secureDense) update(m *Model, lr float32) {
	if !l.hasGrad {
		return
	}
	l.w = axpyInPlace(m.d, l.w, -lr, l.dw)
	l.b = axpyInPlace(m.d, l.b, -lr, l.db)
	l.hasGrad = false
}

// secureConv is the convolutional layer: im2col locally on shares, then a
// dense-style secure GEMM against the shared kernel matrix.
type secureConv struct {
	idx     int
	shape   tensor.ConvShape
	filters int
	act     ml.Activation
	k, b    shared

	batch   int
	cols    shared
	deriv   *tensor.Matrix
	dk, db  shared
	hasGrad bool
}

func newSecureConv(m *Model, idx int, shape tensor.ConvShape, filters int,
	act ml.Activation, k, bmat *tensor.Matrix) *secureConv {
	l := &secureConv{idx: idx, shape: shape, filters: filters, act: act}
	l.k = m.splitClient(k)
	l.b = m.splitClient(bmat)
	return l
}

func (l *secureConv) inDim() int  { return l.shape.InDim() }
func (l *secureConv) outDim() int { return l.shape.Patches() * l.filters }

func (l *secureConv) key(op string) string {
	return fmt.Sprintf("L%d.%s", l.idx, op)
}

func (l *secureConv) prepare(cache *siteCache, batch int, dep *simtime.Task) *simtime.Task {
	rows := batch * l.shape.Patches()
	ps := l.shape.PatchSize()
	s1 := cache.prepare(l.key("fwd"), "gemm", rows, ps, l.filters, dep)
	s2 := cache.prepare(l.key("dK"), "gemm", ps, rows, l.filters, s1.ready)
	s3 := cache.prepare(l.key("dCols"), "gemm", rows, l.filters, ps, s2.ready)
	return s3.ready
}

func (l *secureConv) forward(m *Model, batchTag string, x shared) shared {
	l.batch = x.rows()
	l.cols = im2colShares(m.d, x, l.shape)
	y := secureMatMul(m.d, m.cache, l.key("fwd"), l.key("fwd")+"."+batchTag, l.cols, l.k)
	y = addBias(m.d, y, l.b)
	if l.act != ml.Identity {
		act, deriv := secureActivate(m.d, l.key("act")+"."+batchTag, l.act, y)
		l.deriv = deriv
		// Reshape to batch × (patches·filters).
		return reshapeShares(m.d, act, l.batch, l.outDim())
	}
	l.deriv = nil
	return reshapeShares(m.d, y, l.batch, l.outDim())
}

func (l *secureConv) backward(m *Model, batchTag string, dout shared) shared {
	delta := reshapeShares(m.d, dout, l.batch*l.shape.Patches(), l.filters)
	if l.deriv != nil {
		delta = hadamardPublic(m.d, delta, l.deriv)
	}
	colsT := transposeShares(m.d, l.cols)
	gk := secureMatMul(m.d, m.cache, l.key("dK"), l.key("dK")+"."+batchTag, colsT, delta)
	gb := colSum(m.d, delta)
	if l.hasGrad {
		l.dk = addShares(m.d, l.dk, gk)
		l.db = addShares(m.d, l.db, gb)
	} else {
		l.dk, l.db = gk, gb
		l.hasGrad = true
	}
	kT := transposeShares(m.d, l.k)
	dcols := secureMatMul(m.d, m.cache, l.key("dCols"), l.key("dCols")+"."+batchTag, delta, kT)
	return col2imShares(m.d, dcols, l.batch, l.shape)
}

func (l *secureConv) update(m *Model, lr float32) {
	if !l.hasGrad {
		return
	}
	l.k = axpyInPlace(m.d, l.k, -lr, l.dk)
	l.b = axpyInPlace(m.d, l.b, -lr, l.db)
	l.hasGrad = false
}

// reshapeShares reinterprets both shares' geometry (free).
func reshapeShares(d *mpcsim.Deployment, s shared, rows, cols int) shared {
	return shared{
		s0: s.s0.Reshape(rows, cols),
		s1: s.s1.Reshape(rows, cols),
		t0: s.t0, t1: s.t1,
	}
}
