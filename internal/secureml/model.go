package secureml

import (
	"fmt"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// LossKind selects the secure training objective.
type LossKind int

// Loss kinds: MSELoss covers linear/logistic/MLP/CNN/RNN (SecureML trains
// its classifiers against squared error on the squashed output); HingeLoss
// is the SVM objective, computed with one secure Hadamard (margin = y⊙pred)
// plus a joint margin reconstruction.
const (
	MSELoss LossKind = iota
	HingeLoss
)

// Phases reports a run's time split the way the paper does (Table 3):
// offline = client preparation, online = server processing.
type Phases struct {
	Offline float64
	Online  float64
	Total   float64
}

// Occupancy is online/total (Table 3's rightmost columns).
func (p Phases) Occupancy() float64 {
	if p.Total == 0 {
		return 0
	}
	return p.Online / p.Total
}

// Model is a secret-shared network bound to a deployment.
type Model struct {
	Name string
	d    *mpcsim.Deployment

	layers []secureLayer
	loss   LossKind
	cache  *siteCache

	batch   int
	batches int

	// offline-prepared batch shares
	xs, ys []shared

	offlineSplitEnd float64 // makespan after the per-batch input splits
	offlineEnd      float64
	prepared        bool

	// epochsDone counts completed training epochs across TrainEpochs and
	// TrainEpochsCheckpointed calls; Restore sets it from a checkpoint.
	epochsDone int
}

// FromPlain builds the secure counterpart of a plaintext model: the
// client splits the initial weights to the servers. Layer kinds map by
// type; unknown layers panic.
func FromPlain(d *mpcsim.Deployment, plain *ml.Model, loss LossKind) *Model {
	m := &Model{Name: plain.Name, d: d, loss: loss, cache: newSiteCache(d)}
	for i, l := range plain.Layers {
		switch pl := l.(type) {
		case *ml.Dense:
			m.layers = append(m.layers, newSecureDense(m, i, pl.InDim(), pl.OutDim(), pl.Act, pl.W, pl.B))
		case *ml.Conv2D:
			m.layers = append(m.layers, newSecureConv(m, i, pl.Shape, pl.Filters, pl.Act, pl.K, pl.B))
		case *ml.RNN:
			m.layers = append(m.layers, newSecureRNN(m, i, pl.InStep, pl.Hidden, pl.Steps, pl.Act, pl.Wx, pl.Wh, pl.B))
		case *ml.AvgPool:
			m.layers = append(m.layers, &securePool{idx: i, p: pl})
		case *ml.Attention:
			m.layers = append(m.layers, newSecureAttention(m, i, attWeightsOf(pl)))
		case *ml.TransformerBlock:
			m.layers = append(m.layers, &secureTransformer{
				att: newSecureAttention(m, i, attWeightsOf(pl.Att)),
				// Feed-forward sub-layers get site indices far above any
				// top-level layer index so their "L%d.*" keys can't collide.
				ff1: newSecureDense(m, ffSiteBase+i*2, pl.FF1.InDim(), pl.FF1.OutDim(), pl.FF1.Act, pl.FF1.W, pl.FF1.B),
				ff2: newSecureDense(m, ffSiteBase+i*2+1, pl.FF2.InDim(), pl.FF2.OutDim(), pl.FF2.Act, pl.FF2.W, pl.FF2.B),
			})
		default:
			panic(fmt.Sprintf("secureml: unsupported layer type %T", l))
		}
	}
	return m
}

// ffSiteBase offsets the site indices of transformer feed-forward
// sub-layers past any plausible top-level layer index (Load caps layer
// count at 1024).
const ffSiteBase = 1 << 16

func attWeightsOf(a *ml.Attention) *attentionWeights {
	return &attentionWeights{
		heads: a.Heads, causal: a.Causal,
		wq: a.Wq, wk: a.Wk, wv: a.Wv, wo: a.Wo,
		bq: a.Bq, bk: a.Bk, bv: a.Bv, bo: a.Bo,
	}
}

// splitClient secret-shares a client-held tensor and uploads the shares to
// the servers (offline).
func (m *Model) splitClient(secret *tensor.Matrix) shared {
	s0, s1, t := m.d.Client.Split(secret)
	t = m.d.Upload(secret.Bytes(), t)
	return shared{s0: s0, s1: s1, t0: t, t1: t}
}

// Deployment returns the underlying deployment.
func (m *Model) Deployment() *mpcsim.Deployment { return m.d }

// AllowLazySites permits site creation during the online phase (tests and
// single-shot inference convenience); offline/online attribution then
// blurs, so benches never use it.
func (m *Model) AllowLazySites() { m.cache.lazyOK = true }

// Prepare runs the offline phase for a training run: the client splits
// every batch of inputs and labels and generates every multiplication
// site's triplet. The xs[i] rows are one batch of samples; shapes must
// chain through the model.
func (m *Model) Prepare(xs, ys []*tensor.Matrix) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("secureml: Prepare needs matching, non-empty batch lists")
	}
	m.batch = xs[0].Rows
	m.batches = len(xs)
	m.xs = m.xs[:0]
	m.ys = m.ys[:0]
	var last *simtime.Task
	for b := range xs {
		if xs[b].Rows != m.batch {
			panic("secureml: Prepare requires a uniform batch size (triplet sites are batch-shared)")
		}
		m.xs = append(m.xs, m.splitClient(xs[b]))
		m.ys = append(m.ys, m.splitClient(ys[b]))
	}
	m.offlineSplitEnd = m.d.Eng.Makespan()
	// Triplet sites are shared across batches (released-implementation
	// semantics): one site set per layer geometry.
	for _, l := range m.layers {
		last = l.prepare(m.cache, m.batch, last)
	}
	if m.loss == HingeLoss {
		s := m.cache.prepare("hinge", "hadamard", m.batch, 1, 1, last)
		last = s.ready
	}
	m.offlineEnd = m.d.Eng.Makespan()
	m.prepared = true
}

// forwardBatch runs the secure forward pass for prepared batch b,
// returning the prediction shares.
func (m *Model) forwardBatch(b int) shared {
	tag := fmt.Sprintf("b%d", b)
	x := m.xs[b]
	for _, l := range m.layers {
		x = l.forward(m, tag, x)
	}
	return x
}

// lossGrad computes ∂L/∂pred as shares. MSE is share-local; hinge uses a
// secure Hadamard for the margin plus a joint reconstruction of the margin
// mask (documented leak, mirroring the activation protocol).
func (m *Model) lossGrad(b int, pred shared) shared {
	tag := fmt.Sprintf("b%d", b)
	y := m.ys[b]
	switch m.loss {
	case HingeLoss:
		margin := secureHadamard(m.d, m.cache, "hinge", fmt.Sprintf("hinge.%s", tag), y, pred)
		// Jointly reveal the margin to form the public subgradient mask
		// 1[y·pred < 1], then grad_i = −mask ⊙ y_i / batch (local).
		pub, t0, t1 := mpcsim.Reveal(fmt.Sprintf("hingemask.%s", tag), m.d.S0, m.d.S1,
			margin.s0, margin.s1, margin.t0, margin.t1)
		mask := tensor.New(pred.rows(), pred.cols())
		if tensor.ComputeEnabled() {
			for i, v := range pub.Data {
				if v < 1 {
					mask.Data[i] = 1
				}
			}
		}
		maskedY := shared{s0: y.s0, s1: y.s1,
			t0: m.d.S0.ElemTask("hinge.mask", 2*mask.Bytes(), t0),
			t1: m.d.S1.ElemTask("hinge.mask", 2*mask.Bytes(), t1)}
		g := hadamardPublic(m.d, maskedY, mask)
		return scaleShares(m.d, g, -1/float32(pred.rows()))
	default:
		g := subShares(m.d, pred, y)
		return scaleShares(m.d, g, 1/float32(pred.rows()))
	}
}

// trainOneEpoch runs one full pass of secure SGD over the prepared
// batches. Gradient accumulators are consumed by update() every batch,
// so between epochs the only mutable training state is the weight
// shares plus the RNG cursors — exactly what a checkpoint captures.
func (m *Model) trainOneEpoch(lr float32) {
	for b := 0; b < m.batches; b++ {
		tag := fmt.Sprintf("b%d", b)
		pred := m.forwardBatch(b)
		grad := m.lossGrad(b, pred)
		for i := len(m.layers) - 1; i >= 0; i-- {
			grad = m.layers[i].backward(m, tag, grad)
		}
		for _, l := range m.layers {
			l.update(m, lr)
		}
	}
}

// TrainEpochs runs secure SGD for the prepared batches. Epochs are
// relative: each call trains `epochs` more on top of whatever ran (or
// was restored) before.
func (m *Model) TrainEpochs(epochs int, lr float32) {
	if !m.prepared {
		panic("secureml: TrainEpochs before Prepare")
	}
	for e := 0; e < epochs; e++ {
		m.trainOneEpoch(lr)
		m.epochsDone++
	}
}

// EpochsDone reports how many epochs the model has completed, including
// epochs inherited through Restore.
func (m *Model) EpochsDone() int { return m.epochsDone }

// TrainEpochsCheckpointed trains until `total` epochs have completed —
// absolute, so a model restored at epoch k trains total−k more — and
// hands a checkpoint to sink every `every` epochs (and always at
// `total`). A sink error stops training and is returned; the epochs
// before it remain applied.
//
// Checkpoint cadence affects bit-exactness, not just durability: every
// checkpoint rebases the compressed E/F delta streams, which changes
// fp32 rounding downstream. Two runs match bit-for-bit only if they
// checkpoint at the same epochs — compare a resumed run against an
// uninterrupted run with the same `every`, not against TrainEpochs.
func (m *Model) TrainEpochsCheckpointed(total int, lr float32, every int, sink func(epoch int, data []byte) error) error {
	if !m.prepared {
		panic("secureml: TrainEpochsCheckpointed before Prepare")
	}
	if every <= 0 {
		every = 1
	}
	for m.epochsDone < total {
		m.trainOneEpoch(lr)
		m.epochsDone++
		if sink != nil && (m.epochsDone%every == 0 || m.epochsDone == total) {
			if err := sink(m.epochsDone, m.Checkpoint(lr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// InferBatches runs forward passes only over the prepared batches (the
// paper's secure-inference experiment, Fig. 13). Results are merged by
// the client; the returned matrices are the plaintext predictions.
func (m *Model) InferBatches() []*tensor.Matrix {
	if !m.prepared {
		panic("secureml: InferBatches before Prepare")
	}
	out := make([]*tensor.Matrix, m.batches)
	for b := 0; b < m.batches; b++ {
		pred := m.forwardBatch(b)
		tDown := m.d.Download(pred.s0.Bytes(), pred.t0, pred.t1)
		merged, _ := m.d.Client.Combine(pred.s0, pred.s1, tDown)
		out[b] = merged
	}
	return out
}

// OfflineSplit returns the portion of the offline phase spent splitting
// and uploading batch data (scales with batch count), as opposed to the
// batch-shared triplet generation. Benchmark scaling uses it.
func (m *Model) OfflineSplit() float64 { return m.offlineSplitEnd }

// Phases reports the offline/online/total split of everything run so far.
func (m *Model) Phases() Phases {
	total := m.d.Eng.Makespan()
	online := total - m.offlineEnd
	if online < 0 {
		online = 0
	}
	return Phases{Offline: m.offlineEnd, Online: online, Total: total}
}

// RevealInto reconstructs the trained weight shares back into the
// plaintext model (the client's final download). Layer structure must
// match FromPlain's source.
func (m *Model) RevealInto(plain *ml.Model) {
	for i, l := range m.layers {
		switch sl := l.(type) {
		case *secureDense:
			pl := plain.Layers[i].(*ml.Dense)
			pl.W.CopyFrom(sl.w.reveal())
			pl.B.CopyFrom(sl.b.reveal())
		case *secureConv:
			pl := plain.Layers[i].(*ml.Conv2D)
			pl.K.CopyFrom(sl.k.reveal())
			pl.B.CopyFrom(sl.b.reveal())
		case *secureRNN:
			pl := plain.Layers[i].(*ml.RNN)
			pl.Wx.CopyFrom(sl.wx.reveal())
			pl.Wh.CopyFrom(sl.wh.reveal())
			pl.B.CopyFrom(sl.b.reveal())
		case *secureAttention:
			revealAttention(sl, plain.Layers[i].(*ml.Attention))
		case *secureTransformer:
			pl := plain.Layers[i].(*ml.TransformerBlock)
			revealAttention(sl.att, pl.Att)
			pl.FF1.W.CopyFrom(sl.ff1.w.reveal())
			pl.FF1.B.CopyFrom(sl.ff1.b.reveal())
			pl.FF2.W.CopyFrom(sl.ff2.w.reveal())
			pl.FF2.B.CopyFrom(sl.ff2.b.reveal())
		}
	}
}

func revealAttention(sl *secureAttention, pl *ml.Attention) {
	pl.Wq.CopyFrom(sl.wq.reveal())
	pl.Wk.CopyFrom(sl.wk.reveal())
	pl.Wv.CopyFrom(sl.wv.reveal())
	pl.Wo.CopyFrom(sl.wo.reveal())
	pl.Bq.CopyFrom(sl.bq.reveal())
	pl.Bk.CopyFrom(sl.bk.reveal())
	pl.Bv.CopyFrom(sl.bv.reveal())
	pl.Bo.CopyFrom(sl.bo.reveal())
}
