// Package parsecureml is a from-scratch Go reproduction of ParSecureML
// (Chen et al., ICPP 2020; extended in IEEE TPDS 2021): a two-party secure
// machine learning framework accelerated by GPUs. The package exposes the
// framework's public surface — deployments, secure models, datasets and
// the paper-experiment harness — over the internal substrates (simulated
// V100 GPUs with an analytic cost model, Beaver-triplet MPC in float and
// Z_2^64 domains, compressed inter-node transport, and the double
// pipeline). See DESIGN.md for the architecture and the hardware
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	fw := parsecureml.New(parsecureml.DefaultConfig())
//	c, _ := fw.SecureMatMul("demo", a, b) // C = A×B without any party seeing A or B
//
// Secure training:
//
//	plain := parsecureml.NewMLP(784, parsecureml.NewRand(1))
//	model := fw.Secure(plain, parsecureml.MSE)
//	model.Prepare(batchesX, batchesY)
//	model.TrainEpochs(5, 0.3)
package parsecureml

import (
	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/secureml"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// Matrix is a dense row-major FP32 matrix (the framework's data type).
type Matrix = tensor.Matrix

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols) }

// MatrixFromSlice wraps row-major data without copying.
func MatrixFromSlice(rows, cols int, data []float32) *Matrix {
	return tensor.FromSlice(rows, cols, data)
}

// Rand is a deterministic random stream (MT19937-backed).
type Rand = rng.Rand

// NewRand returns a stream seeded from a 64-bit seed.
func NewRand(seed uint64) *Rand { return rng.NewRand(seed) }

// Config selects deployment features: GPU usage, Tensor Cores, the double
// pipeline, compressed transmission, and CPU parallelism.
type Config = mpcsim.Config

// DefaultConfig returns the full ParSecureML feature set on the paper's
// modeled platform (V100 + 100 Gb/s fabric).
func DefaultConfig() Config { return mpcsim.DefaultConfig() }

// SecureMLBaselineConfig returns the paper's baseline: CPU-only servers,
// serial CPU, no pipeline, no compression.
func SecureMLBaselineConfig() Config { return mpcsim.SecureMLConfig() }

// Framework is one client + two-server deployment.
type Framework struct {
	d *mpcsim.Deployment
}

// New builds a deployment with cfg's features.
func New(cfg Config) *Framework {
	return &Framework{d: mpcsim.NewDeployment(cfg)}
}

// Deployment exposes the underlying deployment for advanced use
// (per-server links, the simtime engine, the mask pool).
func (f *Framework) Deployment() *mpcsim.Deployment { return f.d }

// SecureMatMul computes C = A×B under two-party computation: the client
// splits the inputs, the servers run the Beaver-triplet protocol
// (reconstruct on CPU, Eq. 8 on the GPUs), and the client merges the
// result. Repeated calls with the same stream reuse the multiplication
// site, which is what makes the compressed transmission effective across
// epochs. Returns the product and the modeled completion time (seconds).
func (f *Framework) SecureMatMul(stream string, a, b *Matrix) (*Matrix, float64) {
	c, task := f.d.SecureMatMul(stream, a, b)
	return c, task.End
}

// SecureHadamard computes C = A⊙B (element-wise) under two-party
// computation — the paper's CNN point-to-point pattern.
func (f *Framework) SecureHadamard(stream string, a, b *Matrix) (*Matrix, float64) {
	c, task := f.d.SecureHadamard(stream, a, b)
	return c, task.End
}

// ModeledTime returns the deployment's simulated makespan so far: the
// modeled wall-clock of everything executed on the paper's platform.
func (f *Framework) ModeledTime() float64 { return f.d.Eng.Makespan() }

// Engine exposes the discrete-event engine (timelines, utilization,
// critical path).
func (f *Framework) Engine() *simtime.Engine { return f.d.Eng }

// TrafficStats reports inter-server communication: wire bytes actually
// sent, bytes a dense-only sender would have sent, and the number of
// CSR-compressed transmissions.
func (f *Framework) TrafficStats() (wire, dense int64, compressedSends int) {
	s0 := f.d.S0.Link().Stats()
	s1 := f.d.S1.Link().Stats()
	return s0.WireBytes + s1.WireBytes,
		s0.DenseBytes + s1.DenseBytes,
		s0.CompressedSends + s1.CompressedSends
}

// LossKind selects the secure training objective.
type LossKind = secureml.LossKind

// Training objectives.
const (
	MSE   = secureml.MSELoss
	Hinge = secureml.HingeLoss
)

// SecureModel is a secret-shared network whose training and inference run
// entirely under the two-party protocol.
type SecureModel = secureml.Model

// Phases is a run's offline/online/total time split.
type Phases = secureml.Phases

// Secure builds the secret-shared counterpart of a plaintext model: the
// client splits the initial weights to the servers.
func (f *Framework) Secure(plain *Model, loss LossKind) *SecureModel {
	return secureml.FromPlain(f.d, plain, loss)
}

// Model is a plaintext network (the architectures of the paper's six
// benchmarks), usable standalone or as the source for Secure.
type Model = ml.Model

// Plaintext model constructors (§7.1 architectures).
var (
	// NewMLP is the input→128→64→10 perceptron.
	NewMLP = ml.NewMLP
	// NewCNN is one 5×5 convolution plus two dense layers.
	NewCNN = ml.NewCNN
	// NewRNNModel is an Elman cell plus a dense readout.
	NewRNNModel = ml.NewRNNModel
	// NewTransformer is an input projection, one causal multi-head
	// attention block with a feed-forward stack, and a dense readout.
	NewTransformer = ml.NewTransformer
	// NewLinearRegression is a single linear layer with MSE.
	NewLinearRegression = ml.NewLinearRegression
	// NewLogisticRegression uses the paper's piecewise activation (Eq. 9).
	NewLogisticRegression = ml.NewLogisticRegression
	// NewSVM is a linear SVM trained with hinge subgradients.
	NewSVM = ml.NewSVM
)

// Accuracy scores one-hot predictions; BinaryAccuracy scores ±1 or 0/1
// single-output models; OneHot encodes integer labels.
var (
	Accuracy       = ml.Accuracy
	BinaryAccuracy = ml.BinaryAccuracy
	OneHot         = ml.OneHot
)
