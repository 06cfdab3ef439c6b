// Package dataset synthesizes the five evaluation datasets of §7.1. The
// module is offline and the paper's experiments consume only each
// dataset's geometry (image size × sample count) plus a learnable signal
// for accuracy sanity checks, so each generator reproduces: the exact
// shapes, an approximate zero-fraction (sparsity drives the compression
// experiment), and a class-template structure simple models can learn.
// Generation is deterministic in the seed.
package dataset

import (
	"fmt"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Spec describes one dataset's geometry.
type Spec struct {
	Name    string
	Samples int // full-size sample count used by the paper
	H, W    int // per-sample image geometry (flattened to H·W features)
	// Channels > 1 marks multi-channel images (CIFAR-10 is 32×32×3); 0 is
	// treated as 1.
	Channels int
	Classes  int
	Density  float64 // fraction of non-zero pixels
	// SeqSteps > 0 marks a sequence dataset (RNN): features are read as
	// SeqSteps timesteps of width W.
	SeqSteps int
}

// InChannels returns the channel count (>= 1).
func (s Spec) InChannels() int {
	if s.Channels < 1 {
		return 1
	}
	return s.Channels
}

// InDim returns the flattened feature width (Channels·H·W).
func (s Spec) InDim() int { return s.InChannels() * s.H * s.W }

// String formats the spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s(%dx%d×%d)", s.Name, s.H, s.W, s.Samples)
}

// The paper's datasets (§7.1).
var (
	// MNIST: 60 000 train samples of 28×28 handwritten digits; mostly
	// black background (~80 % zeros).
	MNIST = Spec{Name: "MNIST", Samples: 60000, H: 28, W: 28, Classes: 10, Density: 0.20}
	// VGGFace2: 40 000 face images processed to 200×200 (dense).
	VGGFace2 = Spec{Name: "VGGFace2", Samples: 40000, H: 200, W: 200, Classes: 10, Density: 0.95}
	// nist: 4 000 fingerprint images of 512×512 (ridge patterns, ~50 %).
	nist = Spec{Name: "NIST", Samples: 4000, H: 512, W: 512, Classes: 10, Density: 0.50}
	// cifar10: 50 000 train images of 32×32×3 (three dense color planes).
	cifar10 = Spec{Name: "CIFAR-10", Samples: 50000, H: 32, W: 32, Channels: 3, Classes: 10, Density: 0.98}
	// Synthetic: 640 000 matrices of 32×64 used for the workload-size
	// studies (Figs. 7, 17); also the RNN dataset (32 timesteps × 64).
	Synthetic = Spec{Name: "SYNTHETIC", Samples: 640000, H: 32, W: 64, Classes: 10, Density: 0.60, SeqSteps: 32}
)

// All lists the five specs in the paper's presentation order.
func All() []Spec { return []Spec{VGGFace2, nist, Synthetic, MNIST, cifar10} }

// ByName resolves a spec from its name (case-sensitive).
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Classification generates n samples with one-hot-learnable structure:
// each class c has a fixed sparse template; a sample is its class template
// plus noise, masked to the spec's density. Labels cycle deterministically
// so every batch is balanced. Returns the feature matrix and labels.
func Classification(s Spec, n int, seed uint64) (*tensor.Matrix, []int) {
	pool := rng.NewPool(seed)
	r := rng.NewRand(seed ^ 0xd1ce)
	dim := s.InDim()

	templates := make([]*tensor.Matrix, s.Classes)
	for c := range templates {
		t := tensor.New(1, dim)
		pool.FillBernoulli(t, s.Density, func(g *rng.Rand) float32 { return g.Float32()*2 - 1 })
		templates[c] = t
	}

	x := tensor.New(n, dim)
	labels := make([]int, n)
	noise := tensor.New(n, dim)
	pool.FillBernoulli(noise, s.Density, func(g *rng.Rand) float32 { return (g.Float32()*2 - 1) * 0.3 })
	for i := 0; i < n; i++ {
		c := i % s.Classes
		labels[i] = c
		row := x.Row(i)
		tpl := templates[c].Data
		nz := noise.Row(i)
		for j := range row {
			row[j] = tpl[j] + nz[j]
		}
	}
	// Deterministic shuffle so class order does not leak into batches.
	perm := r.Perm(n)
	shuffled := tensor.New(n, dim)
	outLabels := make([]int, n)
	for i, p := range perm {
		copy(shuffled.Row(i), x.Row(p))
		outLabels[i] = labels[p]
	}
	return shuffled, outLabels
}

// Regression generates n samples with a linear target y = x·w* + b* (+
// small noise), for the linear-regression benchmark.
func Regression(s Spec, n int, seed uint64) (x, y *tensor.Matrix) {
	pool := rng.NewPool(seed)
	r := rng.NewRand(seed ^ 0xbeef)
	dim := s.InDim()
	x = tensor.New(n, dim)
	pool.FillBernoulli(x, s.Density, func(g *rng.Rand) float32 { return g.Float32()*2 - 1 })
	w := make([]float32, dim)
	for j := range w {
		w[j] = (r.Float32()*2 - 1) / float32(dim)
	}
	y = tensor.New(n, 1)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var acc float32
		for j, v := range row {
			acc += v * w[j]
		}
		y.Set(i, 0, acc+0.1+0.01*(r.Float32()-0.5))
	}
	return x, y
}

// Binary generates ±1-labeled, linearly separable data (with margin) for
// the SVM and logistic benchmarks. plusMinus selects ±1 targets; otherwise
// 0/1.
func Binary(s Spec, n int, seed uint64, plusMinus bool) (x, y *tensor.Matrix) {
	pool := rng.NewPool(seed)
	r := rng.NewRand(seed ^ 0xcafe)
	dim := s.InDim()
	x = tensor.New(n, dim)
	pool.FillBernoulli(x, s.Density, func(g *rng.Rand) float32 { return g.Float32()*2 - 1 })
	w := make([]float32, dim)
	for j := range w {
		w[j] = r.Float32()*2 - 1
	}
	y = tensor.New(n, 1)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var acc float32
		for j, v := range row {
			acc += v * w[j]
		}
		pos := acc > 0
		if pos {
			y.Set(i, 0, 1)
		} else if plusMinus {
			y.Set(i, 0, -1)
		}
	}
	return x, y
}

// OneHotLabels is a convenience wrapper producing the one-hot target
// matrix for Classification output.
func OneHotLabels(labels []int, classes int) *tensor.Matrix {
	m := tensor.New(len(labels), classes)
	for i, l := range labels {
		m.Set(i, l, 1)
	}
	return m
}
