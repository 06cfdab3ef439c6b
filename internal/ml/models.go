package ml

import (
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Constructors for the six benchmark models of §7.1, parameterized by the
// dataset's input geometry.

// NewMLP is the paper's multilayer perceptron: input → 128 → 64 → 10 with
// ReLU activations (§7.1 describes the MNIST instance; for other datasets
// the input layer width follows the data).
func NewMLP(inDim int, r *rng.Rand) *Model {
	return NewModel("MLP", MSE{},
		NewDense(inDim, 128, ReLU, r),
		NewDense(128, 64, ReLU, r),
		NewDense(64, 10, Piecewise, r),
	)
}

// NewCNN is the paper's CNN: one 5×5 convolution (valid padding) followed
// by two fully connected layers (64 hidden neurons, 10 outputs) with ReLU.
func NewCNN(inH, inW, filters int, r *rng.Rand) *Model {
	return NewCNNCh(inH, inW, 1, filters, r)
}

// NewCNNCh is NewCNN over multi-channel images (CIFAR-10 is 32×32×3).
func NewCNNCh(inH, inW, channels, filters int, r *rng.Rand) *Model {
	shape := tensor.NewConvShapeCh(inH, inW, channels, 5, 5, 1, 0)
	conv := NewConv2D(shape, filters, ReLU, r)
	return NewModel("CNN", MSE{},
		conv,
		NewDense(conv.OutDim(), 64, ReLU, r),
		NewDense(64, 10, Piecewise, r),
	)
}

// NewRNNModel is the recurrent benchmark: an Elman cell over the input
// sequence followed by a dense readout.
func NewRNNModel(inStep, hidden, steps int, r *rng.Rand) *Model {
	cell := NewRNN(inStep, hidden, steps, Piecewise, r)
	return NewModel("RNN", MSE{},
		cell,
		NewDense(hidden, 10, Piecewise, r),
	)
}

// NewTransformer is the secure-transformer benchmark: a dense embedding
// into the model width, one TransformerBlock (causal multi-head
// attention + feed-forward, scaled residuals), and a dense readout.
// Batch rows are the token sequence.
func NewTransformer(inDim, dModel, heads, ff int, r *rng.Rand) *Model {
	return NewModel("transformer", MSE{},
		NewDense(inDim, dModel, ReLU, r),
		NewTransformerBlock(dModel, heads, ff, ReLU, true, r),
		NewDense(dModel, 10, Piecewise, r),
	)
}

// NewLinearRegression is a single linear layer trained with MSE.
func NewLinearRegression(inDim int, r *rng.Rand) *Model {
	return NewModel("linear", MSE{},
		NewDense(inDim, 1, Identity, r),
	)
}

// NewLogisticRegression is a single layer with the paper's piecewise
// activation standing in for the sigmoid (Eq. 9 — "ReLU does not have an
// upper limit which cannot be used in ... logistic regression").
func NewLogisticRegression(inDim int, r *rng.Rand) *Model {
	return NewModel("logistic", MSE{},
		NewDense(inDim, 1, Piecewise, r),
	)
}

// NewSVM is a linear SVM trained by hinge-loss subgradient descent (the
// gradient formulation whose per-iteration cost matches the triplet
// pattern the secure framework protects).
func NewSVM(inDim int, r *rng.Rand) *Model {
	return NewModel("SVM", Hinge{},
		NewDense(inDim, 1, Identity, r),
	)
}

// Accuracy returns the fraction of rows whose arg-max prediction matches
// the arg-max target (one-hot classification).
func Accuracy(pred, target *tensor.Matrix) float64 {
	if pred.Rows == 0 {
		return 0
	}
	correct := 0
	for r := 0; r < pred.Rows; r++ {
		if argmax(pred.Row(r)) == argmax(target.Row(r)) {
			correct++
		}
	}
	return float64(correct) / float64(pred.Rows)
}

// BinaryAccuracy scores ±1-labeled single-output predictions by sign (for
// SVM/linear) or 0/1 labels against a 0.5 threshold when threshold05 is
// set (logistic with piecewise outputs).
func BinaryAccuracy(pred, target *tensor.Matrix, threshold05 bool) float64 {
	if pred.Rows == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred.Data {
		want := target.Data[i]
		var got float32
		if threshold05 {
			if p >= 0.5 {
				got = 1
			}
			if want >= 0.5 {
				want = 1
			} else {
				want = 0
			}
		} else {
			if p >= 0 {
				got = 1
			} else {
				got = -1
			}
		}
		if got == want {
			correct++
		}
	}
	return float64(correct) / float64(len(pred.Data))
}

func argmax(row []float32) int {
	best, bi := row[0], 0
	for i, v := range row {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// OneHot encodes integer labels into an n-class one-hot matrix.
func OneHot(labels []int, classes int) *tensor.Matrix {
	m := tensor.New(len(labels), classes)
	for i, l := range labels {
		m.Set(i, l, 1)
	}
	return m
}
