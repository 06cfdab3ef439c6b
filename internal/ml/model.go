package ml

import (
	"fmt"

	"parsecureml/internal/tensor"
)

// Loss is a training objective over batch predictions and targets. Grad
// returns ∂L/∂pred (already normalized by batch size).
type Loss interface {
	Value(pred, target *tensor.Matrix) float64
	Grad(pred, target *tensor.Matrix) *tensor.Matrix
}

// MSE is mean squared error ½‖pred−target‖²/batch — used by linear
// regression and, following SecureML, by the piecewise-activated
// classifiers (the piecewise function bounds outputs to [0,1] like a
// squashed logistic output).
type MSE struct{}

// Value returns the mean squared error.
func (MSE) Value(pred, target *tensor.Matrix) float64 {
	diff := tensor.SubTo(pred, target)
	var s float64
	for _, v := range diff.Data {
		s += float64(v) * float64(v)
	}
	return s / (2 * float64(pred.Rows))
}

// Grad returns (pred−target)/batch.
func (MSE) Grad(pred, target *tensor.Matrix) *tensor.Matrix {
	g := tensor.SubTo(pred, target)
	tensor.Scale(g, g, 1/float32(pred.Rows))
	return g
}

// Hinge is the SVM objective mean(max(0, 1−y·f(x))) for targets in {−1,+1}.
type Hinge struct{}

// Value returns the mean hinge loss.
func (Hinge) Value(pred, target *tensor.Matrix) float64 {
	var s float64
	for i, p := range pred.Data {
		m := 1 - float64(target.Data[i])*float64(p)
		if m > 0 {
			s += m
		}
	}
	return s / float64(pred.Rows)
}

// Grad returns the hinge subgradient.
func (Hinge) Grad(pred, target *tensor.Matrix) *tensor.Matrix {
	g := tensor.New(pred.Rows, pred.Cols)
	for i, p := range pred.Data {
		if float64(target.Data[i])*float64(p) < 1 {
			g.Data[i] = -target.Data[i] / float32(pred.Rows)
		}
	}
	return g
}

// Model is a sequential network with a loss.
type Model struct {
	Name   string
	Layers []Layer
	Loss   Loss
}

// NewModel validates layer dimension chaining.
func NewModel(name string, loss Loss, layers ...Layer) *Model {
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			panic(fmt.Sprintf("ml: %s layer %d out %d != layer %d in %d",
				name, i-1, layers[i-1].OutDim(), i, layers[i].InDim()))
		}
	}
	return &Model{Name: name, Layers: layers, Loss: loss}
}

// Predict runs the forward pass.
func (m *Model) Predict(x *tensor.Matrix) *tensor.Matrix {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// TrainBatch runs one SGD step on a batch and returns the pre-update loss.
func (m *Model) TrainBatch(x, y *tensor.Matrix, lr float32) float64 {
	pred := m.Predict(x)
	loss := m.Loss.Value(pred, y)
	grad := m.Loss.Grad(pred, y)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	for _, l := range m.Layers {
		l.Update(lr)
	}
	return loss
}

// ForwardOps aggregates one forward pass's operations at the given batch.
func (m *Model) ForwardOps(batch int) []Op {
	var ops []Op
	for _, l := range m.Layers {
		ops = append(ops, l.ForwardOps(batch)...)
	}
	return ops
}

// BackwardOps aggregates one backward pass's operations.
func (m *Model) BackwardOps(batch int) []Op {
	var ops []Op
	for i := len(m.Layers) - 1; i >= 0; i-- {
		ops = append(ops, m.Layers[i].BackwardOps(batch)...)
	}
	return ops
}

// TrainOps is forward + backward.
func (m *Model) TrainOps(batch int) []Op {
	return append(m.ForwardOps(batch), m.BackwardOps(batch)...)
}

// InDim returns the model's input width.
func (m *Model) InDim() int { return m.Layers[0].InDim() }

// OutDim returns the model's output width.
func (m *Model) OutDim() int { return m.Layers[len(m.Layers)-1].OutDim() }
