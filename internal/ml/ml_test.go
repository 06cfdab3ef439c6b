package ml

import (
	"math"
	"testing"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// numericalGrad estimates ∂loss/∂p for parameter element p via central
// differences, where run() computes the batch loss from scratch.
func numericalGrad(p *float32, run func() float64) float64 {
	const eps = 1e-2
	orig := *p
	*p = orig + eps
	lp := run()
	*p = orig - eps
	lm := run()
	*p = orig
	return (lp - lm) / (2 * eps)
}

func TestDenseGradientCheck(t *testing.T) {
	r := rng.NewRand(1)
	layer := NewDense(4, 3, Piecewise, r)
	model := NewModel("g", MSE{}, layer)
	x := tensor.New(5, 4)
	y := tensor.New(5, 3)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32()
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }

	// Analytic gradients.
	pred := model.Predict(x)
	grad := model.Loss.Grad(pred, y)
	layer.Backward(grad)

	checked := 0
	for i := range layer.W.Data {
		want := numericalGrad(&layer.W.Data[i], run)
		got := float64(layer.dW.Data[i])
		if math.Abs(want) < 1e-4 && math.Abs(got) < 1e-4 {
			continue // flat region of the piecewise activation
		}
		if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dW[%d]: analytic %v, numerical %v", i, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("gradient check exercised no elements")
	}
}

func TestConvGradientCheck(t *testing.T) {
	r := rng.NewRand(2)
	shape := tensor.NewConvShapeCh(6, 6, 1, 3, 3, 1, 0)
	conv := NewConv2D(shape, 2, ReLU, r)
	model := NewModel("g", MSE{}, conv)
	x := tensor.New(2, 36)
	y := tensor.New(2, conv.OutDim())
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32() * 0.1
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }
	pred := model.Predict(x)
	conv.Backward(model.Loss.Grad(pred, y))
	for i := range conv.K.Data {
		want := numericalGrad(&conv.K.Data[i], run)
		got := float64(conv.dK.Data[i])
		if math.Abs(got-want) > 3e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dK[%d]: analytic %v, numerical %v", i, got, want)
		}
	}
}

func TestRNNGradientCheck(t *testing.T) {
	r := rng.NewRand(3)
	cell := NewRNN(3, 4, 3, Piecewise, r)
	model := NewModel("g", MSE{}, cell)
	x := tensor.New(2, 9)
	y := tensor.New(2, 4)
	for i := range x.Data {
		x.Data[i] = (r.Float32() - 0.5) * 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32()
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }
	pred := model.Predict(x)
	cell.Backward(model.Loss.Grad(pred, y))
	for i := range cell.Wh.Data {
		want := numericalGrad(&cell.Wh.Data[i], run)
		got := float64(cell.dWh.Data[i])
		if math.Abs(want) < 1e-4 && math.Abs(got) < 1e-4 {
			continue
		}
		if math.Abs(got-want) > 3e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dWh[%d]: analytic %v, numerical %v", i, got, want)
		}
	}
}

func TestDenseBackwardInputGradient(t *testing.T) {
	r := rng.NewRand(4)
	layer := NewDense(3, 2, Identity, r)
	model := NewModel("g", MSE{}, layer)
	x := tensor.New(1, 3)
	y := tensor.New(1, 2)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }
	pred := model.Predict(x)
	dx := layer.Backward(model.Loss.Grad(pred, y))
	for i := range x.Data {
		want := numericalGrad(&x.Data[i], run)
		if math.Abs(float64(dx.Data[i])-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dX[%d]: analytic %v, numerical %v", i, dx.Data[i], want)
		}
	}
}

// Linear regression on an exactly linear synthetic target must converge to
// near-zero loss.
func TestLinearRegressionConverges(t *testing.T) {
	r := rng.NewRand(5)
	trueW := []float32{0.5, -1.2, 2.0, 0.3}
	x := tensor.New(256, 4)
	y := tensor.New(256, 1)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var acc float32
		for j := range row {
			row[j] = r.Float32()*2 - 1
			acc += row[j] * trueW[j]
		}
		y.Set(i, 0, acc+0.7)
	}
	m := NewLinearRegression(4, r)
	losses := fit(m, x, y, 32, 200, 0.1)
	if final := losses[len(losses)-1]; final > 1e-3 {
		t.Fatalf("linear regression did not converge: final loss %v", final)
	}
	if losses[0] <= losses[len(losses)-1] {
		t.Fatal("loss did not decrease")
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	r := rng.NewRand(6)
	x := tensor.New(200, 2)
	y := tensor.New(200, 1)
	for i := 0; i < 200; i++ {
		x.Set(i, 0, r.Float32()*2-1)
		x.Set(i, 1, r.Float32()*2-1)
		if x.At(i, 0)+x.At(i, 1) > 0 {
			y.Set(i, 0, 1)
		}
	}
	m := NewLogisticRegression(2, r)
	fit(m, x, y, 32, 300, 0.5)
	acc := BinaryAccuracy(m.Predict(x), y, true)
	if acc < 0.95 {
		t.Fatalf("logistic accuracy %v on separable data", acc)
	}
}

func TestMLPLearnsXORish(t *testing.T) {
	r := rng.NewRand(7)
	// 10-class toy: class = argmax of 10 fixed random projections.
	proj := tensor.New(16, 10)
	for i := range proj.Data {
		proj.Data[i] = r.Float32()*2 - 1
	}
	n := 512
	x := tensor.New(n, 16)
	for i := range x.Data {
		x.Data[i] = r.Float32()*2 - 1
	}
	scores := tensor.MulTo(x, proj)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = argmax(scores.Row(i))
	}
	y := OneHot(labels, 10)
	m := NewMLP(16, r)
	fit(m, x, y, 64, 60, 0.5)
	if acc := Accuracy(m.Predict(x), y); acc < 0.7 {
		t.Fatalf("MLP training accuracy %v, want >= 0.7", acc)
	}
}

func TestCNNForwardBackwardShapes(t *testing.T) {
	r := rng.NewRand(8)
	m := NewCNN(12, 12, 4, r)
	x := tensor.New(6, 144)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	pred := m.Predict(x)
	if pred.Rows != 6 || pred.Cols != 10 {
		t.Fatalf("CNN output %dx%d", pred.Rows, pred.Cols)
	}
	y := tensor.New(6, 10)
	loss1 := m.TrainBatch(x, y, 0.01)
	loss2 := m.TrainBatch(x, y, 0.01)
	if math.IsNaN(loss1) || math.IsNaN(loss2) {
		t.Fatal("NaN loss")
	}
}

func TestRNNModelTrains(t *testing.T) {
	r := rng.NewRand(9)
	m := NewRNNModel(8, 16, 4, r)
	x := tensor.New(32, 32)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	labels := make([]int, 32)
	for i := range labels {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	y := OneHot(labels, 10)
	l0 := m.TrainBatch(x, y, 0.2)
	var lN float64
	for i := 0; i < 60; i++ {
		lN = m.TrainBatch(x, y, 0.2)
	}
	if lN >= l0 {
		t.Fatalf("RNN loss did not decrease: %v -> %v", l0, lN)
	}
}

func TestSVMSGDSeparable(t *testing.T) {
	r := rng.NewRand(10)
	x := tensor.New(200, 3)
	y := tensor.New(200, 1)
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Float32()*2-1)
		}
		if 2*x.At(i, 0)-x.At(i, 1) > 0 {
			y.Set(i, 0, 1)
		} else {
			y.Set(i, 0, -1)
		}
	}
	m := NewSVM(3, r)
	fit(m, x, y, 32, 200, 0.2)
	if acc := BinaryAccuracy(m.Predict(x), y, false); acc < 0.95 {
		t.Fatalf("SVM-SGD accuracy %v", acc)
	}
}

func TestModelOpsMetadata(t *testing.T) {
	r := rng.NewRand(12)
	m := NewMLP(128, r)
	fops := m.ForwardOps(64)
	if len(fops) != 6 { // 3 layers × (gemm + elem)
		t.Fatalf("MLP forward ops: %d", len(fops))
	}
	if fops[0].Kind != OpGemm || fops[0].M != 64 || fops[0].K != 128 || fops[0].N != 128 {
		t.Fatalf("first op %+v", fops[0])
	}
	if totalFLOPs(fops) <= 0 {
		t.Fatal("zero FLOPs")
	}
	tops := m.TrainOps(64)
	if len(tops) <= len(fops) {
		t.Fatal("train ops must include backward")
	}
	if totalFLOPs(m.BackwardOps(64)) < totalFLOPs(fops) {
		t.Fatal("backward is cheaper than forward — wrong for dense nets")
	}
}

func TestLossFunctions(t *testing.T) {
	pred := tensor.FromSlice(2, 1, []float32{1, -1})
	tgt := tensor.FromSlice(2, 1, []float32{1, 1})
	if got := (MSE{}).Value(pred, tgt); got != 1 { // (0+4)/(2*2)
		t.Fatalf("MSE = %v", got)
	}
	h := (Hinge{}).Value(pred, tgt)
	if h != 1 { // max(0,0)+max(0,2) over 2
		t.Fatalf("hinge = %v", h)
	}
	g := (Hinge{}).Grad(pred, tgt)
	if g.Data[0] != 0 || g.Data[1] != -0.5 {
		t.Fatalf("hinge grad %v", g.Data)
	}
}

func TestAccuracyHelpers(t *testing.T) {
	pred := tensor.FromSlice(2, 3, []float32{0.9, 0.1, 0, 0, 0.2, 0.7})
	tgt := OneHot([]int{0, 1}, 3)
	if got := Accuracy(pred, tgt); got != 0.5 {
		t.Fatalf("accuracy %v", got)
	}
	if OneHot([]int{2}, 3).At(0, 2) != 1 {
		t.Fatal("OneHot")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	r := rng.NewRand(13)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel("bad", MSE{}, NewDense(4, 8, ReLU, r), NewDense(9, 2, ReLU, r))
}

func TestActivationString(t *testing.T) {
	if Piecewise.String() != "piecewise" || ReLU.String() != "relu" || Identity.String() != "identity" {
		t.Fatal("activation names")
	}
}

// Multi-channel CNN (CIFAR-10 geometry) must train.
func TestMultiChannelCNNTrains(t *testing.T) {
	r := rng.NewRand(40)
	m := NewCNNCh(8, 8, 3, 2, r)
	if m.InDim() != 192 {
		t.Fatalf("3-channel 8x8 input dim %d", m.InDim())
	}
	x := tensor.New(6, 192)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	labels := make([]int, 6)
	for i := range labels {
		labels[i] = i % 10
	}
	y := OneHot(labels, 10)
	l0 := m.TrainBatch(x, y, 0.05)
	var lN float64
	for i := 0; i < 40; i++ {
		lN = m.TrainBatch(x, y, 0.05)
	}
	if !(lN < l0) {
		t.Fatalf("multi-channel CNN loss did not decrease: %v -> %v", l0, lN)
	}
}

// fit runs epochs of mini-batch SGD over the dataset (rows of x), visiting
// batches in order, and returns each epoch's mean loss.
func fit(m *Model, x, y *tensor.Matrix, batch int, epochs int, lr float32) []float64 {
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		var total float64
		var batches int
		for lo := 0; lo < x.Rows; lo += batch {
			hi := lo + batch
			if hi > x.Rows {
				hi = x.Rows
			}
			total += m.TrainBatch(x.SliceRows(lo, hi), y.SliceRows(lo, hi), lr)
			batches++
		}
		losses = append(losses, total/float64(batches))
	}
	return losses
}

// totalFLOPs sums the arithmetic work of ops: 2mkn per GEMM, bytes/4 per
// element-wise pass.
func totalFLOPs(ops []Op) float64 {
	var s float64
	for _, o := range ops {
		if o.Kind == OpGemm {
			s += 2 * float64(o.M) * float64(o.K) * float64(o.N)
		} else {
			s += float64(o.Bytes) / 4
		}
	}
	return s
}
