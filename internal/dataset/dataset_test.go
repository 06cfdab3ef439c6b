package dataset

import (
	"math"
	"testing"

	"parsecureml/internal/ml"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// fit runs epochs of in-order mini-batch SGD over the rows of x and returns
// each epoch's mean loss.
func fit(m *ml.Model, x, y *tensor.Matrix, batch, epochs int, lr float32) []float64 {
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		var total float64
		batches := 0
		for lo := 0; lo < x.Rows; lo += batch {
			hi := min(lo+batch, x.Rows)
			total += m.TrainBatch(x.SliceRows(lo, hi), y.SliceRows(lo, hi), lr)
			batches++
		}
		losses = append(losses, total/float64(batches))
	}
	return losses
}

func TestSpecGeometry(t *testing.T) {
	if MNIST.InDim() != 784 {
		t.Fatalf("MNIST dim %d", MNIST.InDim())
	}
	if VGGFace2.InDim() != 40000 {
		t.Fatalf("VGGFace2 dim %d", VGGFace2.InDim())
	}
	if nist.InDim() != 262144 {
		t.Fatalf("NIST dim %d", nist.InDim())
	}
	if Synthetic.InDim() != 2048 || Synthetic.SeqSteps != 32 {
		t.Fatalf("Synthetic %+v", Synthetic)
	}
	if len(All()) != 5 {
		t.Fatal("All() must list five datasets")
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("MNIST")
	if err != nil || s.Name != "MNIST" {
		t.Fatalf("ByName: %v %v", s, err)
	}
	if _, err := ByName("ImageNet"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestClassificationDeterministic(t *testing.T) {
	x1, l1 := Classification(MNIST, 100, 7)
	x2, l2 := Classification(MNIST, 100, 7)
	if !x1.Equal(x2) {
		t.Fatal("same seed produced different features")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	x3, _ := Classification(MNIST, 100, 8)
	if x1.Equal(x3) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestClassificationShapesAndBalance(t *testing.T) {
	n := 200
	x, labels := Classification(MNIST, n, 1)
	if x.Rows != n || x.Cols != 784 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	counts := make([]int, MNIST.Classes)
	for _, l := range labels {
		if l < 0 || l >= MNIST.Classes {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c, cnt := range counts {
		if cnt != n/MNIST.Classes {
			t.Fatalf("class %d has %d samples, want %d", c, cnt, n/MNIST.Classes)
		}
	}
}

func TestSparsityProfile(t *testing.T) {
	x, _ := Classification(MNIST, 300, 2)
	sp := x.Sparsity()
	// Template+noise union of two Bernoulli(0.2) masks: ~36% nonzero.
	if sp < 0.5 || sp > 0.8 {
		t.Fatalf("MNIST-like sparsity %v, want dark-background profile", sp)
	}
	xd, _ := Classification(VGGFace2, 20, 2)
	if xd.Sparsity() > 0.2 {
		t.Fatalf("VGGFace2-like data too sparse: %v", xd.Sparsity())
	}
}

func TestClassificationLearnable(t *testing.T) {
	r := rng.NewRand(3)
	x, labels := Classification(MNIST, 400, 3)
	y := OneHotLabels(labels, 10)
	m := ml.NewMLP(784, r)
	fit(m, x, y, 64, 30, 0.3)
	if acc := ml.Accuracy(m.Predict(x), y); acc < 0.9 {
		t.Fatalf("template data should be easily learnable; accuracy %v", acc)
	}
}

func TestRegressionLearnable(t *testing.T) {
	r := rng.NewRand(4)
	spec := Spec{Name: "toy", H: 4, W: 4, Classes: 2, Density: 1}
	x, y := Regression(spec, 300, 4)
	m := ml.NewLinearRegression(16, r)
	losses := fit(m, x, y, 32, 150, 0.2)
	if losses[len(losses)-1] > 1e-2 {
		t.Fatalf("regression loss %v", losses[len(losses)-1])
	}
}

func TestBinarySeparable(t *testing.T) {
	spec := Spec{Name: "toy", H: 3, W: 3, Classes: 2, Density: 1}
	x, y := Binary(spec, 200, 5, true)
	pos, neg := 0, 0
	for _, v := range y.Data {
		switch v {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("±1 labels expected, got %v", v)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("degenerate label distribution")
	}
	r := rng.NewRand(6)
	m := ml.NewSVM(9, r)
	fit(m, x, y, 32, 150, 0.3)
	if acc := ml.BinaryAccuracy(m.Predict(x), y, false); acc < 0.93 {
		t.Fatalf("separable SVM accuracy %v", acc)
	}

	_, y01 := Binary(spec, 50, 5, false)
	for _, v := range y01.Data {
		if v != 0 && v != 1 {
			t.Fatalf("0/1 labels expected, got %v", v)
		}
	}
}

func TestRegressionNoiseSmall(t *testing.T) {
	spec := Spec{Name: "toy", H: 2, W: 2, Classes: 2, Density: 1}
	_, y := Regression(spec, 100, 7)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean-0.1) > 0.2 {
		t.Fatalf("regression intercept drifted: mean %v", mean)
	}
}
