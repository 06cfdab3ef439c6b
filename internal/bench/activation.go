package bench

import (
	"fmt"

	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/secureml"
	"parsecureml/internal/tensor"
)

// AblationActivation (A4) studies the §4.2 activation design space: the
// paper's Eq. (9) piecewise function against the Taylor-series sigmoid fit
// it rejects and the exact logistic function. For each, a logistic
// regression trains securely (real arithmetic) and the table reports the
// fit error against the exact sigmoid and the resulting accuracy — the
// evidence behind "such a replacement has little impact on accuracy".
func AblationActivation(opts Options) Table {
	t := Table{
		ID:     "ablation-activation",
		Title:  "Ablation: secure activation function choice (Eq. 9 vs Taylor vs exact sigmoid)",
		Header: []string{"activation", "max |f-sigmoid| on [-4,4]", "secure accuracy", "plaintext accuracy"},
		Notes:  "paper §4.2 rejects the Taylor fit and uses Eq. 9; exact sigmoid is computable here because activations are revealed",
	}

	spec := dataset.Spec{Name: "act", H: 4, W: 8, Classes: 2, Density: 1}
	const n, batch, epochs = 192, 32, 40
	x, y := dataset.Binary(spec, n, opts.Seed, false)
	var xs, ys []*tensor.Matrix
	for lo := 0; lo+batch <= n; lo += batch {
		xs = append(xs, x.SliceRows(lo, lo+batch))
		ys = append(ys, y.SliceRows(lo, lo+batch))
	}

	for _, act := range []ml.Activation{ml.Piecewise, ml.SigmoidTaylor, ml.Sigmoid} {
		// Fit error against the exact sigmoid over [-4, 4].
		var maxErr float64
		for i := -400; i <= 400; i++ {
			xv := float32(i) / 100
			d := float64(act.Apply(xv) - ml.Sigmoid.Apply(xv))
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}

		mk := func() *ml.Model {
			return ml.NewModel("logistic-"+act.String(), ml.MSE{},
				ml.NewDense(spec.InDim(), 1, act, rng.NewRand(opts.Seed)))
		}
		cfg := mpcsim.DefaultConfig()
		cfg.TensorCores = false
		cfg.Seed = opts.Seed
		d := mpcsim.NewDeployment(cfg)
		sm := secureml.FromPlain(d, mk(), secureml.MSELoss)
		sm.Prepare(xs, ys)
		sm.TrainEpochs(epochs, 0.4)
		trained := mk()
		sm.RevealInto(trained)
		secAcc := ml.BinaryAccuracy(trained.Predict(x), y, true)

		plain := mk()
		for e := 0; e < epochs; e++ {
			for b := range xs {
				plain.TrainBatch(xs[b], ys[b], 0.4)
			}
		}
		plainAcc := ml.BinaryAccuracy(plain.Predict(x), y, true)

		t.Rows = append(t.Rows, []string{
			act.String(), fmt.Sprintf("%.4f", maxErr), f2(secAcc), f2(plainAcc),
		})
	}
	return t
}
