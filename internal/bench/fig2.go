package bench

import (
	"strings"

	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/secureml"
	"parsecureml/internal/tensor"
)

// Figure2 reproduces Fig. 2's time breakdown: SecureML's MLP on the whole
// MNIST training set as ONE batch of 60 000 samples. The paper measures
// offline encrypt 62.68 s, offline transmit 0.21 s, then online
// compute1 ≈ 0.19 s, communicate ≈ 0.24 s, compute2 ≈ 95.52 s.
func Figure2(opts Options) Table {
	prev := tensor.SetCompute(false)
	defer tensor.SetCompute(prev)

	cfg := secureMLBaselineConfig(opts.Seed)
	d := mpcsim.NewDeployment(cfg)
	spec := dataset.MNIST
	plain := ml.NewMLP(spec.InDim(), rng.NewRand(opts.Seed))
	m := secureml.FromPlain(d, plain, secureml.MSELoss)

	x := tensor.New(spec.Samples, spec.InDim()) // the paper's single batch
	y := tensor.New(spec.Samples, plain.OutDim())
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	offlineEnd := d.Eng.Makespan()
	m.TrainEpochs(1, 0.1)

	// Attribute task time to the paper's five phases (task names carry
	// the protocol step; kinds carry the resource class).
	var encrypt, transmit, compute1, communicate, compute2 float64
	for _, t := range d.Eng.Tasks() {
		res := t.Resource.Name
		offline := t.End <= offlineEnd+1e-12
		switch {
		case strings.HasPrefix(res, "client") && offline:
			encrypt += t.Duration()
		case strings.HasPrefix(res, "net.client") && offline:
			transmit += t.Duration()
		case t.Kind == "net" && !offline:
			communicate += t.Duration()
		case strings.HasPrefix(t.Name, "reconstruct."):
			compute1 += t.Duration()
		case !offline && !strings.HasPrefix(res, "~") && !strings.HasPrefix(res, "client"):
			compute2 += t.Duration()
		}
	}
	return Table{
		ID:     "fig2",
		Title:  "SecureML time breakdown, MLP on MNIST in one batch",
		Header: []string{"Phase", "Time (s)"},
		Rows: [][]string{
			{"offline: client encrypt", f2(encrypt)},
			{"offline: transmit to servers", f2(transmit)},
			{"online: compute1 (E_i, F_i)", f2(compute1)},
			{"online: communicate (E, F)", f2(communicate)},
			{"online: compute2 (C_i)", f2(compute2)},
		},
		Notes: "paper: 62.68 / 0.21 / ~0.19 / ~0.24 / 95.52 s (our client partitions in parallel, so encrypt is smaller; see EXPERIMENTS.md)",
	}
}
