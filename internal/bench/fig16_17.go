package bench

import (
	"fmt"

	"parsecureml/internal/dataset"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/secureml"
	"parsecureml/internal/tensor"
)

// Figure16 reproduces Fig. 16: the communication saved by the compressed
// (delta-CSR) transmission. This experiment needs real values — delta
// sparsity is data-dependent — so it trains proxy-scale models with real
// arithmetic on each dataset's sparsity profile and measures actual wire
// bytes against the dense-only baseline. Paper average: 22.9 % saved.
func Figure16(opts Options) Table {
	t := Table{
		ID:     "fig16",
		Title:  "Compressed transmission: inter-server traffic saved",
		Header: []string{"Dataset", "Model", "dense bytes", "wire bytes", "saved", "CSR sends"},
		Notes:  "paper Fig. 16: average 22.9% communication reduction; run at proxy scale with real values",
	}
	var sum float64
	var count int
	for _, spec := range dataset.All() {
		proxy := spec
		// Cap the feature width so real arithmetic stays fast; sparsity
		// profile (Density) is what matters.
		if proxy.InDim() > 784 {
			proxy.H, proxy.W = 28, 28
		}
		for _, model := range []string{"MLP", "logistic", "CNN"} {
			x, labels := dataset.Classification(proxy, 64, opts.Seed)
			plain := buildModel(model, proxy, rng.NewRand(opts.Seed))
			var y *tensor.Matrix
			if plain.OutDim() == 1 {
				_, y = dataset.Binary(proxy, 64, opts.Seed, false)
			} else {
				y = dataset.OneHotLabels(labels, plain.OutDim())
			}

			cfg := parSecureMLConfig(opts.Seed)
			cfg.TensorCores = false
			d := mpcsim.NewDeployment(cfg)
			m := secureml.FromPlain(d, plain, secureml.MSELoss)
			m.Prepare([]*tensor.Matrix{x.SliceRows(0, 32), x.SliceRows(32, 64)},
				[]*tensor.Matrix{y.SliceRows(0, 32), y.SliceRows(32, 64)})
			m.TrainEpochs(4, 0.05)

			st := d.S0.Link().Stats()
			st1 := d.S1.Link().Stats()
			dense := st.DenseBytes + st1.DenseBytes
			wire := st.WireBytes + st1.WireBytes
			saved := 1 - float64(wire)/float64(dense)
			sum += saved
			count++
			t.Rows = append(t.Rows, []string{
				spec.Name, model,
				fmt.Sprintf("%d", dense), fmt.Sprintf("%d", wire),
				pct(saved), fmt.Sprintf("%d", st.CompressedSends+st1.CompressedSends),
			})
		}
	}
	t.Rows = append(t.Rows, []string{"average", "", "", "", pct(sum / float64(count)), ""})
	return t
}

// Figure17 reproduces Fig. 17: ParSecureML-vs-SecureML speedup as the
// SYNTHETIC workload grows from 1 MB to 4 GB. A workload of N 32×64
// matrices is processed as one secure multiplication of the stacked
// (N·32)×64 input against a 64×64 model — the triplet-multiplication
// pattern at growing scale. The paper: improvement increases with size.
func Figure17(opts Options) Table {
	prev := tensor.SetCompute(false)
	defer tensor.SetCompute(prev)

	t := Table{
		ID:     "fig17",
		Title:  "Speedup vs workload size (SYNTHETIC, 32x64 matrices)",
		Header: []string{"matrices", "size (MB)", "SecureML (s)", "ParSecureML (s)", "speedup"},
		Notes:  "paper Fig. 17: performance improvement grows with workload size (1 MB to 4 GB)",
	}
	for _, n := range []int{128, 512, 2048, 8192, 32768, 131072, 524288} {
		rows := n * 32
		mb := float64(rows*64*4) / (1 << 20)
		// Chunk the stacked input so device buffers stay inside V100
		// memory (4 GB of operands would not fit resident all at once).
		const chunkRows = 1 << 20
		run := func(cfg mpcsim.Config) float64 {
			d := mpcsim.NewDeployment(cfg)
			b := tensor.New(64, 64)
			for lo, c := 0, 0; lo < rows; lo, c = lo+chunkRows, c+1 {
				hi := lo + chunkRows
				if hi > rows {
					hi = rows
				}
				a := tensor.New(hi-lo, 64)
				d.SecureMatMul(fmt.Sprintf("w%d", c), a, b)
			}
			return d.Eng.Makespan()
		}
		sec := run(secureMLBaselineConfig(opts.Seed))
		par := run(parSecureMLConfig(opts.Seed))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), f1(mb), f2(sec), f2(par), fx(sec / par),
		})
	}
	return t
}
