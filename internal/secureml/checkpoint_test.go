package secureml

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// ckptFixture builds a small two-layer model with deterministic weights
// and data; calling it twice with the same cfg yields bit-identical
// starting states.
func ckptFixture(cfg mpcsim.Config) (*Model, *ml.Model, []*tensor.Matrix, []*tensor.Matrix) {
	r := rng.NewRand(41)
	plain := ml.NewModel("ckpt-toy", ml.MSE{},
		ml.NewDense(8, 6, ml.ReLU, r),
		ml.NewDense(6, 1, ml.Identity, r),
	)
	x := tensor.New(8, 8)
	y := tensor.New(8, 1)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32()
	}
	xs, ys := batches(x, y, 4)
	d := mpcsim.NewDeployment(cfg)
	m := FromPlain(d, plain, MSELoss)
	m.Prepare(xs, ys)
	return m, plain, xs, ys
}

func revealBits(t *testing.T, m *Model, plain *ml.Model) []uint32 {
	t.Helper()
	m.RevealInto(plain)
	var bits []uint32
	for _, l := range plain.Layers {
		dl := l.(*ml.Dense)
		for _, v := range dl.W.Data {
			bits = append(bits, math.Float32bits(v))
		}
		for _, v := range dl.B.Data {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// A run resumed from an epoch-k checkpoint must reach weights
// bit-identical to an uninterrupted run with the same checkpoint
// cadence. Exercised with compression both off and on: the compressed
// E/F delta streams are fp32-history-dependent, so this is what proves
// the checkpoint's delta-stream rebase works.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Compress = compress
			const total, every = 4, 2
			const lr = 0.1

			// Uninterrupted run, checkpointing every 2 epochs.
			mA, plainA, _, _ := ckptFixture(cfg)
			ckpts := map[int][]byte{}
			if err := mA.TrainEpochsCheckpointed(total, lr, every, func(epoch int, data []byte) error {
				ckpts[epoch] = data
				return nil
			}); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			wantBits := revealBits(t, mA, plainA)

			// "Crashed" run: a fresh process rebuilds the model, restores
			// the epoch-2 checkpoint, and finishes.
			mB, plainB, _, _ := ckptFixture(cfg)
			info, err := mB.Restore(ckpts[2])
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if info.Epoch != 2 || info.LR != lr {
				t.Fatalf("restore info = %+v", info)
			}
			if mB.EpochsDone() != 2 {
				t.Fatalf("EpochsDone after restore = %d", mB.EpochsDone())
			}
			if err := mB.TrainEpochsCheckpointed(total, lr, every, func(int, []byte) error { return nil }); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			gotBits := revealBits(t, mB, plainB)

			if len(gotBits) != len(wantBits) {
				t.Fatalf("weight count mismatch: %d vs %d", len(gotBits), len(wantBits))
			}
			for i := range gotBits {
				if gotBits[i] != wantBits[i] {
					t.Fatalf("weight %d differs after resume: %08x vs %08x", i, gotBits[i], wantBits[i])
				}
			}
			// And the final checkpoints themselves must agree.
			lastA := ckpts[total]
			lastB := mB.Checkpoint(lr)
			if !bytes.Equal(lastA, lastB) {
				t.Fatalf("final checkpoints differ (%d vs %d bytes)", len(lastA), len(lastB))
			}
		})
	}
}

func TestCheckpointRoundTripAndValidation(t *testing.T) {
	cfg := testConfig()
	m, _, _, _ := ckptFixture(cfg)
	m.TrainEpochs(1, 0.1)
	data := m.Checkpoint(0.1)

	st, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.name != "ckpt-toy" || st.epochs != 1 || st.lr != 0.1 || len(st.layers) != 2 {
		t.Fatalf("decoded state = %+v", st)
	}

	// Truncations at every offset must error, never panic.
	for i := 0; i < len(data); i++ {
		if _, err := decodeCheckpoint(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	// Trailing garbage is rejected (a partial concatenation, not a frame).
	if _, err := decodeCheckpoint(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatalf("trailing byte accepted")
	}
	// Version skew is rejected up front.
	skew := append([]byte{}, data...)
	skew[4] = 0xFF
	if _, err := decodeCheckpoint(skew); err == nil {
		t.Fatalf("version skew accepted")
	}
	// A structurally different model refuses the checkpoint wholesale.
	r := rng.NewRand(7)
	other := ml.NewModel("other", ml.MSE{}, ml.NewDense(8, 6, ml.ReLU, r), ml.NewDense(6, 1, ml.Identity, r))
	x := tensor.New(4, 8)
	y := tensor.New(4, 1)
	om := FromPlain(mpcsim.NewDeployment(cfg), other, MSELoss)
	om.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	if _, err := om.Restore(data); err == nil {
		t.Fatalf("mismatched model accepted the checkpoint")
	}
	// om is untouched by the failed restore.
	if om.EpochsDone() != 0 {
		t.Fatalf("failed restore advanced EpochsDone to %d", om.EpochsDone())
	}
}

func TestCheckpointFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	if _, _, ok, err := LatestCheckpoint(dir); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
	for epoch, data := range map[int][]byte{2: []byte("two"), 10: []byte("ten"), 4: []byte("four")} {
		if _, err := WriteCheckpointFile(dir, epoch, data); err != nil {
			t.Fatalf("write epoch %d: %v", epoch, err)
		}
	}
	// A stray temp file (crash mid-write) must not confuse the scan.
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, epoch, ok, err := LatestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if epoch != 10 {
		t.Fatalf("latest epoch = %d", epoch)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "ten" {
		t.Fatalf("latest content %q, %v", got, err)
	}
}

// FuzzCheckpointCodec hammers the decode path: arbitrary input must
// error or decode cleanly — never panic, and never allocate beyond what
// the buffer length justifies (matrix payload sizes are validated before
// allocation, so a 4-GiB dimension claim in a 100-byte buffer fails
// fast).
func FuzzCheckpointCodec(f *testing.F) {
	m, _, _, _ := ckptFixture(testConfig())
	m.TrainEpochs(1, 0.1)
	valid := m.Checkpoint(0.1)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	f.Add([]byte("PSCK"))
	skew := append([]byte{}, valid...)
	skew[4] = 2 // future version
	f.Add(skew)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err == nil && st == nil {
			t.Fatalf("nil state with nil error")
		}
	})
}
