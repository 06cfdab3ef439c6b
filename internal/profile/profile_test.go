package profile

import (
	"testing"

	"parsecureml/internal/hw"
)

func TestGemmPlacementBySize(t *testing.T) {
	a := NewAdvisor(hw.Paper(), false)
	if got := a.Gemm(16, 16, 16); got != CPU {
		t.Fatalf("tiny GEMM placed on %v, want CPU", got)
	}
	if got := a.Gemm(4096, 4096, 4096); got != GPU {
		t.Fatalf("large GEMM placed on %v, want GPU", got)
	}
}

func TestRandCrossover(t *testing.T) {
	a := NewAdvisor(hw.Paper(), false)
	if got := a.Rand(512 * 512); got != CPU {
		t.Fatalf("small rand on %v, want CPU (Fig. 7)", got)
	}
	if got := a.Rand(16384 * 16384); got != GPU {
		t.Fatalf("huge rand on %v, want GPU (Fig. 7)", got)
	}
}

func TestGPUBiasFlipsDecision(t *testing.T) {
	a := NewAdvisor(hw.Paper(), false)
	// Find a size where GPU wins, then bias it out.
	if a.Gemm(2048, 2048, 2048) != GPU {
		t.Fatal("precondition: 2048³ should be GPU")
	}
	a.GPUBias = 1e6
	if a.Gemm(2048, 2048, 2048) != CPU {
		t.Fatal("large GPU bias must force CPU")
	}
}

func TestCrossoverDim(t *testing.T) {
	a := NewAdvisor(hw.Paper(), false)
	dim := a.CrossoverDim(1, 8192)
	if dim <= 1 || dim > 8192 {
		t.Fatalf("crossover at %d, want interior knee", dim)
	}
	// Consistency: below the knee CPU, at/above the knee GPU.
	cpuSide := a.P.CPU.GemmTime(dim-1, dim-1, dim-1, true)
	gpuSide := a.P.GPU.GemmTime(dim-1, dim-1, dim-1, false) + 3*a.P.PCIe.TransferTime(4*(dim-1)*(dim-1))
	if gpuSide < cpuSide {
		t.Fatalf("dim %d below knee should favor CPU", dim-1)
	}
}

func TestTensorCoresShiftCrossoverDown(t *testing.T) {
	fp := NewAdvisor(hw.Paper(), false)
	tc := NewAdvisor(hw.Paper(), true)
	if tc.CrossoverDim(1, 8192) > fp.CrossoverDim(1, 8192) {
		t.Fatal("tensor cores must not raise the GPU crossover size")
	}
}

func TestPlacementString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Placement.String")
	}
}
