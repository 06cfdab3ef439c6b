// Package profile implements the paper's profiling-guided adaptive GPU
// utilization (§4.2): decide, per operation, whether the GPU's compute
// advantage outweighs the PCIe transfers, kernel-launch latency and
// warm-up it drags in — "if the PCIe data transmission overhead is larger
// than the GPU acceleration benefits, we cannot obtain overall performance
// benefits" (§3.3, challenge 2).
//
// The analytic hardware models (internal/hw) stand in for the paper's nvprof
// profiles, which fix the placement of each phase.
package profile

import "parsecureml/internal/hw"

// Placement says where an operation should run.
type Placement int

// Placement values.
const (
	CPU Placement = iota
	GPU
)

// String returns "CPU" or "GPU".
func (p Placement) String() string {
	if p == GPU {
		return "GPU"
	}
	return "CPU"
}

// Advisor makes placement decisions for a node.
type Advisor struct {
	P           hw.Platform
	TensorCores bool
	// GPUBias multiplies modeled GPU costs; >1 penalizes the GPU (e.g. to
	// account for contention the model misses).
	GPUBias float64
}

// NewAdvisor returns an advisor over platform p.
func NewAdvisor(p hw.Platform, tensorCores bool) *Advisor {
	return &Advisor{P: p, TensorCores: tensorCores, GPUBias: 1}
}

func (a *Advisor) decide(cpu, gpu float64) Placement {
	if gpu*a.GPUBias < cpu {
		return GPU
	}
	return CPU
}

// Gemm places an m×k × k×n multiplication whose operands must be shipped
// to the device and whose result comes back.
func (a *Advisor) Gemm(m, k, n int) Placement {
	cpu := a.P.CPU.GemmTime(m, k, n, true)
	xfer := a.P.PCIe.TransferTime(4*(m*k+k*n)) + a.P.PCIe.TransferTime(4*m*n)
	gpu := a.P.GPU.GemmTime(m, k, n, a.TensorCores) + xfer
	return a.decide(cpu, gpu)
}

// Rand places generation of n random values that must end up in host
// memory (Fig. 7's cuRAND-vs-MT19937 comparison).
func (a *Advisor) Rand(n int) Placement {
	cpu := a.P.CPU.RandTime(n, true)
	gpu := a.P.GPU.RandTime(n) + a.P.PCIe.TransferTime(4*n)
	return a.decide(cpu, gpu)
}

// CrossoverDim finds the smallest square GEMM dimension (within [lo,hi])
// for which the advisor picks the GPU — the knee the paper's Fig. 17 and
// §7.7 discuss. Returns hi+1 if the GPU never wins in range.
func (a *Advisor) CrossoverDim(lo, hi int) int {
	ans := hi + 1
	for l, h := lo, hi; l <= h; {
		mid := (l + h) / 2
		cpu := a.P.CPU.GemmTime(mid, mid, mid, true)
		xfer := 3 * a.P.PCIe.TransferTime(4*mid*mid)
		gpu := a.P.GPU.GemmTime(mid, mid, mid, a.TensorCores) + xfer
		if gpu < cpu {
			ans = mid
			h = mid - 1
		} else {
			l = mid + 1
		}
	}
	return ans
}
