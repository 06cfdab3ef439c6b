// Package mpcsim is the paper-figure simulator: ParSecureML's two-party
// computation engine in the float-share domain the paper's released code
// uses, run on modeled hardware. Both servers and the client of a
// Deployment live in one process on one simtime engine; every CPU pass,
// GPU kernel, PCIe copy and network transfer is charged to a simulated
// resource (internal/hw, internal/gpu), so makespans reproduce the paper's
// schedules — client-side Beaver-triplet generation (the offline phase,
// §4.2), the CPU reconstruct of E = A−U and F = B−V followed by the GPU
// triplet multiplication in the fused Eq. (8) form, the Fig. 5
// transfer/compute pipeline and the §4.4 compressed E/F transmission
// (Link, DeltaSender, DeltaReceiver). internal/secureml, internal/bench and
// the root parsecureml package build on it.
//
// The deployed two-server system is internal/mpc, from which this package
// takes Shares, TripletShares and ShareRange — for the same seed the two
// draw bit-identical shares and triplets. The cryptographically faithful
// Z_2^64 domain lives in internal/fixed and is compared against this domain
// by the A2 ablation bench.
package mpcsim

import (
	"fmt"

	"parsecureml/internal/gpu"
	"parsecureml/internal/hw"
	"parsecureml/internal/simtime"
)

// Node is one machine of the deployment (the client or a server): a CPU
// timeline plus an optional GPU device, with the §5.1 CPU parallelism
// toggle used by the Fig. 14 experiment.
type Node struct {
	Name     string
	Platform hw.Platform
	Eng      *simtime.Engine
	CPU      *simtime.Resource
	Dev      *gpu.Device // primary device; nil for a CPU-only node
	// Devs lists every attached device (Devs[0] == Dev). Multi-GPU nodes
	// split the online operation across them (the paper's multi-GPU
	// outlook, §8 [63]).
	Devs        []*gpu.Device
	ParallelCPU bool // thread-local MT19937 + parallel add/sub (§5.1)
	Ring        bool // scalar Z_2^64 arithmetic (SecureML baseline)
}

// NewNode creates a node named name on eng. withGPU attaches a simulated
// V100.
func NewNode(name string, p hw.Platform, eng *simtime.Engine, withGPU bool) *Node {
	return NewNodeGPUs(name, p, eng, map[bool]int{true: 1, false: 0}[withGPU])
}

// NewNodeGPUs creates a node with gpus simulated V100s (0 = CPU-only).
func NewNodeGPUs(name string, p hw.Platform, eng *simtime.Engine, gpus int) *Node {
	n := &Node{
		Name:        name,
		Platform:    p,
		Eng:         eng,
		CPU:         eng.Resource(name + ".cpu"),
		ParallelCPU: true,
	}
	for i := 0; i < gpus; i++ {
		suffix := ""
		if i > 0 {
			suffix = fmt.Sprintf("%d", i)
		}
		n.Devs = append(n.Devs, gpu.New(name+".gpu"+suffix, p, eng))
	}
	if len(n.Devs) > 0 {
		n.Dev = n.Devs[0]
	}
	return n
}

// ElemTask charges a CPU element-wise pass over the given bytes.
func (n *Node) ElemTask(name string, bytes int, deps ...*simtime.Task) *simtime.Task {
	dur := n.Platform.CPU.ElemwiseTime(bytes, n.ParallelCPU)
	return n.Eng.Schedule(n.CPU, "cpu.elem", name, dur, deps...)
}

// GemmTask charges a CPU GEMM of the given geometry (ring-domain rates on
// a SecureML-baseline node).
func (n *Node) GemmTask(name string, m, k, cols int, deps ...*simtime.Task) *simtime.Task {
	var dur float64
	if n.Ring {
		dur = n.Platform.CPU.RingGemmTime(m, k, cols, n.ParallelCPU)
	} else {
		dur = n.Platform.CPU.GemmTime(m, k, cols, n.ParallelCPU)
	}
	return n.Eng.Schedule(n.CPU, "cpu.gemm", name, dur, deps...)
}

// RandTask charges CPU generation of count random values.
func (n *Node) RandTask(name string, count int, deps ...*simtime.Task) *simtime.Task {
	dur := n.Platform.CPU.RandTime(count, n.ParallelCPU)
	return n.Eng.Schedule(n.CPU, "cpu.rand", name, dur, deps...)
}
