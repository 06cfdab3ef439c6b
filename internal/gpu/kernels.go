package gpu

import (
	"fmt"

	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// Compute kernels. Each kernel executes the real computation immediately
// (results are independent of simulated time) and schedules a task of the
// modeled duration on the device compute timeline, depending on the source
// buffers' last writers plus any explicit deps.

func (d *Device) kernelDeps(explicit []*simtime.Task, bufs ...*Buffer) []*simtime.Task {
	deps := make([]*simtime.Task, 0, len(explicit)+len(bufs)+1)
	if w := d.warm(); w != nil {
		deps = append(deps, w)
	}
	deps = append(deps, explicit...)
	for _, b := range bufs {
		if b != nil && b.ready != nil {
			deps = append(deps, b.ready)
		}
	}
	return deps
}

// Gemm computes dst = a×b on the device. In Tensor-Core mode the inputs are
// rounded through binary16 before the multiply (FP32 accumulation), exactly
// the numeric contract of cublasSgemmEx on Tensor Cores.
func (d *Device) Gemm(dst, a, b *Buffer, deps ...*simtime.Task) *simtime.Task {
	m, k, n := a.data.Rows, a.data.Cols, b.data.Cols
	var dur float64
	if d.tensorCores {
		ra := tensor.New(a.data.Rows, a.data.Cols)
		rb := tensor.New(b.data.Rows, b.data.Cols)
		tensor.RoundMatrixFloat16(ra, a.data)
		tensor.RoundMatrixFloat16(rb, b.data)
		tensor.Mul(dst.data, ra, rb)
		dur = d.model.GemmTime(m, k, n, true)
	} else {
		tensor.Mul(dst.data, a.data, b.data)
		dur = d.model.GemmTime(m, k, n, false)
	}
	kind := "gemm"
	if d.tensorCores {
		kind = "gemm.tc"
	}
	t := d.eng.Schedule(d.compute, kind, fmt.Sprintf("GEMM %dx%dx%d", m, k, n), dur, d.kernelDeps(deps, a, b)...)
	d.prof.record(kind, dur, 0)
	dst.ready = t
	return t
}

// GemmAcc computes dst += a×b (beta = 1).
func (d *Device) GemmAcc(dst, a, b *Buffer, deps ...*simtime.Task) *simtime.Task {
	m, k, n := a.data.Rows, a.data.Cols, b.data.Cols
	var dur float64
	if d.tensorCores {
		ra := tensor.New(a.data.Rows, a.data.Cols)
		rb := tensor.New(b.data.Rows, b.data.Cols)
		tensor.RoundMatrixFloat16(ra, a.data)
		tensor.RoundMatrixFloat16(rb, b.data)
		tensor.Gemm(dst.data, ra, rb, 1, 1)
		dur = d.model.GemmTime(m, k, n, true)
	} else {
		tensor.Gemm(dst.data, a.data, b.data, 1, 1)
		dur = d.model.GemmTime(m, k, n, false)
	}
	kind := "gemm"
	if d.tensorCores {
		kind = "gemm.tc"
	}
	t := d.eng.Schedule(d.compute, kind, fmt.Sprintf("GEMM+ %dx%dx%d", m, k, n), dur, d.kernelDeps(deps, dst, a, b)...)
	d.prof.record(kind, dur, 0)
	dst.ready = t
	return t
}

func (d *Device) elementwise(kind, name string, dst *Buffer, bytes int, explicit []*simtime.Task, srcs ...*Buffer) *simtime.Task {
	dur := d.model.ElemwiseTime(bytes)
	t := d.eng.Schedule(d.compute, kind, name, dur, d.kernelDeps(explicit, srcs...)...)
	d.prof.record(kind, dur, 0)
	dst.ready = t
	return t
}

// Add computes dst = a + b element-wise on the device.
func (d *Device) Add(dst, a, b *Buffer, deps ...*simtime.Task) *simtime.Task {
	tensor.Add(dst.data, a.data, b.data)
	return d.elementwise("elem", "add", dst, 3*dst.Bytes(), deps, a, b)
}

// Sub computes dst = a - b element-wise on the device.
func (d *Device) Sub(dst, a, b *Buffer, deps ...*simtime.Task) *simtime.Task {
	tensor.Sub(dst.data, a.data, b.data)
	return d.elementwise("elem", "sub", dst, 3*dst.Bytes(), deps, a, b)
}

// Scale computes dst = alpha*a on the device.
func (d *Device) Scale(dst, a *Buffer, alpha float32, deps ...*simtime.Task) *simtime.Task {
	tensor.Scale(dst.data, a.data, alpha)
	return d.elementwise("elem", "scale", dst, 2*dst.Bytes(), deps, a)
}

// AXPY computes dst += alpha*a on the device.
func (d *Device) AXPY(dst *Buffer, alpha float32, a *Buffer, deps ...*simtime.Task) *simtime.Task {
	tensor.AXPY(dst.data, alpha, a.data)
	return d.elementwise("elem", "axpy", dst, 3*dst.Bytes(), deps, dst, a)
}

// Hadamard computes dst = a ⊙ b on the device (the paper's CNN
// point-to-point multiplication, §7.2).
func (d *Device) Hadamard(dst, a, b *Buffer, deps ...*simtime.Task) *simtime.Task {
	tensor.Hadamard(dst.data, a.data, b.data)
	return d.elementwise("elem", "hadamard", dst, 3*dst.Bytes(), deps, a, b)
}
