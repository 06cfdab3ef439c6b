// Package gpu simulates a discrete CUDA-class accelerator: device-resident
// buffers, host↔device copies charged to PCIe channel timelines, compute
// kernels (GEMM, element-wise) that execute for real on the host (bit-exact
// results) while charging modeled V100 kernel times to a device compute
// timeline, a Tensor-Core mode that rounds GEMM inputs through binary16
// exactly like the hardware's FP16-multiply/FP32-accumulate pipe, a one-time
// warm-up cost, and an nvprof-style profiler.
//
// Timing semantics come from the simtime engine: kernels on the same device
// serialize; copies ride separate H2D and D2H channels, so a kernel can
// overlap a transfer exactly as in the paper's first pipeline (Fig. 5).
//
// A Device is not safe for concurrent use; in the framework each simulated
// server goroutine owns one Device, matching one V100 per node (§7.1).
package gpu

import (
	"errors"
	"fmt"

	"parsecureml/internal/hw"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// ErrOutOfMemory is returned by Alloc when the device memory is exhausted.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// defaultMemBytes is the device memory capacity (a 16 GB V100).
const defaultMemBytes = 16 << 30

// Device is one simulated GPU.
type Device struct {
	name    string
	model   hw.GPUModel
	pcie    hw.LinkModel
	eng     *simtime.Engine
	compute *simtime.Resource
	h2d     *simtime.Resource
	d2h     *simtime.Resource

	tensorCores bool
	warmedUp    bool

	memUsed int64
	memCap  int64

	prof *Profiler
}

// Buffer is a device-resident matrix.
type Buffer struct {
	dev  *Device
	data *tensor.Matrix
	// ready is the task that last wrote the buffer; kernels reading the
	// buffer may depend on it for convenience.
	ready *simtime.Task
	freed bool
}

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int { return b.data.Bytes() }

// New creates a device on the given platform, attached to eng's timelines.
// The name prefixes the device's simtime resources ("gpu0.compute", ...).
func New(name string, p hw.Platform, eng *simtime.Engine) *Device {
	return &Device{
		name:    name,
		model:   p.GPU,
		pcie:    p.PCIe,
		eng:     eng,
		compute: eng.Resource(name + ".compute"),
		h2d:     eng.Resource(name + ".h2d"),
		d2h:     eng.Resource(name + ".d2h"),
		memCap:  defaultMemBytes,
		prof:    NewProfiler(),
	}
}

// SetMemCapacity overrides the device memory size (bytes).
func (d *Device) SetMemCapacity(bytes int64) { d.memCap = bytes }

// MemCapacity returns the device memory size (bytes).
func (d *Device) MemCapacity() int64 { return d.memCap }

// MemUsed returns the currently allocated device memory in bytes.
func (d *Device) MemUsed() int64 { return d.memUsed }

// EnableTensorCores switches GEMM kernels to the Tensor-Core pipe
// (cublasSetMathMode(CUBLAS_TENSOR_OP_MATH) in the paper, §5.2): inputs are
// rounded through binary16, accumulation stays FP32, and the cost model
// uses the Tensor-Core throughput curve.
func (d *Device) EnableTensorCores(on bool) { d.tensorCores = on }

// Profiler returns the device's profiler.
func (d *Device) Profiler() *Profiler { return d.prof }

// Engine returns the simtime engine the device charges.
func (d *Device) Engine() *simtime.Engine { return d.eng }

// warm charges the one-time warm-up on first use and returns its task (nil
// afterwards).
func (d *Device) warm() *simtime.Task {
	if d.warmedUp {
		return nil
	}
	d.warmedUp = true
	t := d.eng.Schedule(d.compute, "warmup", d.name+" warm-up", d.model.WarmUp)
	d.prof.record("warmup", d.model.WarmUp, 0)
	return t
}

// Alloc reserves an uninitialized rows×cols device buffer.
func (d *Device) Alloc(rows, cols int) (*Buffer, error) {
	bytes := int64(4 * rows * cols)
	if d.memUsed+bytes > d.memCap {
		return nil, fmt.Errorf("%w: want %d, used %d of %d", ErrOutOfMemory, bytes, d.memUsed, d.memCap)
	}
	d.memUsed += bytes
	return &Buffer{dev: d, data: tensor.New(rows, cols)}, nil
}

// MustAlloc is Alloc for callers that treat OOM as fatal.
func (d *Device) MustAlloc(rows, cols int) *Buffer {
	b, err := d.Alloc(rows, cols)
	if err != nil {
		panic(err)
	}
	return b
}

// Free releases the buffer's device memory. Double frees panic.
func (d *Device) Free(b *Buffer) {
	if b.freed {
		panic("gpu: double free")
	}
	b.freed = true
	d.memUsed -= int64(b.Bytes())
}

// H2D copies host into a fresh device buffer, charging the H2D channel.
func (d *Device) H2D(host *tensor.Matrix, deps ...*simtime.Task) (*Buffer, *simtime.Task, error) {
	b, err := d.Alloc(host.Rows, host.Cols)
	if err != nil {
		return nil, nil, err
	}
	t := d.H2DInto(b, host, deps...)
	return b, t, nil
}

// H2DInto copies host into an existing buffer of identical shape.
func (d *Device) H2DInto(b *Buffer, host *tensor.Matrix, deps ...*simtime.Task) *simtime.Task {
	if b.data.Rows != host.Rows || b.data.Cols != host.Cols {
		panic(fmt.Sprintf("gpu: H2DInto shape %dx%d into %dx%d", host.Rows, host.Cols, b.data.Rows, b.data.Cols))
	}
	b.data.CopyFrom(host)
	dur := d.pcie.TransferTime(host.Bytes())
	t := d.eng.Schedule(d.h2d, "h2d", fmt.Sprintf("H2D %dB", host.Bytes()), dur, deps...)
	d.prof.record("h2d", dur, host.Bytes())
	b.ready = t
	return t
}

// D2H copies a device buffer back to a new host matrix on the D2H channel.
func (d *Device) D2H(b *Buffer, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	host := b.data.Clone()
	dur := d.pcie.TransferTime(b.Bytes())
	allDeps := append([]*simtime.Task{b.ready}, deps...)
	t := d.eng.Schedule(d.d2h, "d2h", fmt.Sprintf("D2H %dB", b.Bytes()), dur, allDeps...)
	d.prof.record("d2h", dur, b.Bytes())
	return host, t
}

// Data exposes the device-resident matrix for in-simulation readers (e.g.
// kernels of the owning server). Mutating it without a kernel breaks
// profiling honesty; tests only.
func (b *Buffer) Data() *tensor.Matrix { return b.data }
