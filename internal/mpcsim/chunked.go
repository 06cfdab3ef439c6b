package mpcsim

import (
	"parsecureml/internal/gpu"
	"parsecureml/internal/mpc"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// DefaultGPUMemBudget returns the device-memory budget OnlineMulGPU plans
// against: the device capacity less a safety margin for allocator slack.
func DefaultGPUMemBudget(d *gpu.Device) int64 {
	// Keep 1/16 of the card free for allocator slack.
	cap := d.MemCapacity()
	return cap - cap/16
}

// onlineMulGPUChunked executes Eq. (8) for working sets that exceed device
// memory, the situation the NIST 512×512 convolutions create: F and B_i
// stay resident while row bands of E, A_i and Z_i stream through the
// device, each band's transfers overlapping the previous band's kernels —
// the fine-grained distribution challenge 1 (§3.3) calls for.
func (s *Server) onlineMulGPUChunked(ef EF, in mpc.Shares, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	d := s.Dev
	m, k, n := in.A.Rows, in.A.Cols, in.B.Cols
	pre := append([]*simtime.Task{ef.Done}, deps...)

	// Band height: fit 2× (band of E, A, D, Z, C) + resident F, B within
	// the budget (double buffering for the overlap).
	budget := DefaultGPUMemBudget(d) - d.MemUsed() - int64(8*k*n)
	perRow := int64(4 * (3*k + 2*n) * 2)
	band := int(budget / perRow)
	if band < 1 {
		band = 1
	}
	if band > m {
		band = m
	}

	dF, tF, err := d.H2D(ef.F, pre...)
	must(err)
	dB, tB, err := d.H2D(in.B, pre...)
	must(err)

	c := tensor.New(m, n)
	var outs []*simtime.Task
	var prevKernel *simtime.Task
	for lo := 0; lo < m; lo += band {
		hi := lo + band
		if hi > m {
			hi = m
		}
		eBand := ef.E.SliceRows(lo, hi)
		aBand := in.A.SliceRows(lo, hi)
		zBand := in.T.Z.SliceRows(lo, hi)

		dE, tE, err := d.H2D(eBand, pre...)
		must(err)
		dA, tA, err := d.H2D(aBand, pre...)
		must(err)
		dZ, tZ, err := d.H2D(zBand, pre...)
		must(err)

		dD := d.MustAlloc(hi-lo, k)
		var tD *simtime.Task
		if s.Party == 1 {
			d.Scale(dD, dE, -1, tE, prevKernel)
			tD = d.AXPY(dD, 1, dA, tA)
		} else {
			tD = d.Scale(dD, dA, 1, tA, prevKernel)
		}
		dC := d.MustAlloc(hi-lo, n)
		g1 := d.Gemm(dC, dD, dF, tD, tF)
		g2 := d.GemmAcc(dC, dE, dB, g1, tB)
		g3 := d.AXPY(dC, 1, dZ, g2, tZ)
		hostBand, tOut := d.D2H(dC, g3)
		if tensor.ComputeEnabled() {
			c.SliceRows(lo, hi).CopyFrom(hostBand)
		}
		outs = append(outs, tOut)
		prevKernel = g3

		d.Free(dE)
		d.Free(dA)
		d.Free(dZ)
		d.Free(dD)
		d.Free(dC)
	}
	d.Free(dF)
	d.Free(dB)
	done := s.Eng.After(outs...)
	return c, done
}

// onlineMulMultiGPU row-splits Eq. (8) across the server's devices: every
// GPU holds F and B_i and processes its band of E, A_i, Z_i — the
// data-parallel scheme the paper's multi-GPU outlook (§8, [63]) sketches.
// Bands run on independent device/PCIe timelines, so the modeled time
// approaches 1/G of the single-GPU kernel time plus the replicated
// transfers.
func (s *Server) onlineMulMultiGPU(ef EF, in mpc.Shares, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	devs := s.Devs
	m, n := in.A.Rows, in.B.Cols
	pre := append([]*simtime.Task{ef.Done}, deps...)

	c := tensor.New(m, n)
	band := (m + len(devs) - 1) / len(devs)
	var outs []*simtime.Task
	for g, d := range devs {
		lo := g * band
		if lo >= m {
			break
		}
		hi := lo + band
		if hi > m {
			hi = m
		}
		eBand := ef.E.SliceRows(lo, hi)
		aBand := in.A.SliceRows(lo, hi)
		zBand := in.T.Z.SliceRows(lo, hi)

		dF, tF, err := d.H2D(ef.F, pre...)
		must(err)
		dB, tB, err := d.H2D(in.B, pre...)
		must(err)
		dE, tE, err := d.H2D(eBand, pre...)
		must(err)
		dA, tA, err := d.H2D(aBand, pre...)
		must(err)
		dZ, tZ, err := d.H2D(zBand, pre...)
		must(err)

		dD := d.MustAlloc(hi-lo, in.A.Cols)
		var tD *simtime.Task
		if s.Party == 1 {
			d.Scale(dD, dE, -1, tE)
			tD = d.AXPY(dD, 1, dA, tA)
		} else {
			tD = d.Scale(dD, dA, 1, tA)
		}
		var barrier *simtime.Task
		if !s.PipelineTransfers {
			barrier = s.Eng.After(tE, tA, tF, tB, tZ)
		}
		dC := d.MustAlloc(hi-lo, n)
		g1 := d.Gemm(dC, dD, dF, tD, tF, barrier)
		g2 := d.GemmAcc(dC, dE, dB, g1, tB)
		g3 := d.AXPY(dC, 1, dZ, g2, tZ)
		hostBand, tOut := d.D2H(dC, g3)
		if tensor.ComputeEnabled() {
			c.SliceRows(lo, hi).CopyFrom(hostBand)
		}
		outs = append(outs, tOut)

		d.Free(dF)
		d.Free(dB)
		d.Free(dE)
		d.Free(dA)
		d.Free(dZ)
		d.Free(dD)
		d.Free(dC)
	}
	return c, s.Eng.After(outs...)
}
