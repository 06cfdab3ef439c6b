package tensor

// Element-wise kernels. These cover the CPU-side work the paper leaves off
// the GPU: the matrix additions and subtractions of Eqs. (3) and (5)
// (share splitting, E/F reconstruction). All binary kernels run in
// parallel over cache-line-aligned chunks (paper §5.1) and write into a
// caller-supplied destination so buffers can be reused across iterations.

// elementwiseSerialFloats is the vector length below which the
// element-wise kernels run inline: for short operands the goroutine
// fan-out costs more than the loop itself, and the wire serving hot path
// (several small kernels per row band per request) must not allocate a
// closure per call. The kernels are position-independent, so the cutoff
// never changes results.
const elementwiseSerialFloats = 4096

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b *Matrix) {
	a.mustSameShape(b, "Add")
	dst.mustSameShape(a, "Add")
	if !ComputeEnabled() {
		return
	}
	if len(dst.Data) <= elementwiseSerialFloats {
		for i := range dst.Data {
			dst.Data[i] = a.Data[i] + b.Data[i]
		}
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, db, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = da[i] + db[i]
		}
	})
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	a.mustSameShape(b, "Sub")
	dst.mustSameShape(a, "Sub")
	if !ComputeEnabled() {
		return
	}
	if len(dst.Data) <= elementwiseSerialFloats {
		for i := range dst.Data {
			dst.Data[i] = a.Data[i] - b.Data[i]
		}
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, db, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = da[i] - db[i]
		}
	})
}

// AddTo returns a newly allocated a + b.
func AddTo(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	Add(out, a, b)
	return out
}

// SubTo returns a newly allocated a - b.
func SubTo(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	Sub(out, a, b)
	return out
}

// Scale computes dst = alpha * a. dst may alias a.
func Scale(dst, a *Matrix, alpha float32) {
	dst.mustSameShape(a, "Scale")
	if !ComputeEnabled() {
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, dd := a.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = alpha * da[i]
		}
	})
}

// AXPY computes dst = dst + alpha*a (the BLAS axpy kernel, used by SGD
// weight updates). dst may alias a.
func AXPY(dst *Matrix, alpha float32, a *Matrix) {
	dst.mustSameShape(a, "AXPY")
	if !ComputeEnabled() {
		return
	}
	if len(dst.Data) <= elementwiseSerialFloats {
		for i := range dst.Data {
			dst.Data[i] += alpha * a.Data[i]
		}
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, dd := a.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] += alpha * da[i]
		}
	})
}

// Hadamard computes dst = a ⊙ b (element-wise product); the paper's CNN
// implementation uses point-to-point multiplication (§7.2). dst may alias
// a or b.
func Hadamard(dst, a, b *Matrix) {
	a.mustSameShape(b, "Hadamard")
	dst.mustSameShape(a, "Hadamard")
	if !ComputeEnabled() {
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, db, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = da[i] * db[i]
		}
	})
}

// Apply computes dst[i] = f(a[i]) in parallel. dst may alias a.
func Apply(dst, a *Matrix, f func(float32) float32) {
	dst.mustSameShape(a, "Apply")
	if !ComputeEnabled() {
		return
	}
	if len(dst.Data) <= elementwiseSerialFloats {
		for i := range dst.Data {
			dst.Data[i] = f(a.Data[i])
		}
		return
	}
	parallelFor(len(dst.Data), CacheLineFloats, func(lo, hi int) {
		da, dd := a.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = f(da[i])
		}
	})
}
