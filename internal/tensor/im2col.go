package tensor

import "fmt"

// Convolution lowering. The paper's CNN uses a 5×5 convolution; the secure
// framework protects it the same way as a dense layer, by lowering each
// convolution to a matrix multiplication over im2col patches (or, in the
// authors' point-to-point variant, a Hadamard product per window, §7.2).

// ConvShape describes a 2-D convolution over a (possibly multi-channel)
// feature map laid out as one image per matrix row, channel-major:
// [c0 row-major | c1 | …]. Channels == 0 is treated as 1.
type ConvShape struct {
	InH, InW   int // input height and width
	Channels   int // input channels (0 => 1)
	KH, KW     int // kernel height and width
	Stride     int
	Pad        int
	OutH, OutW int // derived output size
}

// NewConvShapeCh computes the output geometry for a channels-deep input,
// panicking on impossible configurations.
func NewConvShapeCh(inH, inW, channels, kh, kw, stride, pad int) ConvShape {
	if stride < 1 {
		panic("tensor: conv stride must be >= 1")
	}
	if channels < 1 {
		panic("tensor: conv channels must be >= 1")
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH < 1 || outW < 1 {
		panic(fmt.Sprintf("tensor: conv %dx%d kernel %dx%d stride %d pad %d yields empty output", inH, inW, kh, kw, stride, pad))
	}
	return ConvShape{InH: inH, InW: inW, Channels: channels, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// InChannels returns the channel count (>= 1).
func (s ConvShape) InChannels() int {
	if s.Channels < 1 {
		return 1
	}
	return s.Channels
}

// InDim returns the flattened per-sample input width (Channels·InH·InW).
func (s ConvShape) InDim() int { return s.InChannels() * s.InH * s.InW }

// PatchSize returns the number of elements per im2col patch
// (Channels·KH·KW).
func (s ConvShape) PatchSize() int { return s.InChannels() * s.KH * s.KW }

// Patches returns the number of sliding-window positions (OutH*OutW).
func (s ConvShape) Patches() int { return s.OutH * s.OutW }

// Im2Col lowers a batch of single-channel images (one image per row of in,
// each of length InH*InW) into a patch matrix of shape
// (batch*OutH*OutW) × (KH*KW); multiplying it by a flattened kernel column
// performs the convolution.
func Im2Col(in *Matrix, s ConvShape) *Matrix {
	if in.Cols != s.InDim() {
		panic(fmt.Sprintf("tensor: Im2Col input row length %d, want %d", in.Cols, s.InDim()))
	}
	batch := in.Rows
	ch := s.InChannels()
	plane := s.InH * s.InW
	out := New(batch*s.Patches(), s.PatchSize())
	if !ComputeEnabled() {
		return out
	}
	parallelFor(batch, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			img := in.Row(b)
			for oy := 0; oy < s.OutH; oy++ {
				for ox := 0; ox < s.OutW; ox++ {
					dst := out.Row(b*s.Patches() + oy*s.OutW + ox)
					p := 0
					for c := 0; c < ch; c++ {
						imgC := img[c*plane:]
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.Stride + ky - s.Pad
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.Stride + kx - s.Pad
								if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
									dst[p] = imgC[iy*s.InW+ix]
								} else {
									dst[p] = 0
								}
								p++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// Col2Im scatters patch-space gradients back to image space (the adjoint of
// Im2Col), accumulating overlapping windows. cols has shape
// (batch*OutH*OutW) × (KH*KW); the result has one image per row.
func Col2Im(cols *Matrix, batch int, s ConvShape) *Matrix {
	if cols.Rows != batch*s.Patches() || cols.Cols != s.PatchSize() {
		panic(fmt.Sprintf("tensor: Col2Im input %dx%d, want %dx%d", cols.Rows, cols.Cols, batch*s.Patches(), s.PatchSize()))
	}
	ch := s.InChannels()
	plane := s.InH * s.InW
	out := New(batch, s.InDim())
	if !ComputeEnabled() {
		return out
	}
	parallelFor(batch, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			img := out.Row(b)
			for oy := 0; oy < s.OutH; oy++ {
				for ox := 0; ox < s.OutW; ox++ {
					src := cols.Row(b*s.Patches() + oy*s.OutW + ox)
					p := 0
					for c := 0; c < ch; c++ {
						imgC := img[c*plane:]
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.Stride + ky - s.Pad
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.Stride + kx - s.Pad
								if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
									imgC[iy*s.InW+ix] += src[p]
								}
								p++
							}
						}
					}
				}
			}
		}
	})
	return out
}
