package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary wire codec for dense, FP16-dense and CSR matrices. The
// compressed-transmission experiments (Fig. 16) measure real encoded byte
// counts, so the codec is a compact little-endian format rather than gob:
//
//	dense: 'D' u32(rows) u32(cols) rows*cols × f32
//	fp16:  'H' u32(rows) u32(cols) rows*cols × binary16
//	csr:   'S' u32(rows) u32(cols) u32(nnz) (rows+1) × u32 rowptr,
//	       nnz × u32 colidx, nnz × f32 values
//
// Every format is self-describing through its leading tag, so a receiver
// decodes whatever arrives (DecodeAnyInto) and codec choice is a sender-
// local decision — the property the adaptive wire-compression layer
// (internal/mpc/wirecodec.go) builds on. FP16 is lossy: the sender must
// round its own retained copy identically (see RoundMatrixFloat16InPlace)
// or the two parties desync.
//
// A dense payload moves as memory: on a little-endian host the wire form of
// rows*cols float32 IS their bytes, so EncodeMatrix, DecodeMatrix* and
// DecodeMatrixInto hand it to putFloat32s/getFloat32s — one copy there
// (codec_le.go, the repository's only unsafe), the per-element loop on a
// big-endian one (codec_be.go). Same bytes either way, NaN payloads included.

var (
	// ErrCodecShort indicates a truncated buffer.
	ErrCodecShort = errors.New("tensor: codec: buffer too short")
	// ErrCodecTag indicates an unknown leading type tag.
	ErrCodecTag = errors.New("tensor: codec: unknown type tag")
)

const (
	tagDense = 'D'
	tagCSR   = 'S'
	tagFP16  = 'H'
)

// EncodedSizeDense returns the wire size of a dense rows×cols matrix.
func EncodedSizeDense(rows, cols int) int { return 1 + 8 + 4*rows*cols }

// EncodedSizeFP16 returns the wire size of an FP16-dense rows×cols matrix.
func EncodedSizeFP16(rows, cols int) int { return 1 + 8 + 2*rows*cols }

// EncodedSizeCSR returns the wire size of a rows×cols CSR frame carrying
// nnz stored values: tag + header, (rows+1) row pointers, and an (index,
// value) pair per non-zero. Selectors compare this against
// EncodedSizeDense before electing the sparse format — at small matrices
// the row-pointer overhead makes CSR the larger encoding even above the
// 75 % sparsity threshold.
func EncodedSizeCSR(rows, cols, nnz int) int { return 13 + 4*(rows+1) + 8*nnz }

// EncodedSize returns the wire size of m, so frame buffers can be
// preallocated at exact capacity instead of append-grown element by
// element (which reallocates a multi-MB frame a dozen times over).
func EncodedSize(m *Matrix) int { return EncodedSizeDense(m.Rows, m.Cols) }

// EncodeMatrix appends the wire form of m to buf and returns the result.
// Preallocate with EncodedSize to avoid growth copies on large matrices.
func EncodeMatrix(buf []byte, m *Matrix) []byte {
	if m.shapeOnly() {
		panic("tensor: EncodeMatrix on a shape-only (dry-run) matrix")
	}
	buf = append(buf, tagDense)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	// Bulk-extend once, then write the payload in place.
	need := 4 * len(m.Data)
	off := len(buf)
	if cap(buf)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+need]
	putFloat32s(buf[off:], m.Data)
	return buf
}

// EncodeMatrixFP16 appends the binary16 wire form of m to buf and returns
// the result — half the dense payload. Conversion is round-to-nearest-even
// (see float16.go); values beyond the binary16 range encode as ±Inf, so
// senders gate on MaxAbs before electing this format. Like EncodeMatrix,
// the loop writes into a bulk-extended tail in place.
func EncodeMatrixFP16(buf []byte, m *Matrix) []byte {
	if m.shapeOnly() {
		panic("tensor: EncodeMatrixFP16 on a shape-only (dry-run) matrix")
	}
	buf = append(buf, tagFP16)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	need := 2 * len(m.Data)
	off := len(buf)
	if cap(buf)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+need]
	out := buf[off:]
	for i, v := range m.Data {
		binary.LittleEndian.PutUint16(out[2*i:], Float32ToFloat16Bits(v))
	}
	return buf
}

// AppendMatrixCSR appends the CSR wire form of the dense matrix m to buf
// and returns the result, byte-identical to EncodeCSR(buf, FromDense(m))
// but without materializing a CSR: one counting pass sizes the frame, a
// second pass streams row pointers, column indices and values directly
// into the bulk-extended tail. This keeps the serving hot path's sparse
// sends allocation-free (modulo first-use buffer growth).
func AppendMatrixCSR(buf []byte, m *Matrix) []byte {
	if m.shapeOnly() {
		panic("tensor: AppendMatrixCSR on a shape-only (dry-run) matrix")
	}
	nnz := m.NNZ()
	need := EncodedSizeCSR(m.Rows, m.Cols, nnz)
	off := len(buf)
	if cap(buf)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+need]
	out := buf[off:]
	out[0] = tagCSR
	binary.LittleEndian.PutUint32(out[1:], uint32(m.Rows))
	binary.LittleEndian.PutUint32(out[5:], uint32(m.Cols))
	binary.LittleEndian.PutUint32(out[9:], uint32(nnz))
	// Section offsets within the frame; filled in one scan.
	rowPtrOff := 13
	colOff := rowPtrOff + 4*(m.Rows+1)
	valOff := colOff + 4*nnz
	binary.LittleEndian.PutUint32(out[rowPtrOff:], 0)
	p := 0
	for r := 0; r < m.Rows; r++ {
		for j, v := range m.Row(r) {
			if v != 0 {
				binary.LittleEndian.PutUint32(out[colOff+4*p:], uint32(j))
				binary.LittleEndian.PutUint32(out[valOff+4*p:], math.Float32bits(v))
				p++
			}
		}
		binary.LittleEndian.PutUint32(out[rowPtrOff+4*(r+1):], uint32(p))
	}
	return buf
}

// DecodeMatrixInto decodes a dense matrix of dst's exact shape from buf
// into dst's existing storage, returning the bytes consumed. This is the
// steady-state receive path: a serving loop that knows the session
// geometry reuses one destination per stream instead of allocating a
// matrix per frame. A shape mismatch is an error (a hostile or desynced
// frame), not a panic.
func DecodeMatrixInto(dst *Matrix, buf []byte) (int, error) {
	need, err := denseHeaderFor(dst, buf, tagDense, 4)
	if err == nil && !dst.shapeOnly() {
		getFloat32s(dst.Data, buf[9:need])
	}
	return need, err
}

// DecodeMatrixFP16Into decodes an FP16-dense frame of dst's exact shape
// into dst's existing storage, returning the bytes consumed — the lossy
// half of the steady-state receive path, same contract as DecodeMatrixInto.
func DecodeMatrixFP16Into(dst *Matrix, buf []byte) (int, error) {
	need, err := denseHeaderFor(dst, buf, tagFP16, 2)
	if err != nil || dst.shapeOnly() {
		return need, err
	}
	payload := buf[9:need]
	for i := range dst.Data {
		dst.Data[i] = Float16BitsToFloat32(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return need, nil
}

// DecodeCSRInto decodes a CSR frame of dst's exact shape by zeroing dst
// and scattering the stored values into it, returning the bytes consumed.
// Structural validation happens on the fly — row pointers monotone within
// [0, nnz] and bracketed by 0/nnz, nnz bounded by rows·cols, column
// indices within [0, cols) — with no CSR struct and no allocation, so the
// banded exchange can receive sparse frames at steady state. dst is
// clobbered even on a validation error partway through the scatter.
func DecodeCSRInto(dst *Matrix, buf []byte) (int, error) {
	if len(buf) < 13 || buf[0] != tagCSR {
		return 0, ErrCodecShort
	}
	rows := int(binary.LittleEndian.Uint32(buf[1:]))
	cols := int(binary.LittleEndian.Uint32(buf[5:]))
	nnz := int(binary.LittleEndian.Uint32(buf[9:]))
	if rows != dst.Rows || cols != dst.Cols {
		return 0, fmt.Errorf("tensor: codec: frame is %dx%d, destination %dx%d", rows, cols, dst.Rows, dst.Cols)
	}
	if nnz > rows*cols {
		return 0, fmt.Errorf("tensor: codec: CSR nnz %d exceeds %dx%d", nnz, rows, cols)
	}
	rest := len(buf) - 13
	if rows > rest/4-1 || nnz > rest/8 {
		return 0, ErrCodecShort
	}
	need := EncodedSizeCSR(rows, cols, nnz)
	if len(buf) < need {
		return 0, ErrCodecShort
	}
	if dst.shapeOnly() {
		return need, nil
	}
	rowPtrOff := 13
	colOff := rowPtrOff + 4*(rows+1)
	valOff := colOff + 4*nnz
	if int(binary.LittleEndian.Uint32(buf[rowPtrOff:])) != 0 ||
		int(binary.LittleEndian.Uint32(buf[rowPtrOff+4*rows:])) != nnz {
		return 0, fmt.Errorf("tensor: codec: CSR row pointer bounds")
	}
	dst.Zero()
	prev := 0
	for r := 0; r < rows; r++ {
		end := int(binary.LittleEndian.Uint32(buf[rowPtrOff+4*(r+1):]))
		if end < prev || end > nnz {
			return 0, fmt.Errorf("tensor: codec: CSR row pointers not monotone in [0,%d]", nnz)
		}
		row := dst.Row(r)
		for p := prev; p < end; p++ {
			c := int(binary.LittleEndian.Uint32(buf[colOff+4*p:]))
			if c < 0 || c >= cols {
				return 0, fmt.Errorf("tensor: codec: CSR column index %d out of %d", c, cols)
			}
			row[c] = math.Float32frombits(binary.LittleEndian.Uint32(buf[valOff+4*p:]))
		}
		prev = end
	}
	return need, nil
}

// PeekShape reads the rows×cols header every format shares (bytes 1–8
// after the tag) without touching the payload, so a receiver that learns a
// tensor's height from the frame itself can validate it against what it
// expects before choosing a destination for DecodeAnyInto.
func PeekShape(buf []byte) (rows, cols int, err error) {
	if len(buf) < 9 {
		return 0, 0, ErrCodecShort
	}
	switch buf[0] {
	case tagDense, tagFP16, tagCSR:
		return int(binary.LittleEndian.Uint32(buf[1:])), int(binary.LittleEndian.Uint32(buf[5:])), nil
	}
	return 0, 0, fmt.Errorf("%w: 0x%02x", ErrCodecTag, buf[0])
}

// DecodeAnyInto decodes whichever self-describing format buf carries —
// dense, FP16-dense or CSR — into dst's existing storage, returning the
// bytes consumed. This is the receive side of the adaptive wire codec: the
// sender picks a format per tensor and the receiver follows the tag, so no
// per-tensor agreement is needed. Allocation-free on every format.
func DecodeAnyInto(dst *Matrix, buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, ErrCodecShort
	}
	switch buf[0] {
	case tagDense:
		return DecodeMatrixInto(dst, buf)
	case tagFP16:
		return DecodeMatrixFP16Into(dst, buf)
	case tagCSR:
		return DecodeCSRInto(dst, buf)
	default:
		return 0, fmt.Errorf("%w: 0x%02x", ErrCodecTag, buf[0])
	}
}

// EncodeCSR appends the wire form of c to buf and returns the result.
func EncodeCSR(buf []byte, c *CSR) []byte {
	buf = append(buf, tagCSR)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Cols))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Values)))
	for _, v := range c.RowPtr {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.ColIdx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.Values {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// Decode reads one encoded matrix from buf. Exactly one of the dense/CSR
// results is non-nil (FP16 frames decode as a dense matrix). It returns
// the number of bytes consumed.
func Decode(buf []byte) (dense *Matrix, sparse *CSR, n int, err error) {
	if len(buf) < 1 {
		return nil, nil, 0, ErrCodecShort
	}
	switch buf[0] {
	case tagDense:
		m, n, err := DecodeMatrix(buf)
		return m, nil, n, err
	case tagFP16:
		m, n, err := DecodeMatrixFP16(buf)
		return m, nil, n, err
	case tagCSR:
		c, n, err := DecodeCSR(buf)
		return nil, c, n, err
	default:
		return nil, nil, 0, fmt.Errorf("%w: 0x%02x", ErrCodecTag, buf[0])
	}
}

// denseHeader reads the header the dense ('D', 4-byte elements) and FP16
// ('H', 2-byte) forms share and checks it against buf before anything is
// sized by it: the tag, then — overflow-safe — that buf holds rows*cols
// elements. need is the frame's length, payload included.
func denseHeader(buf []byte, tag byte, elemBytes int) (rows, cols, need int, err error) {
	if len(buf) < 9 {
		return 0, 0, 0, ErrCodecShort
	}
	if buf[0] != tag {
		return 0, 0, 0, fmt.Errorf("%w: 0x%02x", ErrCodecTag, buf[0])
	}
	rows = int(binary.LittleEndian.Uint32(buf[1:]))
	cols = int(binary.LittleEndian.Uint32(buf[5:]))
	// rows, cols < 0: a 32-bit int read a dimension of 2^31 or more.
	if rows < 0 || cols < 0 || (cols != 0 && rows > (len(buf)-9)/elemBytes/cols) {
		return 0, 0, 0, ErrCodecShort
	}
	return rows, cols, 9 + elemBytes*rows*cols, nil
}

// denseHeaderFor is denseHeader for a frame that must be of dst's exact
// shape; a mismatch is an error (a hostile or desynced frame), not a panic.
func denseHeaderFor(dst *Matrix, buf []byte, tag byte, elemBytes int) (int, error) {
	rows, cols, need, err := denseHeader(buf, tag, elemBytes)
	if err == nil && (rows != dst.Rows || cols != dst.Cols) {
		return 0, fmt.Errorf("tensor: codec: frame is %dx%d, destination %dx%d", rows, cols, dst.Rows, dst.Cols)
	}
	return need, err
}

// DecodeMatrixFP16 decodes an FP16-dense frame into a fresh matrix,
// returning it and the bytes consumed. Dimension fields are validated
// against the buffer length before any allocation.
func DecodeMatrixFP16(buf []byte) (*Matrix, int, error) {
	rows, cols, need, err := denseHeader(buf, tagFP16, 2)
	if err != nil {
		return nil, 0, err
	}
	m := New(rows, cols)
	payload := buf[9:need]
	for i := range m.Data {
		m.Data[i] = Float16BitsToFloat32(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return m, need, nil
}

// DecodeMatrix decodes a dense matrix, returning it and the bytes consumed.
// Dimension fields are validated against the buffer length before any
// allocation, so hostile frames fail cleanly.
func DecodeMatrix(buf []byte) (*Matrix, int, error) { return DecodeMatrixPooled(nil, buf) }

// DecodeMatrixPooled is DecodeMatrix into a matrix drawn from p, which the
// caller owns and gives back with p.Put once nothing reads it; a nil p
// allocates, as DecodeMatrix does.
func DecodeMatrixPooled(p *Pool, buf []byte) (*Matrix, int, error) {
	rows, cols, need, err := denseHeader(buf, tagDense, 4)
	if err != nil {
		return nil, 0, err
	}
	m := p.Get(rows, cols)
	getFloat32s(m.Data, buf[9:need])
	return m, need, nil
}

// DecodeCSR decodes a CSR matrix, returning it and the bytes consumed.
// Beyond length checks, the structural invariants are validated — row
// pointers monotone within [0, nnz], column indices within [0, cols) — so
// a hostile frame cannot produce a CSR that panics ToDense or AddInto.
func DecodeCSR(buf []byte) (*CSR, int, error) {
	if len(buf) < 13 || buf[0] != tagCSR {
		return nil, 0, ErrCodecShort
	}
	rows := int(binary.LittleEndian.Uint32(buf[1:]))
	cols := int(binary.LittleEndian.Uint32(buf[5:]))
	nnz := int(binary.LittleEndian.Uint32(buf[9:]))
	// A well-formed CSR stores at most one value per cell; more means the
	// frame carries duplicate column indices (values would silently
	// overwrite on expansion), so reject it outright.
	if nnz > rows*cols {
		return nil, 0, fmt.Errorf("tensor: codec: CSR nnz %d exceeds %dx%d", nnz, rows, cols)
	}
	// Overflow-safe: (rows+1) row pointers and nnz (index, value) pairs.
	rest := len(buf) - 13
	if rows > rest/4-1 || nnz > rest/8 {
		return nil, 0, ErrCodecShort
	}
	need := 13 + 4*(rows+1) + 8*nnz
	if len(buf) < need {
		return nil, 0, ErrCodecShort
	}
	c := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, nnz),
		Values: make([]float32, nnz),
	}
	off := 13
	prev := int32(0)
	for i := range c.RowPtr {
		v := int32(binary.LittleEndian.Uint32(buf[off:]))
		if v < prev || v > int32(nnz) {
			return nil, 0, fmt.Errorf("tensor: codec: CSR row pointers not monotone in [0,%d]", nnz)
		}
		c.RowPtr[i] = v
		prev = v
		off += 4
	}
	if c.RowPtr[0] != 0 || c.RowPtr[rows] != int32(nnz) {
		return nil, 0, fmt.Errorf("tensor: codec: CSR row pointer bounds")
	}
	for i := range c.ColIdx {
		v := int32(binary.LittleEndian.Uint32(buf[off:]))
		if v < 0 || int(v) >= cols {
			return nil, 0, fmt.Errorf("tensor: codec: CSR column index %d out of %d", v, cols)
		}
		c.ColIdx[i] = v
		off += 4
	}
	for i := range c.Values {
		c.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return c, need, nil
}
