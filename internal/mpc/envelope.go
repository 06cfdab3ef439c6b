package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/tensor"
)

// The request header: one fixed-size record right after the request id, so
// a request's metadata crosses every hop (client → router → replica) inside
// the one frame the hops already relay; a relay reads only the id (DESIGN.md
// "Request header and form table").
//
//	[id u64][ver u8 = 3][form u8][pad 2]
//	[members u32][operand u32][rows u32][k u32][n u32][seed 16 B] [matrices...]
//
// 48 bytes with the id; any other version is refused. members counts the
// row-stacked products (Shares.Members, 1 for a lone one), operand names a
// registered operand (Shares.Operand), rows, k, n are the stacked geometry —
// A is rows×k, B members·k × n, Z rows×n — and seed is the 128-bit AES key a
// derived half expands from (Shares.Derived), zero in every other form. The
// form byte names the row of forms that says the rest.
const (
	headerVersion = 3
	headerBytes   = 48
	// The fields' offsets from the frame's start.
	offVersion, offForm                         = 8, 9
	offMembers, offOperand, offRows, offK, offN = 12, 16, 20, 24, 28
	offSeed                                     = 32
)

// formRow is one form of request. ships is, per face, the wireMatrices slots
// that face's frame carries, each at the shape the header gives its slot.
// kept: the request runs against a registered operand — it needs a handle,
// ships no B or V and moves no F.
// feed: the triplet comes from the pair's feed — no handle and no group.
// derived: the rest of the half expands from the seed (Shares.expand).
type formRow struct {
	ships               [2]uint8
	kept, feed, derived bool
}

// The bits of formRow.ships, one per wireMatrices slot.
const shipA, shipB, shipU, shipV, shipZ = 1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4

// The forms, as the header's form byte spells them.
const (
	formClassic  = 1 + iota // A, B, U, V, Z
	formFed                 // A, B; the triplet from the pair's feed
	formKept                // A, U, Z against a registered operand
	formDerived5            // the classic form expanded from a seed: face 1 ships A, B, Z
	formDerived3            // the kept form expanded from a seed: face 1 ships A, Z
)

var forms = [...]formRow{
	formClassic:  {ships: [2]uint8{shipA | shipB | shipU | shipV | shipZ, shipA | shipB | shipU | shipV | shipZ}},
	formFed:      {ships: [2]uint8{shipA | shipB, shipA | shipB}, feed: true},
	formKept:     {ships: [2]uint8{shipA | shipU | shipZ, shipA | shipU | shipZ}, kept: true},
	formDerived5: {ships: [2]uint8{0, shipA | shipB | shipZ}, derived: true},
	formDerived3: {ships: [2]uint8{0, shipA | shipZ}, kept: true, derived: true},
}

// maxGroupMembers caps a header's member count: far above any layer's
// independent products, and a bound on what a hostile count makes a server size.
const maxGroupMembers = 256

// maxDim bounds every dimension a header gives, so no size computed from one
// overflows; a dense matrix that long and not empty would not fit in a frame.
const maxDim = 1 << 24

// maxDerivedElems bounds each matrix a derived half makes a party expand — a
// 48-byte frame sizes five — as tight as a session's kept operands
// (maxOperandElems). Larger requests ship their matrices.
const maxDerivedElems = 1 << 20

// ErrRequestHeader marks a request refused on its header, before anything was
// sized by it: cut short, of another version or form, saying what its form
// does not allow, or followed by matrices other than the ones it names.
var ErrRequestHeader = errors.New("mpc: request header")

// requestHeader is a request frame's header, read.
type requestHeader struct {
	id                  uint64
	seed                [16]byte
	form                byte
	operand             uint32
	members, rows, k, n int
}

// row is h's form; the zero row until a header has been read.
func (h requestHeader) row() formRow { return forms[h.form] }

// EncodeRequest serializes one multiplication request: the id, the header —
// the form that in's nil matrices and Derived name, its geometry, group and
// operand — and the matrices in holds, in wireMatrices order.
func EncodeRequest(id uint64, in Shares) []byte {
	return appendRequest(make([]byte, 0, headerBytes+sharesSize(in)), id, in)
}

// lendRequest is the request frame of EncodeRequest in a buffer lent by comm's
// frame pool: the caller gives it back with comm.PutFrame once it is written.
func lendRequest(id uint64, in Shares) []byte {
	return appendRequest(comm.GetFrame(headerBytes + sharesSize(in))[:0], id, in)
}

// appendRequest appends the request frame of id and in to frame.
func appendRequest(frame []byte, id uint64, in Shares) []byte {
	form, rows, k, n, seed := byte(formClassic), 0, 0, 0, [16]byte{}
	switch d := in.Derived; {
	case d != nil:
		form, rows, k, n, seed = formDerived5, d.Rows, d.K, d.N, d.Seed
		if d.Kept {
			form = formDerived3
		}
	case in.T.U == nil:
		form, rows, k, n = formFed, in.A.Rows, in.A.Cols, in.B.Cols
	case in.B == nil:
		form, rows, k, n = formKept, in.A.Rows, in.A.Cols, in.T.Z.Cols
	default:
		rows, k, n = in.A.Rows, in.A.Cols, in.B.Cols
	}
	le := binary.LittleEndian
	frame = le.AppendUint64(frame, id)
	frame = append(frame, headerVersion, form, 0, 0)
	for _, v := range [...]uint32{uint32(in.members()), in.Operand, uint32(rows), uint32(k), uint32(n)} {
		frame = le.AppendUint32(frame, v)
	}
	return appendShares(append(frame, seed[:]...), in)
}

// readHeader reads a request frame's header and checks its fields against
// their bounds and against the row of its form. h.id is set whenever the
// frame carries an id, error or not.
func readHeader(frame []byte) (h requestHeader, err error) {
	le := binary.LittleEndian
	if len(frame) >= requestIDBytes {
		h.id = le.Uint64(frame)
	}
	switch {
	case len(frame) < headerBytes:
		return h, fmt.Errorf("%w: a frame of %d bytes, want at least %d", ErrRequestHeader, len(frame), headerBytes)
	case frame[offVersion] != headerVersion:
		return h, fmt.Errorf("%w: version %d, want %d", ErrRequestHeader, frame[offVersion], headerVersion)
	case frame[offForm] == 0 || int(frame[offForm]) >= len(forms):
		return h, fmt.Errorf("%w: form %d", ErrRequestHeader, frame[offForm])
	}
	u32 := func(off int) int { return int(le.Uint32(frame[off:])) }
	h.form = frame[offForm]
	h.operand, h.seed = le.Uint32(frame[offOperand:]), [16]byte(frame[offSeed:headerBytes])
	h.members, h.rows, h.k, h.n = u32(offMembers), u32(offRows), u32(offK), u32(offN)
	f := h.row()
	switch {
	case max(h.rows, h.k, h.n) > maxDim:
		return h, fmt.Errorf("%w: geometry %dx%dx%d, a dimension over %d", ErrRequestHeader, h.rows, h.k, h.n, maxDim)
	case h.members < 1 || h.members > maxGroupMembers:
		return h, fmt.Errorf("%w: a group of %d members, want 1..%d", ErrRequestHeader, h.members, maxGroupMembers)
	case h.rows%h.members != 0:
		return h, fmt.Errorf("%w: %d stacked rows do not divide into %d members", ErrRequestHeader, h.rows, h.members)
	case f.feed && (h.members > 1 || h.operand != 0):
		return h, fmt.Errorf("%w: a dealer-fed request of %d members names operand %d (a group or an operand ships its triplets)", ErrRequestHeader, h.members, h.operand)
	case f.kept && h.operand == 0:
		return h, fmt.Errorf("%w: form %d runs against a kept operand and names none", ErrRequestHeader, h.form)
	case !f.derived:
		return h, nil
	case h.rows == 0 || h.k == 0 || h.n == 0:
		return h, fmt.Errorf("%w: derived geometry %dx%dx%d has no elements", ErrRequestHeader, h.rows, h.k, h.n)
	}
	// Dimensions under maxDim and at most 256 members: no product overflows.
	rk, kn, rn := h.rows*h.k, h.members*h.k*h.n, h.rows*h.n
	if f.kept {
		kn = 0
	}
	if max(rk, kn, rn) > maxDerivedElems {
		return h, fmt.Errorf("%w: derived %dx%dx%d ×%d expands a matrix of over %d elements (ship it instead)", ErrRequestHeader, h.rows/h.members, h.k, h.n, h.members, maxDerivedElems)
	}
	return h, nil
}

// decodeRequest reads a request frame as face party reads it: the header, and
// each matrix its form ships to this face held to it — a dense tensor of its
// slot's shape, in wireMatrices order, nothing after the last — before
// anything is allocated; then the matrices, drawn from pool (nil: allocated),
// the caller's to give back as wireMatrices lists them. A derived half comes
// back as shipped, for Shares.expand to complete. h.id is set as readHeader sets it.
func decodeRequest(frame []byte, party int, pool *tensor.Pool) (h requestHeader, in Shares, err error) {
	if h, err = readHeader(frame); err != nil {
		return h, in, err
	}
	f := h.row()
	var at [5]int // where each shipped matrix starts; 0: not shipped
	off := headerBytes
	for slot, s := range [5][2]int{{h.rows, h.k}, {h.members * h.k, h.n}, {h.rows, h.k}, {h.members * h.k, h.n}, {h.rows, h.n}} {
		if f.ships[party]&(1<<slot) == 0 {
			continue
		}
		if rows, cols, err := tensor.PeekShape(frame[min(off, len(frame)):]); err != nil || frame[off] != 'D' || rows != s[0] || cols != s[1] {
			return h, in, fmt.Errorf("%w: geometry: face %d of form %d is not shipped %c as a dense %dx%d", ErrRequestHeader, party, h.form, "ABUVZ"[slot], s[0], s[1])
		}
		at[slot], off = off, off+tensor.EncodedSizeDense(s[0], s[1])
	}
	if off != len(frame) {
		return h, in, fmt.Errorf("%w: geometry: face %d of form %d is shipped %d bytes of matrices, want %d", ErrRequestHeader, party, h.form, len(frame)-headerBytes, off-headerBytes)
	}
	var mats [5]*tensor.Matrix
	for slot, off := range at {
		if off != 0 { // cannot fail: its header and its length were checked above
			mats[slot], _, _ = tensor.DecodeMatrixPooled(pool, frame[off:])
		}
	}
	in = Shares{A: mats[0], B: mats[1], T: TripletShares{U: mats[2], V: mats[3], Z: mats[4]}, Members: h.members, Operand: h.operand}
	if f.derived {
		in.Derived = &DerivedHalf{Seed: h.seed, Rows: h.rows, K: h.k, N: h.n, Kept: f.kept}
	}
	return h, in, nil
}

// DeadlineEstimate is the paper platform's online exchange for shape (m, k, n):
// the E/F transfer plus the fixed latency of the two peer rounds, not compute
// or queueing. Nothing in the serving path reads it; benchmark/ladder.go's
// hw.exchange_ratio rung divides the measured 256³ exchange by it.
func DeadlineEstimate(m, k, n int) time.Duration {
	p := hw.Paper()
	secs := p.ExchangeTransferTime(m, k, n) + p.ExchangeFixedCost(2)
	return time.Duration(secs * float64(time.Second))
}
