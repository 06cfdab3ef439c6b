package mpc

import "parsecureml/internal/tensor"

// Registered operands (DESIGN.md "Registered operands"): a client session
// keeps the right-hand operands it is asked to — a model's weights — so an
// inference ships neither B nor V again and the pair re-exchanges no F. The
// table belongs to one session's handler, like its lease, and goes with it.

// A session's table is bounded by constants: handles, and elements of kept
// B stacks (the F stacks are as large again: 8 MiB a session at most).
const (
	maxOperands     = 64
	maxOperandElems = 1 << 20
)

// operand is a registered operand as one party's session keeps it: its share
// stack B_i, the public F stack the pair reconstructed for it (nil until the
// registering exchange fills it), and how many members the stacks hold.
type operand struct {
	b, f    *tensor.Matrix
	members int
}

type operandTable struct {
	ops   map[uint32]*operand
	elems int
}

// resolve settles what request in says about its operand, before anything is
// opened on the peer link. A request that ships B (not of a kept form) yields
// a fresh entry for the exchange to fill and keep to store; a kept-form
// request yields the kept entry and completes in with its B. A non-zero code
// refuses the request: a handle not held, or held already (write-once), a
// full table, bad geometry.
func (t *operandTable) resolve(in *Shares, keptForm bool) (*operand, RouteErrorCode) {
	kept, c := t.ops[in.Operand], in.members()
	switch {
	case !keptForm && (kept != nil || len(t.ops) >= maxOperands || t.elems+in.B.Rows*in.B.Cols > maxOperandElems):
		return nil, RouteBadRequest
	case !keptForm:
		return &operand{b: in.B, members: c}, 0
	case kept == nil:
		metrics.operandRequests[operandMiss].Inc()
		return nil, RouteUnknownOperand
	case kept.members != c || kept.b.Rows != c*in.A.Cols || kept.b.Cols != in.T.Z.Cols:
		return nil, RouteBadRequest
	}
	metrics.operandRequests[operandHit].Inc()
	in.B = kept.b
	return kept, 0
}

// keep stores the entry resolve made for handle h, now filled. Its B becomes
// an allocation of its own: the request's is a pool's store — of up to twice
// the elements the table counts — and goes back with the rest of the request.
func (t *operandTable) keep(h uint32, op *operand) {
	if t.ops == nil {
		t.ops = make(map[uint32]*operand)
	}
	op.b = op.b.Clone()
	t.ops[h] = op
	t.elems += op.b.Rows * op.b.Cols
	metrics.operandRequests[operandStored].Inc()
}
