package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"parsecureml/internal/hw"
	"parsecureml/internal/tensor"
)

// Request envelopes: optional fixed-size extensions riding between the
// 8-byte request id and the shares payload, so request metadata crosses
// every hop (client → router → replica) inside the one frame the hops
// already relay. Each is distinguished from legacy frames by a 4-byte
// magic — legacy payloads start with a tensor codec tag ('D'/'H'/'S'),
// which no magic's leading byte collides with, so old clients and new
// servers interoperate in both directions.
//
//	request: [id u64] ["PSDL" budget-micros u32] ["PSGR" members u32] ["PSOP" handle u32]
//	         ["PSDV" rows u32, k u32, n u32, form u32, seed u64] [shares...]
//	error:   [id u64] "PSER" [code u32] [retry-after-micros u32]
//
// All four request envelopes are optional and ride in that order. The
// budget is RELATIVE (time remaining), not an absolute deadline: hops
// subtract their own elapsed time before forwarding, so the scheme needs no
// clock synchronization between client, router, and replicas. The group
// envelope makes the matrices behind it row-stacks of that many products
// (Shares.Members). The operand envelope names a registered operand of the
// client session (Shares.Operand): ahead of five matrices it stores B under
// the handle, ahead of three (A, U, Z) it stands in for B, V and F.
//
// The derived envelope (Shares.Derived) stands for the matrices of its
// request half that are pure generator output: the stacked geometry (A is
// rows×k, Z rows×n), the form the half expands to — five matrices, or the
// three against a registered operand — and the seed this party expands them
// from (DeriveHalf). Behind it party 0's frame carries no matrix and party
// 1's A, [B], Z. It rides last because it is the payload's own header: the
// three before it say how to treat a request, this one what the request is.
// The seed is per request and per party — SHA-256 of a base only the client
// holds — and not a key the session keeps: a party holding one learns
// nothing of the other party's or of the next request's, a retried frame
// expands to the same half wherever it lands, and a session has no key table
// to lose when a router re-dials behind the client (the registered operands'
// RouteUnknownOperand is the cost of the other choice).

const (
	deadlineMagic  = 0x5053444C // "PSDL"
	groupMagic     = 0x50534752 // "PSGR"
	operandMagic   = 0x50534F50 // "PSOP"
	derivedMagic   = 0x50534456 // "PSDV"
	routeErrMagic  = 0x50534552 // "PSER"
	envelopeBytes  = 8          // magic + one u32: the deadline, group and operand envelopes
	derivedBytes   = 28         // magic + four u32 + one u64
	routeErrFrameB = requestIDBytes + envelopeBytes + 4
)

// MaxGroupMembers caps a group envelope's member count: far above any
// layer's independent products (an attention block has one per head), and
// a bound on what a hostile count can make a server size.
const MaxGroupMembers = 256

// RouteErrorCode classifies a typed protocol error frame.
type RouteErrorCode uint32

const (
	// RouteNoReplicas: the router's registry is empty (or fully draining);
	// retryable once capacity joins.
	RouteNoReplicas RouteErrorCode = 1
	// RouteRetriesExhausted: every relay attempt in the router's ladder
	// failed; retryable — the next attempt re-picks on a refreshed ring.
	RouteRetriesExhausted RouteErrorCode = 2
	// RouteDeadlineExceeded: the request's remaining budget cannot cover
	// the cost-model estimate for its shape; not retryable within the
	// same budget.
	RouteDeadlineExceeded RouteErrorCode = 3
	// RouteDraining: the replica is draining and accepts no new work;
	// retryable against a re-picked replica.
	RouteDraining RouteErrorCode = 4
	// RouteDuplicateID: the request's id is already in flight, or was
	// already served, on this pair — ids must be unique for the pair's
	// lifetime. The client's error; not retryable under the same id.
	RouteDuplicateID RouteErrorCode = 5
	// RouteBadRequest: the request frame does not decode — a malformed
	// payload or envelope, or geometry the multiplication cannot run. The
	// client's error, and the same bytes fail anywhere: not retryable.
	RouteBadRequest RouteErrorCode = 6
	// RouteUnknownOperand: a three-matrix request names an operand handle
	// this party's session does not hold — the connection is younger than
	// the registration (a router re-dial or re-route, a restarted pair). The
	// same bytes fail anywhere: not retryable; the client registers again.
	RouteUnknownOperand RouteErrorCode = 7
)

func (c RouteErrorCode) String() string {
	switch c {
	case RouteNoReplicas:
		return "no_replicas"
	case RouteRetriesExhausted:
		return "retries_exhausted"
	case RouteDeadlineExceeded:
		return "deadline_exceeded"
	case RouteDraining:
		return "draining"
	case RouteDuplicateID:
		return "duplicate_id"
	case RouteBadRequest:
		return "bad_request"
	case RouteUnknownOperand:
		return "unknown_operand"
	}
	return fmt.Sprintf("code_%d", uint32(c))
}

// RouteError is the decoded form of a typed error frame: a failure the
// serving fleet reports to the client in-band instead of closing the
// connection. Retryable errors carry a hint for when to try again.
type RouteError struct {
	Code       RouteErrorCode
	RetryAfter time.Duration
}

func (e *RouteError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("mpc: route error %s (retry after %v)", e.Code, e.RetryAfter)
	}
	return fmt.Sprintf("mpc: route error %s", e.Code)
}

// Is matches any RouteError of the same code, so errors.Is finds a refusal
// by kind on whichever leg of a request it came back.
func (e *RouteError) Is(target error) bool {
	t, ok := target.(*RouteError)
	return ok && t.Code == e.Code
}

// Retryable reports whether the same request may succeed if re-sent —
// the fleet-side condition was transient (capacity, placement), not a
// property of the request itself.
func (e *RouteError) Retryable() bool {
	switch e.Code {
	case RouteNoReplicas, RouteRetriesExhausted, RouteDraining:
		return true
	}
	return false
}

// budgetMicros clamps a duration into the envelope's u32 microsecond
// field: sub-microsecond remainders round to zero (already expired for
// scheduling purposes) and anything over ~71 minutes saturates.
func budgetMicros(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	us := d / time.Microsecond
	if us > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(us)
}

// EncodeRequest serializes one multiplication request: the request id,
// a group envelope when in is a group, an operand envelope when in names
// one, and the shares payload.
func EncodeRequest(id uint64, in Shares) []byte { return encodeRequest(id, false, 0, in) }

// EncodeRequestBudget is EncodeRequest with a deadline envelope: the
// request carries its remaining time budget, which each hop decrements
// and checks against the cost model before doing work.
func EncodeRequestBudget(id uint64, budget time.Duration, in Shares) []byte {
	return encodeRequest(id, true, budget, in)
}

func encodeRequest(id uint64, deadline bool, budget time.Duration, in Shares) []byte {
	size := requestIDBytes + 3*envelopeBytes + sharesSize(in)
	if in.Derived != nil {
		size += derivedBytes
	}
	frame := make([]byte, 0, size)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	if deadline {
		frame = binary.LittleEndian.AppendUint32(frame, deadlineMagic)
		frame = binary.LittleEndian.AppendUint32(frame, budgetMicros(budget))
	}
	if in.Members > 1 {
		frame = binary.LittleEndian.AppendUint32(frame, groupMagic)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(in.Members))
	}
	if in.Operand != 0 {
		frame = binary.LittleEndian.AppendUint32(frame, operandMagic)
		frame = binary.LittleEndian.AppendUint32(frame, in.Operand)
	}
	if d := in.Derived; d != nil {
		form := uint32(derivedFive)
		if d.Kept {
			form = derivedThree
		}
		for _, v := range [5]uint32{derivedMagic, uint32(d.Rows), uint32(d.K), uint32(d.N), form} {
			frame = binary.LittleEndian.AppendUint32(frame, v)
		}
		frame = binary.LittleEndian.AppendUint64(frame, d.Seed)
	}
	return appendShares(frame, in)
}

// PeekBudget reads a request frame's deadline envelope without decoding
// the payload. ok is false on legacy frames (no envelope).
func PeekBudget(frame []byte) (budget time.Duration, ok bool) {
	if len(frame) < requestIDBytes || !hasEnvelope(frame[requestIDBytes:], deadlineMagic) {
		return 0, false
	}
	us := binary.LittleEndian.Uint32(frame[requestIDBytes+4:])
	return time.Duration(us) * time.Microsecond, true
}

// SetBudget rewrites the deadline envelope's budget in place — the relay
// hop's "subtract my elapsed time" step, touching none of the payload.
// Reports false if the frame carries no envelope.
func SetBudget(frame []byte, budget time.Duration) bool {
	if len(frame) < requestIDBytes || !hasEnvelope(frame[requestIDBytes:], deadlineMagic) {
		return false
	}
	binary.LittleEndian.PutUint32(frame[requestIDBytes+4:], budgetMicros(budget))
	return true
}

// hasEnvelope reports whether p starts with an envelope of the given magic.
func hasEnvelope(p []byte, magic uint32) bool {
	return len(p) >= envelopeBytes && binary.LittleEndian.Uint32(p) == magic
}

// requestBody returns what follows a request frame's id and envelopes: the
// shares payload, the member count a group envelope declares for it (1
// without one; not yet range-checked), the handle of an operand envelope
// (0 without one) and what a derived envelope says (nil without one; not yet
// checked). Frames too short to carry an id yield an empty payload rather
// than a panic.
func requestBody(frame []byte) (payload []byte, members int, operand uint32, derived *DerivedHalf) {
	if len(frame) < requestIDBytes {
		return nil, 1, 0, nil
	}
	p, members := frame[requestIDBytes:], 1
	if hasEnvelope(p, deadlineMagic) {
		p = p[envelopeBytes:]
	}
	if hasEnvelope(p, groupMagic) {
		p, members = p[envelopeBytes:], int(binary.LittleEndian.Uint32(p[4:]))
	}
	if hasEnvelope(p, operandMagic) {
		p, operand = p[envelopeBytes:], binary.LittleEndian.Uint32(p[4:])
	}
	// A derived envelope cut short, or of a form this build does not know, is
	// not an envelope: its magic is left at the head of the payload, where no
	// tensor tag matches it and the decode fails.
	if form := derivedForm(p); form != 0 {
		derived = &DerivedHalf{
			Rows: int(binary.LittleEndian.Uint32(p[4:])),
			K:    int(binary.LittleEndian.Uint32(p[8:])),
			N:    int(binary.LittleEndian.Uint32(p[12:])),
			Kept: form == derivedThree,
			Seed: binary.LittleEndian.Uint64(p[20:]),
		}
		p = p[derivedBytes:]
	}
	return p, members, operand, derived
}

// The two forms a derived half expands to, as its envelope spells them: the
// matrix count of the materialised request it stands for.
const (
	derivedFive  = 5
	derivedThree = 3
)

// derivedForm is the form field of the derived envelope p starts with, 0 if
// it starts with none.
func derivedForm(p []byte) uint32 {
	if len(p) < derivedBytes || binary.LittleEndian.Uint32(p) != derivedMagic {
		return 0
	}
	if form := binary.LittleEndian.Uint32(p[16:]); form == derivedFive || form == derivedThree {
		return form
	}
	return 0
}

// maxDerivedElems bounds each matrix a derived envelope may make a party
// expand: a 44-byte frame sizes five of them, so the bound is a constant of
// the protocol and as tight as a session's kept operands (maxOperandElems).
// Larger requests ship their matrices.
const maxDerivedElems = 1 << 20

// check refuses a derived envelope that may not be expanded, before anything
// is sized by it: members is the group envelope's count and operand the
// operand envelope's handle. The products are taken in uint64 over
// dimensions already under the bound, so nothing a u32 field can say
// overflows them.
func (d *DerivedHalf) check(members int, operand uint32) error {
	switch {
	case members < 1 || members > MaxGroupMembers:
		return fmt.Errorf("mpc: derived request: group of %d members, want 1..%d", members, MaxGroupMembers)
	case d.Rows <= 0 || d.K <= 0 || d.N <= 0 || d.Rows > maxDerivedElems || d.K > maxDerivedElems || d.N > maxDerivedElems:
		return fmt.Errorf("mpc: derived request: geometry %dx%dx%d, want every dimension in 1..%d", d.Rows, d.K, d.N, maxDerivedElems)
	case d.Rows%members != 0:
		return fmt.Errorf("mpc: derived request: %d stacked rows do not divide into %d members", d.Rows, members)
	case d.Kept && operand == 0:
		return errors.New("mpc: derived request: the three-matrix form names no operand")
	}
	rows, k, n := uint64(d.Rows), uint64(d.K), uint64(d.N)
	kn := uint64(members) * k * n
	if d.Kept {
		kn = 0
	}
	if rows*k > maxDerivedElems || kn > maxDerivedElems || rows*n > maxDerivedElems {
		return fmt.Errorf("mpc: derived request: %dx%dx%d ×%d expands a matrix of over %d elements (ship it instead)", d.Rows/members, d.K, d.N, members, maxDerivedElems)
	}
	return nil
}

// PeekRequestShape reads a request's geometry off its frame from the
// envelopes and matrix headers alone — each member's (m, k, n) and how
// many members the frame stacks — with no payload decode, so a router can
// run the cost model on frames it only relays. ok is false when the frame
// is too short or not a dense/FP16 request. A group of c moves
// c·(m·k + k·n) elements each way, so its exchange floor is
// DeadlineEstimate(c·m, k, c·n).
//
// A derived request (Shares.Derived) says its geometry in its envelope, the
// same on both faces whatever matrices follow, and is read from there. Its
// three-matrix form reports n = 0: against a kept operand no F moves, so
// the floor above comes to the E stack's, DeadlineEstimate(c·m, k, 0) — what
// the pair prices it at.
//
// ok is false on the materialised three-matrix form (A, U, Z behind an
// operand envelope): B's width lives in the serving session's table, which no
// relay can see, so a router floors such a frame at 0 — sheds it only once the
// budget has run out — and the pair prices what it moves, its E stack.
func PeekRequestShape(frame []byte) (m, k, n, members int, ok bool) {
	p, members, operand, derived := requestBody(frame)
	if derived != nil {
		if derived.check(members, operand) != nil {
			return 0, 0, 0, 0, false
		}
		if derived.Kept {
			return derived.Rows / members, derived.K, 0, members, true
		}
		return derived.Rows / members, derived.K, derived.N, members, true
	}
	rows, k, size, ok := peekMatrixHeader(p)
	if !ok || members < 1 || members > MaxGroupMembers || rows%members != 0 || size > len(p) {
		return 0, 0, 0, 0, false
	}
	brows, n, bsize, ok := peekMatrixHeader(p[size:])
	if !ok || brows != members*k || size+bsize > len(p) {
		return 0, 0, 0, 0, false
	}
	if operand != 0 {
		// With m = k a U stack passes for a B stack; the three-matrix form is
		// the one whose third matrix ends the payload.
		if _, _, zsize, ok := peekMatrixHeader(p[size+bsize:]); !ok || size+bsize+zsize >= len(p) {
			return 0, 0, 0, 0, false
		}
	}
	return rows / members, k, n, members, true
}

// peekMatrixHeader reads one encoded matrix's geometry and total wire
// size without touching its element data.
func peekMatrixHeader(p []byte) (rows, cols, size int, ok bool) {
	rows, cols, err := tensor.PeekShape(p)
	if err != nil || rows <= 0 || cols <= 0 {
		return 0, 0, 0, false
	}
	switch p[0] {
	case 'D':
		size = tensor.EncodedSizeDense(rows, cols)
	case 'H':
		size = tensor.EncodedSizeFP16(rows, cols)
	default:
		return 0, 0, 0, false
	}
	return rows, cols, size, true
}

// DeadlineEstimate is the floor a request's remaining budget must cover
// for shape (m, k, n): the paper platform's online-phase exchange model —
// transfer time for the E/F volume plus the fixed per-exchange latency of
// the two peer rounds. Deliberately optimistic (it prices only the
// irreducible exchange, not compute or queueing): a budget below it
// CANNOT be met, so shedding on it never drops a request that had a
// chance, while expired work is refused before it occupies a replica.
func DeadlineEstimate(m, k, n int) time.Duration {
	p := hw.Paper()
	secs := p.ExchangeTransferTime(m, k, n) + p.ExchangeFixedCost(2)
	return time.Duration(secs * float64(time.Second))
}

// EncodeRouteError builds a typed error frame for request id: the
// in-band alternative to closing the client connection, so one failed
// placement does not kill a session with other requests in flight.
func EncodeRouteError(id uint64, code RouteErrorCode, retryAfter time.Duration) []byte {
	frame := make([]byte, 0, routeErrFrameB)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = binary.LittleEndian.AppendUint32(frame, routeErrMagic)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(code))
	return binary.LittleEndian.AppendUint32(frame, budgetMicros(retryAfter))
}

// DecodeRouteError recognizes a typed error frame. ok is false for any
// other frame (a result, a legacy payload); the id is only meaningful
// when ok.
func DecodeRouteError(frame []byte) (id uint64, e *RouteError, ok bool) {
	if len(frame) != routeErrFrameB ||
		binary.LittleEndian.Uint32(frame[requestIDBytes:]) != routeErrMagic {
		return 0, nil, false
	}
	id = binary.LittleEndian.Uint64(frame)
	us := binary.LittleEndian.Uint32(frame[requestIDBytes+8:])
	return id, &RouteError{
		Code:       RouteErrorCode(binary.LittleEndian.Uint32(frame[requestIDBytes+4:])),
		RetryAfter: time.Duration(us) * time.Microsecond,
	}, true
}
