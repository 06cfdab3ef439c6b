package mpc

import (
	"encoding/binary"
	"fmt"
	"time"
)

// A typed error frame: [id u64] "PSER" [code u32] [retry-after-micros u32];
// the retry-after saturates at ~71 minutes.
const (
	routeErrMagic  = 0x50534552 // "PSER"
	routeErrFrameB = requestIDBytes + 12
)

// RouteErrorCode classifies a typed protocol error frame.
type RouteErrorCode uint32

const (
	// RouteNoReplicas: the router's registry is empty (or fully draining);
	// retryable once capacity joins.
	RouteNoReplicas RouteErrorCode = 1
	// RouteRetriesExhausted: every relay attempt in the router's ladder
	// failed; retryable — the next attempt re-picks on a refreshed ring.
	RouteRetriesExhausted RouteErrorCode = 2
	// Codes 3 and 4 are unassigned.
	// RouteDuplicateID: the request's id is already in flight, or was
	// already served, on this pair — ids must be unique for the pair's
	// lifetime. The client's error; not retryable under the same id.
	RouteDuplicateID RouteErrorCode = 5
	// RouteBadRequest: the request frame does not decode — a malformed
	// header (ErrRequestHeader) or payload — or the pair will not run what
	// it says: dealer-fed with no feed on both parties, a store under a
	// handle already held or into a full table, a kept form whose geometry
	// is not its operand's. The client's error: not retryable.
	RouteBadRequest RouteErrorCode = 6
	// RouteUnknownOperand: a kept-form request names an operand handle
	// this party's session does not hold — the connection is younger than
	// the registration (a router re-dial or re-route, a restarted pair). The
	// same bytes fail anywhere: not retryable; the client registers again.
	RouteUnknownOperand RouteErrorCode = 7
	// RoutePeerLinkLost: the pair's peer connection ended under the request,
	// or none came up within the peer timeout. The pair ran nothing for it
	// that the client sees; retryable — a re-sent request runs on the next
	// connection.
	RoutePeerLinkLost RouteErrorCode = 8
)

func (c RouteErrorCode) String() string {
	switch c {
	case RouteNoReplicas:
		return "no_replicas"
	case RouteRetriesExhausted:
		return "retries_exhausted"
	case RouteDuplicateID:
		return "duplicate_id"
	case RouteBadRequest:
		return "bad_request"
	case RouteUnknownOperand:
		return "unknown_operand"
	case RoutePeerLinkLost:
		return "peer_link_lost"
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
	case RouteNoReplicas, RouteRetriesExhausted, RoutePeerLinkLost:
		return true
	}
	return false
}

// EncodeRouteError builds a typed error frame for request id: the
// in-band alternative to closing the client connection, so one failed
// placement does not kill a session with other requests in flight.
func EncodeRouteError(id uint64, code RouteErrorCode, retryAfter time.Duration) []byte {
	frame := make([]byte, 0, routeErrFrameB)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = binary.LittleEndian.AppendUint32(frame, routeErrMagic)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(code))
	return binary.LittleEndian.AppendUint32(frame, uint32(min(max(retryAfter, 0)/time.Microsecond, 1<<32-1)))
}

// DecodeRouteError recognizes a typed error frame. ok is false for any
// other frame (a result, a request); the id is only meaningful when ok.
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
