package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
)

// Dealer-fed serving: the SecureML trusted-dealer mapping of the
// paper's offline phase. A standalone dealer (cmd/psml-dealer) runs the
// triplet generation of §2.2 and streams each party ITS half of every
// triplet — party 0 never sees U₁/V₁/Z₁ and vice versa, so unlike the
// client-as-dealer deployment the precompute tier can sit server-side
// without ever assembling both shares in one process. The serving loop
// consumes the stream through this interface; tripletpool.DealerClient
// is the wire-backed implementation, and tests substitute in-process
// feeds.

// TripletFeed supplies one party's halves of ready Beaver triplets,
// keyed by GEMM shape. Triplets of one shape form a numbered stream the
// dealer emits identically to both parties; the sequence number is how
// the two serving loops agree on WHICH triplet a request consumes when
// concurrent sessions interleave their draws. A half is handed out once:
// a mask that left the feed twice could be revealed twice. A half's stores
// pass to the caller with it — the serving loop gives them to Lender once the
// request's reply is written — so a feed keeps no reference to what it hands
// out. Implementations must be safe for concurrent use.
type TripletFeed interface {
	// Next pops this party's share of the next ready triplet for the
	// shape and returns its stream sequence number. The leading party
	// (party 0) calls this.
	Next(m, k, n int) (seq uint64, t TripletShares, err error)
	// Take returns this party's share of triplet seq of the shape's
	// stream, blocking until the dealer delivers it. The following party
	// (party 1) calls this with the sequence number party 0 stated. A seq
	// this party already consumed fails at once with ErrTripletConsumed.
	Take(m, k, n int, seq uint64) (TripletShares, error)
}

// ErrTripletConsumed reports a Take (or a Next's wait) on a sequence number
// whose half this party was already handed.
var ErrTripletConsumed = errors.New("mpc: triplet half already consumed")

// ErrLeaseMismatch reports that the two parties of a dealer-fed request do
// not hold the same triplet agreement for it — one leg of the client
// session was re-dialled, or one party alone refused an earlier request.
// Both parties end the session on it; the halves each had drawn are spent.
var ErrLeaseMismatch = errors.New("mpc: triplet lease mismatch")

// noSeq is the "none" of a trailer field: no lease granted, or a party
// stating that it runs the request on no agreed triplet at all.
const noSeq = ^uint64(0)

// feedTrailerBytes trails the first exchange frame each party writes on a
// dealer-fed request: [seq this request runs on ‖ seq granted for the
// session's next request, or noSeq], little-endian. Party 1 grants nothing,
// so its second field is always noSeq.
const feedTrailerBytes = 16

// feedLease is one client session's triplet agreement, owned by the
// session's handler, and the request's peer Framer while a dealer-fed
// request runs.
//
// The agreement is made a request ahead. While request k runs, party 0
// draws the triplet for request k+1 (the lease) and states its seq in the
// trailer of the exchange frame it writes anyway; party 1 takes its half
// once request k's reply is out. Request k+1 then starts on both parties
// with the triplet in hand — each ships [F ‖ E₀] at once, and the pair runs
// one peer hop where announcing inside the request costs two in series.
// Party 0 grants only when request k has the shape request k−1 had, so
// shape-per-request traffic never leases and never wastes a triplet. Without
// a lease (first request, shape change) party 0 announces the seq in a frame
// of its own before the exchange, and party 1 waits for it.
//
// Every first exchange frame, either way, ends with the trailer, and each
// party checks the peer's first field against the seq it runs on itself.
// Whatever goes wrong — a lease on one side only, two different leases — both
// parties fail with ErrLeaseMismatch instead of combining halves of different
// triplets. A lease that is not used (shape change, session end, mismatch) is
// dropped; both parties had consumed their half when they took it, so no
// mask leaves a feed twice.
type feedLease struct {
	party int
	feed  TripletFeed
	log   *obs.Logger

	// The lease: this party's half of triplet seq of shape's stream, agreed
	// for the session's next dealer-fed request.
	held  bool
	shape [3]int
	seq   uint64
	t     TripletShares
	// last is the shape of the session's latest dealer-fed request (the one
	// running, once begin returns); the zero shape before the first.
	last [3]int

	// The request in flight. While an exchange runs the engine's sender
	// goroutine reads this and the lease and owns wrote; the handler touches
	// only read and granted until the exchange has returned.
	sess        *comm.MuxSession
	id          uint64
	this        uint64  // the seq it runs on
	granted     uint64  // party 1: the grant read off party 0's trailer, or noSeq
	wrote, read bool    // the first exchange frame went out / came in
	announce    [8]byte // party 0's announce frame: the seq, when no lease is held
}

// begin settles the triplet of request id (shape m×k×n) before its exchange
// and makes l the request's peer Framer. The wait this function spends is
// the request's triplet_gen phase: nothing with a lease in hand on party 1,
// the draw of the following triplet on party 0.
func (l *feedLease) begin(sess *comm.MuxSession, id uint64, m, k, n int) (TripletShares, error) {
	shape := [3]int{m, k, n}
	l.sess, l.id, l.wrote, l.read = sess, id, false, false
	l.this, l.granted = noSeq, noSeq
	t, ahead := l.t, l.held && l.shape == shape
	// Used or dropped, the lease is spent either way.
	l.held, l.t = false, TripletShares{}
	prev := l.last
	l.last = shape
	how := agreeAnnounce
	if ahead {
		how = agreeAhead
	}
	metrics.feedAgree[how].Inc()
	switch {
	case ahead:
		l.this = l.seq
	case l.party == 0:
		seq, drawn, err := l.feed.Next(m, k, n)
		if err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet feed: %w", err)
		}
		binary.LittleEndian.PutUint64(l.announce[:], seq)
		if err := sess.WriteFrame(l.announce[:]); err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet seq announce: %w", err)
		}
		l.this, t = seq, drawn
	default:
		f, err := sess.ReadFrame()
		if err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet seq announce: %w", err)
		}
		if len(f) != 8 {
			// Party 0 went straight to the exchange: it holds a lease this
			// party does not.
			announced := noSeq
			if len(f) >= feedTrailerBytes {
				announced = binary.LittleEndian.Uint64(f[len(f)-feedTrailerBytes:])
			}
			return TripletShares{}, l.mismatch(announced)
		}
		l.this = binary.LittleEndian.Uint64(f)
		if t, err = l.feed.Take(m, k, n, l.this); err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet feed: %w", err)
		}
	}
	if l.party == 0 && shape == prev {
		seq, drawn, err := l.feed.Next(m, k, n)
		if err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet feed: %w", err)
		}
		l.held, l.shape, l.seq, l.t = true, shape, seq, drawn
	}
	return t, nil
}

// settle runs once the request's reply is written: party 1 takes its half
// of the triplet party 0 granted. Not earlier — the wait for the dealer's
// correction then falls between requests, not inside one.
func (l *feedLease) settle() error {
	l.sess = nil
	if l.granted == noSeq {
		return nil
	}
	t, err := l.feed.Take(l.last[0], l.last[1], l.last[2], l.granted)
	if err != nil {
		return fmt.Errorf("mpc: triplet feed: %w", err)
	}
	l.held, l.shape, l.seq, l.t = true, l.last, l.granted, t
	return nil
}

// drop gives up the lease and a grant read off the peer, on a request the
// peer connection failed under: neither may be in the peer's hands. The
// halves are spent, as any unused lease's are.
func (l *feedLease) drop() {
	l.held, l.t, l.granted = false, TripletShares{}, noSeq
}

// appendTrailer appends what this party states on its first exchange frame.
// A lease held while a request runs is the one party 0 granted in begin;
// party 1 holds none until settle.
func (l *feedLease) appendTrailer(buf []byte) []byte {
	next := noSeq
	if l.held {
		next = l.seq
	}
	buf = binary.LittleEndian.AppendUint64(buf, l.this)
	return binary.LittleEndian.AppendUint64(buf, next)
}

// mismatch counts, logs and returns the typed disagreement: this party runs
// the request on l.this, the peer stated announced. Before it does, it
// states l.this once more in a bare trailer. The peer must find the mismatch
// too, not an aborted session, and the frame that would tell it may not
// exist (no lease here: nothing was written) or may be lost to the abort
// (the sender goroutine's first frame can still be queued when the handler
// retires the session). This write is on the wire when it returns, ahead of
// the abort's CLOSE, and either frame states the same seq.
func (l *feedLease) mismatch(announced uint64) error {
	metrics.feedLeaseMismatch.Inc()
	held, stated := seqText(l.this), seqText(announced)
	l.log.Event("feed_lease_mismatch", "party", l.party, "id", fmt.Sprintf("%016x", l.id), "held", held, "announced", stated)
	_ = l.sess.WriteFrame(l.appendTrailer(make([]byte, 0, feedTrailerBytes))) // best effort: the session is aborted next
	return fmt.Errorf("%w: seq %s here, %s stated by the peer", ErrLeaseMismatch, held, stated)
}

func seqText(seq uint64) string {
	if seq == noSeq {
		return "none"
	}
	return strconv.FormatUint(seq, 10)
}

// WriteFrame passes the engine's frames through, the first with the trailer
// appended — a trailer, not a prefix, so the peer's receive buffer keeps its
// capacity when the trailer is cut off — in a copy lent by the comm frame
// pool, given back once the session has written it. Called from the engine's
// sender goroutine only; begin's resets are ordered before it by the launch.
func (l *feedLease) WriteFrame(frame []byte) error {
	if l.wrote {
		return l.sess.WriteFrame(frame)
	}
	l.wrote = true
	first := comm.GetFrame(len(frame) + feedTrailerBytes)[:0]
	first = l.appendTrailer(append(first, frame...))
	err := l.sess.WriteFrame(first)
	comm.PutFrame(first)
	return err
}

// ReadFrameInto passes the peer's frames through, the first with its trailer
// cut off and checked. When this party holds a lease its own first frame is
// already on its way by now: the check costs no hop.
func (l *feedLease) ReadFrameInto(buf []byte) ([]byte, error) {
	frame, err := l.sess.ReadFrameInto(buf)
	if err != nil || l.read {
		return frame, err
	}
	l.read = true
	if len(frame) < feedTrailerBytes {
		// An announce where an exchange frame was due (the peer holds no
		// lease), or nothing this protocol writes.
		announced := noSeq
		if len(frame) == 8 {
			announced = binary.LittleEndian.Uint64(frame)
		}
		return nil, l.mismatch(announced)
	}
	body := len(frame) - feedTrailerBytes
	if peer := binary.LittleEndian.Uint64(frame[body:]); peer != l.this {
		return nil, l.mismatch(peer)
	}
	if l.party == 1 {
		l.granted = binary.LittleEndian.Uint64(frame[body+8:])
	}
	return frame[:body], nil
}

// ReadFrame implements comm.Framer.
func (l *feedLease) ReadFrame() ([]byte, error) { return l.ReadFrameInto(nil) }
