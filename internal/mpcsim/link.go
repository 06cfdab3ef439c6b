// The simulated network. The paper's deployment is a client and two servers
// on 100 Gb/s InfiniBand driven by MPI; a directed Link charges encoded
// payload bytes against a simtime resource, so transfers overlap
// computation exactly like the paper's schedules.
//
// The compressed transmission of §4.4 is implemented by DeltaSender /
// DeltaReceiver: between epochs only Δ = cur − prev changes E and F
// (Eqs. 10–12), so when Δ is at least 75 % zero it is CSR-encoded. Byte
// counts are measured on the actual encoded frames, not estimated.

package mpcsim

import (
	"fmt"

	"parsecureml/internal/hw"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// Stats accumulates traffic accounting for one link direction.
type Stats struct {
	Messages        int
	WireBytes       int64 // bytes actually sent
	DenseBytes      int64 // bytes a dense-only sender would have sent
	CompressedSends int
	Seconds         float64 // modeled transfer time charged
}

// Link is one directed server→server channel, metered by a LinkModel and
// serialized on its own simtime resource.
type Link struct {
	eng   *simtime.Engine
	res   *simtime.Resource
	model hw.LinkModel
	stats Stats
}

// NewLink creates a directed link named e.g. "net.s0->s1" on eng.
func NewLink(name string, model hw.LinkModel, eng *simtime.Engine) *Link {
	return &Link{eng: eng, res: eng.Resource(name), model: model}
}

// Stats returns a copy of the link's accounting.
func (l *Link) Stats() Stats { return l.stats }

// sendBytes charges one framed payload and returns its completion task.
func (l *Link) sendBytes(label string, wire, dense int, compressed bool, deps ...*simtime.Task) *simtime.Task {
	dur := l.model.TransferTime(wire)
	t := l.eng.Schedule(l.res, "net", fmt.Sprintf("%s %dB", label, wire), dur, deps...)
	l.stats.Messages++
	l.stats.WireBytes += int64(wire)
	l.stats.DenseBytes += int64(dense)
	l.stats.Seconds += dur
	if compressed {
		l.stats.CompressedSends++
	}
	return t
}

// SendRaw transmits pre-encoded bytes (e.g. scalars, control messages).
func (l *Link) SendRaw(frame []byte, deps ...*simtime.Task) *simtime.Task {
	return l.sendBytes("raw", len(frame), len(frame), false, deps...)
}

// SendSized charges a transmission of the given size without a payload —
// the dry-run path for messages whose values are not materialized.
func (l *Link) SendSized(label string, bytes int, deps ...*simtime.Task) *simtime.Task {
	return l.sendBytes(label, bytes, bytes, false, deps...)
}

// DeltaSender implements the sending half of the compressed transmission.
// The first Send always ships the full dense matrix (establishing the
// receiver's base); subsequent Sends ship Δ = cur − prev, CSR-encoded when
// it is at least Threshold sparse.
type DeltaSender struct {
	Link      *Link
	Threshold float64 // zero-fraction required to compress; default 0.75
	Enabled   bool    // when false, always sends dense (the Fig. 16 baseline)
	// DrySparsity is the assumed delta sparsity when the tensor compute
	// switch is off and real values are unavailable (see tensor.SetCompute).
	// Calibrate it from a small-scale real run; 0 (dense) is conservative.
	DrySparsity float64
	prev        *tensor.Matrix
	dryEpochs   int
}

// NewDeltaSender returns a compression-enabled sender on l.
func NewDeltaSender(l *Link) *DeltaSender {
	return &DeltaSender{Link: l, Threshold: tensor.DefaultSparsityThreshold, Enabled: true}
}

// Frame type bytes: the wire carries its own semantics so sender and
// receiver need no out-of-band agreement about compression settings.
const (
	frameBase  = 0x42 // 'B': full dense matrix; receiver replaces state
	frameDelta = 0x44 // 'D': delta (dense or CSR); receiver accumulates
)

// Send transmits cur, returning the encoded frame, the completion task and
// whether the frame was CSR-compressed.
func (s *DeltaSender) Send(cur *tensor.Matrix, deps ...*simtime.Task) ([]byte, *simtime.Task, bool) {
	// +1 for the frame-type byte a dense-only sender would also pay.
	denseSize := 1 + tensor.EncodedSizeDense(cur.Rows, cur.Cols)
	if !tensor.ComputeEnabled() {
		return s.sendDry(cur, denseSize, deps...)
	}
	if s.prev == nil || !s.Enabled || !s.prev.SameShape(cur) {
		if s.Enabled {
			s.prev = cur.Clone()
		}
		frame := tensor.EncodeMatrix([]byte{frameBase}, cur)
		t := s.Link.sendBytes("dense", len(frame), denseSize, false, deps...)
		return frame, t, false
	}
	delta := tensor.SubTo(cur, s.prev)
	s.prev.CopyFrom(cur)
	if tensor.CompressionWorthwhile(delta, s.Threshold) {
		frame := tensor.EncodeCSR([]byte{frameDelta}, tensor.FromDense(delta))
		t := s.Link.sendBytes("delta.csr", len(frame), denseSize, true, deps...)
		return frame, t, true
	}
	frame := tensor.EncodeMatrix([]byte{frameDelta}, delta)
	t := s.Link.sendBytes("delta.dense", len(frame), denseSize, false, deps...)
	return frame, t, false
}

// sendDry charges a dry-run (shape-only) transmission: the first epoch is
// the dense base; later epochs are deltas whose sparsity is DrySparsity.
// The returned frame is nil — receivers are skipped in dry runs.
func (s *DeltaSender) sendDry(cur *tensor.Matrix, denseSize int, deps ...*simtime.Task) ([]byte, *simtime.Task, bool) {
	first := s.dryEpochs == 0
	s.dryEpochs++
	if first || !s.Enabled {
		return nil, s.Link.sendBytes("dense", denseSize, denseSize, false, deps...), false
	}
	if s.DrySparsity >= s.Threshold {
		nnz := int(float64(cur.Rows*cur.Cols) * (1 - s.DrySparsity))
		// Mirror CompressionWorthwhile's size crossover: a sparse-enough
		// delta still goes dense when CSR index overhead outweighs the win.
		if wire := 1 + tensor.EncodedSizeCSR(cur.Rows, cur.Cols, nnz); wire < denseSize {
			return nil, s.Link.sendBytes("delta.csr", wire, denseSize, true, deps...), true
		}
	}
	return nil, s.Link.sendBytes("delta.dense", denseSize, denseSize, false, deps...), false
}

// DeltaReceiver reconstructs the sender's stream. The protocol is
// stateful: the first frame is the dense base, subsequent frames are
// deltas (dense or CSR) accumulated onto it.
type DeltaReceiver struct {
	cur  *tensor.Matrix
	base bool
}

// Receive decodes one frame and returns the reconstructed current matrix
// (a copy safe to retain).
func (r *DeltaReceiver) Receive(frame []byte) (*tensor.Matrix, error) {
	if len(frame) < 1 {
		return nil, fmt.Errorf("mpcsim: empty frame")
	}
	kind := frame[0]
	dense, sparse, _, err := tensor.Decode(frame[1:])
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameBase:
		if dense == nil {
			return nil, fmt.Errorf("mpcsim: base frame must be dense")
		}
		r.cur = dense.Clone()
		r.base = true
	case frameDelta:
		if !r.base {
			return nil, fmt.Errorf("mpcsim: delta frame before base")
		}
		if dense != nil {
			tensor.Add(r.cur, r.cur, dense)
		} else {
			sparse.AddInto(r.cur)
		}
	default:
		return nil, fmt.Errorf("mpcsim: unknown frame type 0x%02x", kind)
	}
	return r.cur.Clone(), nil
}

// Reset drops the sender's base so its next Send ships a dense base
// frame. Delta streams are fp32-history-dependent: two runs produce
// bit-identical values only if their accumulated delta histories match,
// so a checkpoint/restore boundary must rebase every stream on both
// sides (pair with DeltaReceiver.Reset on the receiving end).
func (s *DeltaSender) Reset() { s.prev, s.dryEpochs = nil, 0 }

// Reset clears receiver state (e.g. when the sender restarts a stream).
func (r *DeltaReceiver) Reset() { r.cur, r.base = nil, false }
