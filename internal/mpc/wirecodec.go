package mpc

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parsecureml/internal/hw"
	"parsecureml/internal/tensor"
)

// Adaptive per-tensor wire compression for the online exchange. The
// revealed tensors of the Beaver protocol — the E and F difference shares,
// lone or stacked by a grouped request — are the bulk of per-request
// traffic, and on a bandwidth-bound link encoding them smaller buys
// wall-clock even though it costs CPU. Each send picks raw ('D'), FP16
// ('H'), or CSR ('S') per tensor from three inputs: a cheap sampled density
// estimate, the link byte budget (the static hw model overridden by a live
// bandwidth measurement), and the hw crossover
// hw.Platform.CodecWorthwhile — bytes must be worth more than the
// encode+decode memory passes. On the paper's 100 Gb/s fabric
// nothing ever pays and every send stays raw; on a throttled WAN-class
// link CSR and FP16 cut the dominant term.
//
// Correctness contract ("use what you ship"): the public E (Eq. 5) is
// E_0 + E_1, so a sender that rounds its outgoing share to FP16 must use
// the SAME rounded values locally — wireMul rounds the retained share in
// place before the sender goroutine starts. Both parties then reconstruct
// the identical public E' from whatever mix of codecs the two directions
// chose, which keeps codec choice sender-local: no per-tensor agreement,
// only the capability handshake below. The resulting product is
// C = A×B + U·γ + δ·V − δ·γ for the rounding perturbations δ, γ of E and
// F — a bounded, documented tolerance (see DESIGN.md) paid only when a
// lossy codec is picked, which the selector only does for revealed
// tensors. Raw shares — a request's A and B, a reply's C_i — are NEVER
// lossy-encoded: the client legs carry them on the raw dense path.
//
// Frames are self-describing (tensor.DecodeAnyInto follows the tag), so
// the receive path is codec-oblivious; negotiation only gates what a
// sender may EMIT. The codec set is the low bits of the capability frame
// the pair exchanges at link-up (pairCtl in serve.go); until the peer's
// frame arrives the sender stays raw, so a server paired with one that
// never answers degrades to raw forever instead of desyncing.

// CodecSet is a bitmask of optional wire codecs, as advertised in the
// capability handshake.
type CodecSet uint32

const (
	// CodecFP16 halves dense payloads by rounding revealed tensors to
	// binary16 on the wire (lossy, reveal-only; see the precision contract).
	CodecFP16 CodecSet = 1 << 0
	// CodecCSR sends sparse revealed tensors as index+value pairs
	// (lossless).
	CodecCSR CodecSet = 1 << 1
)

// codecMask is every codec this build understands; peer caps are masked
// to it so a newer peer's unknown bits are ignored.
const codecMask = CodecFP16 | CodecCSR

// wireCodecKind is one concrete per-tensor encoding decision.
type wireCodecKind uint8

const (
	codecRaw wireCodecKind = iota
	codecFP16
	codecCSR
)

// wireTensor labels which revealed tensor a pick was for (metrics only).
type wireTensor uint8

const (
	tensorE wireTensor = iota
	tensorF
)

// fp16SafeMax is the magnitude gate for electing FP16: binary16 tops out
// at 65504, and the public tensor is the SUM of two independently rounded
// shares, so shares are kept well inside the representable range. Shares
// drawn in ShareRange pass trivially; adversarially scaled inputs fall
// back to raw instead of rounding to ±Inf.
const fp16SafeMax = 1 << 14

// WireCodec is the per-link codec selector: which codecs may be emitted,
// the hw cost model for the crossover, and the live link-bandwidth
// estimate. One WireCodec is shared by every exchange on a peer link
// (all methods are safe for concurrent senders). The zero value — and a
// nil *WireCodec — always picks raw.
type WireCodec struct {
	// Enabled is the set this party is willing to emit.
	Enabled CodecSet
	// HW supplies the codec cost model (CodecWorthwhile) and the static
	// link bandwidth default.
	HW hw.Platform
	// Link, when its Bandwidth is set, overrides HW.Net as the static
	// byte budget — e.g. a known-throttled deployment link.
	Link hw.LinkModel
	// Negotiate gates Enabled on the capability handshake: no codec is
	// emitted until the peer has advertised its own set, and only the
	// intersection is used. Leave false only when both endpoints are
	// known to decode every enabled codec (e.g. single-process tests).
	Negotiate bool

	// negotiated holds the peer's masked capability set + 1; 0 means the
	// peer's frame has not arrived yet. The +1 lets the zero value mean
	// "not negotiated" so WireCodec literals need no constructor.
	negotiated atomic.Uint32
	// linkBps is the measured link bandwidth EWMA as float64 bits; 0
	// means no measurement yet.
	linkBps atomic.Uint64
}

// usable returns the codec set picks may draw from right now.
func (wc *WireCodec) usable() CodecSet {
	if wc == nil {
		return 0
	}
	if !wc.Negotiate {
		return wc.Enabled & codecMask
	}
	n := wc.negotiated.Load()
	if n == 0 {
		return 0 // peer capabilities unknown: raw only
	}
	return wc.Enabled & CodecSet(n-1)
}

// setPeer records the peer's advertised capability set (its codec bits).
func (wc *WireCodec) setPeer(caps uint32) {
	if wc == nil {
		return
	}
	masked := caps & uint32(codecMask)
	wc.negotiated.Store(masked + 1)
	metrics.wireCodecNegotiated.Set(int64(masked))
}

// linkEwmaAlpha weights the newest bandwidth sample 1/8, enough history
// to ride out one anomalous exchange without going stale.
const linkEwmaAlpha = 1.0 / 8

// ObserveLink feeds one measured transfer into the bandwidth EWMA.
// Callers report what they actually shipped and how long the exchange's
// transfer phases took; the selector prefers this over the static model
// whenever it is lower (the budget is min(static, measured), so a fast
// local pipe cannot disable a deliberately configured throttle, and a
// genuinely slow link engages the codecs no matter what the model says).
func (wc *WireCodec) ObserveLink(bytes int, dur time.Duration) {
	if wc == nil || bytes <= 0 || dur <= 0 {
		return
	}
	sample := float64(bytes) / dur.Seconds()
	for {
		old := wc.linkBps.Load()
		cur := math.Float64frombits(old)
		next := sample
		if old != 0 {
			next = cur + linkEwmaAlpha*(sample-cur)
		}
		if wc.linkBps.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// ResetLink discards the measured bandwidth EWMA, returning budgetBps
// to the static model until new samples arrive. Call it when the
// underlying transport path may have changed — a SupervisedLink
// reconnect lands on a new TCP connection (possibly a new route), and
// a throttled estimate from the dead incarnation must not keep pinning
// the codec selector against a link that no longer exists.
func (wc *WireCodec) ResetLink() {
	if wc == nil {
		return
	}
	wc.linkBps.Store(0)
}

// budgetBps is the byte budget the crossover charges transfers against:
// the static model (Link override, else HW.Net), capped by the measured
// EWMA when one exists.
func (wc *WireCodec) budgetBps() float64 {
	static := wc.Link.Bandwidth
	if static <= 0 {
		static = wc.HW.Net.Bandwidth
	}
	measured := math.Float64frombits(wc.linkBps.Load())
	if measured > 0 && (static <= 0 || measured < static) {
		return measured
	}
	return static
}

// nnzSampleCap bounds the density estimate to a strided pass over at
// most this many elements, so pick() costs O(1) on large tensors.
const nnzSampleCap = 512

// estimateNNZ returns a deliberately pessimistic (high) NNZ estimate
// from a strided sample: overestimating density only costs a missed
// compression, while underestimating would elect CSR for a tensor whose
// exact encoding then falls back to dense anyway (appendWireTensor
// re-checks with the true count before committing bytes).
func estimateNNZ(m *tensor.Matrix) int {
	elems := len(m.Data)
	if elems == 0 {
		return 0
	}
	stride := elems/nnzSampleCap + 1
	nz, n := 0, 0
	for i := 0; i < elems; i += stride {
		n++
		if m.Data[i] != 0 {
			nz++
		}
	}
	est := nz*elems/n + elems/16 + 1 // +~6% margin for sampling error
	if est > elems {
		est = elems
	}
	return est
}

// pick selects the wire encoding for one revealed tensor. The decision
// is sender-local (see the package comment): lossless CSR is tried
// first, FP16 only when CSR did not qualify and every element is inside
// the binary16 safe range. Either must both shrink the frame and clear
// the hw crossover against the current byte budget. The pick is counted
// on psml_wire_codec_total.
func (wc *WireCodec) pick(m *tensor.Matrix, tk wireTensor) wireCodecKind {
	kind := codecRaw
	if set := wc.usable(); set != 0 && m.Data != nil && len(m.Data) > 0 {
		elems := len(m.Data)
		raw := tensor.EncodedSizeDense(m.Rows, m.Cols)
		bps := wc.budgetBps()
		if set&CodecCSR != 0 {
			if est := tensor.EncodedSizeCSR(m.Rows, m.Cols, estimateNNZ(m)); est < raw &&
				wc.HW.CodecWorthwhile(raw-est, elems, bps) {
				kind = codecCSR
			}
		}
		if kind == codecRaw && set&CodecFP16 != 0 {
			if est := tensor.EncodedSizeFP16(m.Rows, m.Cols); est < raw &&
				wc.HW.CodecWorthwhile(raw-est, elems, bps) && m.MaxAbs() <= fp16SafeMax {
				kind = codecFP16
			}
		}
	}
	metrics.wireCodecPicks[tk][kind].Inc()
	return kind
}

// appendWireTensor encodes m under kind, appending the self-describing
// frame to buf. A CSR election is re-checked against the EXACT nonzero
// count — the pick used a sampled estimate, and a band of a matrix that
// is sparse overall can be locally dense — and falls back to the raw
// dense encoding when CSR would not actually be smaller. Bytes saved
// against the dense encoding accumulate on psml_wire_bytes_saved_total.
func appendWireTensor(buf []byte, m *tensor.Matrix, kind wireCodecKind) []byte {
	start := len(buf)
	switch kind {
	case codecFP16:
		buf = tensor.EncodeMatrixFP16(buf, m)
	case codecCSR:
		if tensor.EncodedSizeCSR(m.Rows, m.Cols, m.NNZ()) < tensor.EncodedSizeDense(m.Rows, m.Cols) {
			buf = tensor.AppendMatrixCSR(buf, m)
		} else {
			buf = tensor.EncodeMatrix(buf, m)
		}
	default:
		return tensor.EncodeMatrix(buf, m)
	}
	if saved := tensor.EncodedSizeDense(m.Rows, m.Cols) - (len(buf) - start); saved > 0 {
		metrics.wireBytesSaved.Add(uint64(saved))
	}
	return buf
}

// ParseWireCodecName maps a -wire-codec flag value to the codec set it
// enables. "raw" (and "") disables compression entirely; "auto" enables
// everything and lets the selector decide per tensor.
func ParseWireCodecName(name string) (CodecSet, error) {
	switch name {
	case "", "raw":
		return 0, nil
	case "auto":
		return CodecFP16 | CodecCSR, nil
	case "fp16":
		return CodecFP16, nil
	case "csr":
		return CodecCSR, nil
	}
	return 0, fmt.Errorf("mpc: unknown wire codec %q (want auto, raw, fp16 or csr)", name)
}
