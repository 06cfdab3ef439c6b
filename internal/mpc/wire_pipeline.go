package mpc

import (
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Wire double pipeline: the paper's transfer/compute overlap (Figs. 5/6)
// carried onto the real networked path. The virtual-time scheduler in
// internal/pipeline models the overlap; this file makes it happen on the
// wall clock between two genuinely concurrent parties:
//
//   - Intra-op (Fig. 5 analogue): one triplet multiplication splits the
//     E exchange into row bands. A dedicated sender goroutine streams this
//     party's bands to the peer while the main goroutine folds each
//     arriving peer band into the fused Eq. 8 GEMM — the network transfer
//     of band k overlaps the compute of band k−1, and the two directions
//     of the duplex link run simultaneously instead of in the serial
//     path's fixed send-then-receive order.
//
//   - Cross-layer (Fig. 6 analogue): within an inference session F = W−V
//     comes entirely from the session-fixed weights and triplets, so the
//     public F of every layer is reconstructed once at session setup and
//     cached; per-request traffic is the E stream only. The activation
//     reveal collapses from three dependent frames to one concurrent
//     frame each way (party 1's post-activation share is just the mask R,
//     which party 0 can generate and ship before the pre-activation
//     exchange completes).
//
// All per-request matrices come from a tensor.Pool and all frame buffers
// are session-scoped scratch, so the steady-state serving path does
// near-zero allocations per request.

// WireConfig tunes the networked double pipeline. The zero value selects
// whole-matrix bands (full-duplex exchange, no intra-op banding) and a
// private pool per serving loop.
type WireConfig struct {
	// ChunkRows is the row-band height of the streamed E exchange: party
	// i ships band k while fusing band k−1 into the GEMM. <= 0 uses one
	// whole-matrix band. Both parties must agree on the value — band
	// boundaries are part of the wire protocol.
	ChunkRows int
	// Pool recycles per-request matrices. nil lets each serving loop
	// create its own.
	Pool *tensor.Pool
	// Codec, when non-nil, adaptively compresses the revealed E/F tensors
	// on the wire (FP16/CSR, see wirecodec.go) when the link byte budget
	// makes it pay. Frames are self-describing, so receivers need no
	// matching setting; raw shares (activation reveals, session F setup)
	// are never lossy-encoded. nil sends everything raw.
	Codec *WireCodec
}

// bandRows clamps the configured band height to [1, m].
func (c WireConfig) bandRows(m int) int {
	b := c.ChunkRows
	if b <= 0 || b > m {
		b = m
	}
	if b < 1 {
		b = 1
	}
	return b
}

// readFrameInto reads a frame, reusing buf when the transport supports it.
func readFrameInto(conn comm.Framer, buf []byte) ([]byte, error) {
	if ri, ok := conn.(comm.FramerInto); ok {
		return ri.ReadFrameInto(buf)
	}
	return conn.ReadFrame()
}

// wireMul is the reusable state for pipelined exchanges over one peer
// link: encode/decode scratch, pooled band buffers, and the sender
// goroutine's arguments. One wireMul serves a whole session; it is not
// safe for concurrent use, and after any method returns an error it is
// poisoned — the sender goroutine may still hold its scratch until the
// connection closes — so the session must be torn down, not reused.
type wireMul struct {
	party int
	cfg   WireConfig

	sendBuf []byte        // sender-goroutine encode scratch
	recvBuf []byte        // main-goroutine frame scratch
	kick    chan struct{} // arms the persistent sender goroutine; closed by close()
	done    chan error    // sender completion, buffered so senders never leak

	// Sender arguments, set before the kick. sHead (optional) goes out
	// first as one whole frame; sE (optional) follows as row bands. The
	// per-tensor codec kinds are picked by the main goroutine before the
	// kick (any FP16 rounding of the retained share happens there too, so
	// both parties use what they ship). sentBytes is written by the
	// sender and read by the main goroutine only after draining done.
	sconn     comm.Framer
	sHead     *tensor.Matrix
	sE        *tensor.Matrix
	sBand     int
	sHeadKind wireCodecKind
	sEKind    wireCodecKind
	sentBytes int
	sView     tensor.Matrix // sender-side band view (sender goroutine only)

	// Persistent band-view headers (main goroutine only): retargeted with
	// SliceRowsInto each band instead of allocating a header per band.
	pbView, eView, dView, cView, aView, eiView, zView tensor.Matrix
}

func newWireMul(party int, cfg WireConfig) *wireMul {
	if cfg.Pool == nil {
		cfg.Pool = tensor.NewPool()
	}
	w := &wireMul{party: party, cfg: cfg, kick: make(chan struct{}, 1), done: make(chan error, 1)}
	// One persistent sender goroutine per session: spawning one per
	// exchange costs a stack and scheduler churn on the per-request path.
	go w.senderLoop()
	return w
}

// close retires the sender goroutine. Safe while a poisoned sender is
// still blocked on a dead connection — it exits once that write fails.
func (w *wireMul) close() { close(w.kick) }

func (w *wireMul) get(rows, cols int) *tensor.Matrix { return w.cfg.Pool.Get(rows, cols) }
func (w *wireMul) put(m *tensor.Matrix)              { w.cfg.Pool.Put(m) }

// senderLoop runs on its own goroutine so the outgoing stream overlaps
// the reader's band compute (and the peer's symmetric stream).
func (w *wireMul) senderLoop() {
	for range w.kick {
		w.done <- w.runSender()
	}
}

func (w *wireMul) runSender() error {
	w.sentBytes = 0
	if w.sHead != nil {
		w.sendBuf = appendWireTensor(w.sendBuf[:0], w.sHead, w.sHeadKind)
		w.sentBytes += len(w.sendBuf)
		if err := w.sconn.WriteFrame(w.sendBuf); err != nil {
			return err
		}
	}
	if w.sE == nil {
		return nil
	}
	rows := w.sE.Rows
	for lo := 0; lo < rows; lo += w.sBand {
		hi := min(lo+w.sBand, rows)
		w.sendBuf = appendWireTensor(w.sendBuf[:0], w.sE.SliceRowsInto(&w.sView, lo, hi), w.sEKind)
		w.sentBytes += len(w.sendBuf)
		if err := w.sconn.WriteFrame(w.sendBuf); err != nil {
			return err
		}
	}
	return nil
}

// launch arms the sender goroutine with head+bands (and their picked
// codec kinds) and kicks it.
func (w *wireMul) launch(conn comm.Framer, head, bands *tensor.Matrix, bandRows int, headKind, bandKind wireCodecKind) {
	w.sconn, w.sHead, w.sE, w.sBand = conn, head, bands, bandRows
	w.sHeadKind, w.sEKind = headKind, bandKind
	w.kick <- struct{}{}
}

// mul executes this party's side of one banded triplet multiplication
// C_i = ((−i)·E + A_i)×F + E×B_i + Z_i over conn. This party's E share
// streams to the peer band by band while the peer's arriving bands are
// fused into the Eq. 8 GEMM — transfer and compute overlap inside one
// multiplication. The result is bit-identical to the serial RemoteParty.
//
// fPub, when non-nil, is the session-cached public F and no F frames move
// (the inference fast path); when nil the F shares are exchanged ahead of
// the E bands. dst, when non-nil, receives the result (a.Rows×b.Cols);
// when nil a pooled matrix is returned — callers give it back with
// ReleaseTo or keep it.
//
// With cfg.Codec nil (or picking raw) the result is bit-identical to the
// serial RemoteParty. A lossy (FP16) pick perturbs only the REVEALED E/F
// difference shares — the retained copy is rounded in place before the
// sender starts, so both parties reconstruct the same public tensors and
// the result carries the documented reveal-only tolerance instead of a
// protocol desync.
func (w *wireMul) mul(conn comm.Framer, a, b *tensor.Matrix, t TripletShares, fPub, dst *tensor.Matrix) (*tensor.Matrix, error) {
	m, k, n := a.Rows, a.Cols, b.Cols
	band := w.cfg.bandRows(m)

	// Local shares (Eq. 4): E_i = A_i − U_i, F_i = B_i − V_i.
	ei := w.get(m, k)
	tensor.Sub(ei, a, t.U)
	var fi *tensor.Matrix
	if fPub == nil {
		fi = w.get(k, n)
		tensor.Sub(fi, b, t.V)
	}
	// Codec election, then use-what-you-ship: an FP16 pick rounds the
	// retained share in place BEFORE the sender goroutine starts, so the
	// local reconstruction sees exactly the values the peer receives (and
	// the concurrent encoder never races a mutation).
	eKind, fKind := codecRaw, codecRaw
	if wc := w.cfg.Codec; wc != nil {
		eKind = wc.pick(ei, tensorE)
		if eKind == codecFP16 {
			tensor.RoundMatrixFloat16InPlace(ei)
		}
		if fi != nil {
			fKind = wc.pick(fi, tensorF)
			if fKind == codecFP16 {
				tensor.RoundMatrixFloat16InPlace(fi)
			}
		}
	}
	w.launch(conn, fi, ei, band, fKind, eKind)

	// Per-phase accumulators: the banded loop interleaves transfer waits,
	// Eq. 5 reconstruction, and Eq. 8 compute, so each is summed across
	// bands and observed once per multiplication (cheap monotonic-clock
	// reads, no allocation).
	var exchDur, reconDur, gemmDur time.Duration

	// Public F (Eq. 5) — from cache, or the head frame of each stream.
	f := fPub
	if f == nil {
		t0 := time.Now()
		frame, err := readFrameInto(conn, w.recvBuf)
		exchDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mpc: recv F: %w", err)
		}
		w.recvBuf = frame
		peerF := w.get(k, n)
		// Tag-dispatched: the peer's codec choice is sender-local, the
		// frame says what it is (raw senders emit plain 'D' frames).
		if _, err := tensor.DecodeAnyInto(peerF, frame); err != nil {
			return nil, fmt.Errorf("mpc: decode peer F: %w", err)
		}
		t0 = time.Now()
		f = w.get(k, n)
		tensor.Add(f, fi, peerF)
		reconDur += time.Since(t0)
		w.put(peerF)
	}

	c := dst
	if c == nil {
		c = w.get(m, n)
	}
	peerBand := w.get(band, k)
	eBandBuf := w.get(band, k)
	dBandBuf := w.get(band, k)
	for lo := 0; lo < m; lo += band {
		hi := min(lo+band, m)
		rows := hi - lo
		t0 := time.Now()
		frame, err := readFrameInto(conn, w.recvBuf)
		exchDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mpc: recv E band %d: %w", lo/band, err)
		}
		w.recvBuf = frame
		pb := peerBand.SliceRowsInto(&w.pbView, 0, rows)
		if _, err := tensor.DecodeAnyInto(pb, frame); err != nil {
			return nil, fmt.Errorf("mpc: decode E band %d: %w", lo/band, err)
		}
		// Reconstruct the band of the public E and fuse it (Eqs. 5, 8).
		t0 = time.Now()
		eBand := eBandBuf.SliceRowsInto(&w.eView, 0, rows)
		tensor.Add(eBand, ei.SliceRowsInto(&w.eiView, lo, hi), pb)
		t1 := time.Now()
		reconDur += t1.Sub(t0)
		dBand := a.SliceRowsInto(&w.aView, lo, hi) // party 0: D is A_i itself
		if w.party == 1 {                          // party 1: D = A_i − E
			aBand := dBand
			dBand = dBandBuf.SliceRowsInto(&w.dView, 0, rows)
			tensor.Sub(dBand, aBand, eBand)
		}
		cBand := c.SliceRowsInto(&w.cView, lo, hi)
		tensor.Gemm(cBand, dBand, f, 1, 0)                         // D×F
		tensor.Gemm(cBand, eBand, b, 1, 1)                         // += E×B_i
		tensor.AXPY(cBand, 1, t.Z.SliceRowsInto(&w.zView, lo, hi)) // += Z_i
		gemmDur += time.Since(t1)
	}
	// The peer's reader consumes our bands symmetrically, so the sender
	// drains; a peer that died instead surfaces here as its write error
	// (bounded by the connection's deadlines).
	t0 := time.Now()
	sendErr := <-w.done
	exchDur += time.Since(t0)
	w.put(peerBand)
	w.put(eBandBuf)
	w.put(dBandBuf)
	w.put(ei)
	if fPub == nil {
		w.put(fi)
		w.put(f)
	}
	if sendErr != nil {
		if dst == nil {
			w.put(c)
		}
		return nil, fmt.Errorf("mpc: send E/F: %w", sendErr)
	}
	// Feed the measured link rate back into the codec's byte budget: what
	// we shipped over the summed transfer waits of this exchange.
	w.cfg.Codec.ObserveLink(w.sentBytes, exchDur)
	metrics.phaseExchange.Observe(exchDur)
	metrics.phaseReconstruct.Observe(reconDur)
	metrics.phaseGemm.Observe(gemmDur)
	return c, nil
}

// swap sends one matrix and receives one, concurrently — neither party
// waits for the other's frame before shipping its own, so a reveal or
// re-share round costs max(two one-way transfers), not their sum. The
// received frame is decoded into recvDst only after the sender drained,
// so recvDst may alias the sent matrix (a share being replaced in place).
//
// swap carries RAW shares (activation re-shares and masks) and is
// deliberately codec-free in both directions: lossy-encoding a share
// would corrupt the secret sharing itself, not a revealed public value,
// so the receive path also insists on the dense format.
func (w *wireMul) swap(conn comm.Framer, send, recvDst *tensor.Matrix) error {
	span := metrics.phaseExchange.Start()
	w.launch(conn, send, nil, 0, codecRaw, codecRaw)
	frame, err := readFrameInto(conn, w.recvBuf)
	if err != nil {
		return err
	}
	w.recvBuf = frame
	if err := <-w.done; err != nil {
		return err
	}
	span.Stop()
	_, err = tensor.DecodeMatrixInto(recvDst, frame)
	return err
}

// RemotePartyPipelined executes party i of one triplet multiplication
// like RemoteParty, but with the wire double pipeline: full-duplex F
// exchange followed by a banded E stream that overlaps the Eq. 8 compute.
// Both parties must call it with the same WireConfig.ChunkRows — the band
// layout is part of the wire protocol, and the serial RemoteParty framing
// is not compatible. The returned share is bit-identical to RemoteParty's.
func RemotePartyPipelined(party int, conn comm.Framer, in Shares, cfg WireConfig) (*tensor.Matrix, error) {
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("mpc: remote party index %d", party)
	}
	w := newWireMul(party, cfg)
	defer w.close()
	c, err := w.mul(conn, in.A, in.B, in.T, nil, nil)
	if err != nil {
		return nil, err
	}
	// Detach the result from the pool: the caller owns it.
	return c, nil
}
