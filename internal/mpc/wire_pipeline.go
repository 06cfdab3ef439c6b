package mpc

import (
	"errors"
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// The online exchange engine: the one implementation of the paper's online
// protocol (Eqs. 4, 5, 8) between two genuinely concurrent parties, with
// the transfer/compute overlap of Fig. 5 happening on the wall clock
// (internal/mpcsim models it in virtual time).
//
//   - One exchange serves a list of same-shape members. Their E shares
//     stack to (B·m)×k and their F shares to (B·k)×n; a lone request is a
//     list of one, whose "stack" is just its own E and F.
//
//   - Intra-op (Fig. 5 analogue): a dedicated sender goroutine streams the
//     E stack in row bands while the main goroutine folds each arriving
//     peer band into the fused Eq. 8 GEMM of every member it overlaps —
//     the transfer of band k overlaps the compute of band k−1, and both
//     directions of the duplex link run at once.
//
//   - Peer framing: the frame that carries E band 0 also carries the F
//     stack ahead of it — [F ‖ E₀] [E₁] … — so a single whole-stack band is
//     one frame each way. An exchange against a registered operand
//     (operand.go) already holds the public F: no F moves and the frames are
//     [E₀] [E₁] …. Every tensor is self-describing (tag, rows,
//     cols), so the receiver takes each band's height from the frame and
//     reads until B·m rows have arrived: band height, like the codec, is
//     the sender's own choice and the two parties need not agree on it.
//     Any banding is bit-identical because every dst row of tensor.Gemm
//     accumulates independently.
//
// All per-request matrices — a served request's own decoded shares included
// (serveMuxLoop) — come from a tensor.Pool. Request and reply frames are
// lent by comm's frame pool, and so are the peer frames the mux and the
// supervised link carry; the exchange encodes into and reads out of
// session-scoped scratch. So the steady-state serving path does near-zero
// allocations per request.

// WireConfig tunes the exchange engine. The zero value selects
// whole-matrix bands (one frame each way per exchange) and Lender's pool.
type WireConfig struct {
	// ChunkRows is the row-band height this party SENDS the E stream in:
	// it ships band k while fusing the peer's band k−1 into the GEMM. <= 0
	// uses one whole-matrix band. Sender-local — the peer reads each band's
	// height off the frame, so the two parties may differ. Raised where
	// needed so no band is under minBandBytes (see chunkBand).
	ChunkRows int
	// Pool recycles per-request matrices. nil uses Lender, the process's
	// pool of per-request stores.
	Pool *tensor.Pool
	// Codec, when non-nil, adaptively compresses the revealed E/F tensors
	// on the wire (FP16/CSR, see wirecodec.go) when the link byte budget
	// makes it pay. Frames are self-describing, so receivers need no
	// matching setting. nil sends everything raw.
	Codec *WireCodec
}

// wireMul is the reusable state for exchanges over one peer link:
// encode/decode scratch, pooled band buffers, and the sender goroutine's
// arguments. One wireMul serves a whole session; it is not safe for
// concurrent use, and after any method returns an error it is poisoned —
// the sender goroutine may still hold its scratch until its write fails —
// so the session must be torn down, or wait the sender out (drain) on a
// connection that has ended.
type wireMul struct {
	party int
	cfg   WireConfig

	sendBuf []byte        // sender-goroutine encode scratch
	recvBuf []byte        // main-goroutine frame scratch
	kick    chan struct{} // arms the persistent sender goroutine; closed by close()
	done    chan error    // sender completion, buffered so senders never leak

	// Sender arguments, set before the kick. sHead (nil: none) rides at the
	// front of the first frame; sE follows as row bands, band 0 in that same
	// frame. The per-tensor codec kinds are picked by the main goroutine
	// before the kick (any FP16 rounding of the retained share happens there
	// too, so both parties use what they ship). sentBytes is written by the
	// sender and read by the main goroutine only after draining done.
	sconn     comm.Framer
	sHead     *tensor.Matrix
	sE        *tensor.Matrix
	sBand     int
	sHeadKind wireCodecKind
	sEKind    wireCodecKind
	sentBytes int
	sView     tensor.Matrix // sender-side band view (sender goroutine only)
	sending   bool          // kicked, and done not yet drained

	// run's member list and the row-view headers behind it (five per
	// member), kept across requests so the per-request path allocates
	// neither.
	members []Shares
	views   []tensor.Matrix
	// retire is the next run's U and V stacks when they are whole pool stores
	// its caller reads no more: exchange puts them to cfg.Pool once E_i and
	// F_i exist. Empty for a caller that keeps its Shares (RemoteParty*).
	retire [2]*tensor.Matrix

	// Persistent view headers (main goroutine only): retargeted with
	// SliceRowsInto per member and per band instead of allocating a header.
	jView, pbView, eiView, eView, dView, aView, cView, fView, zView tensor.Matrix
}

func newWireMul(party int, cfg WireConfig) *wireMul {
	if cfg.Pool == nil {
		cfg.Pool = lender
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

// runSender writes [head ‖ band 0] [band 1] …; a zero-row E stack still
// sends the head, alone in its frame, and with no head writes nothing.
func (w *wireMul) runSender() error {
	w.sentBytes = 0
	rows := w.sE.Rows
	buf := w.sendBuf[:0]
	if w.sHead != nil {
		buf = appendWireTensor(buf, w.sHead, w.sHeadKind)
	}
	for lo := 0; lo < rows || len(buf) > 0; {
		if lo < rows {
			hi := min(lo+w.sBand, rows)
			buf = appendWireTensor(buf, w.sE.SliceRowsInto(&w.sView, lo, hi), w.sEKind)
			lo = hi
		}
		w.sendBuf = buf
		w.sentBytes += len(buf)
		if err := w.sconn.WriteFrame(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	return nil
}

// launch arms the sender goroutine with head+bands (and their picked
// codec kinds) and kicks it.
func (w *wireMul) launch(conn comm.Framer, head, bands *tensor.Matrix, bandRows int, headKind, bandKind wireCodecKind) {
	w.sconn, w.sHead, w.sE, w.sBand = conn, head, bands, bandRows
	w.sHeadKind, w.sEKind = headKind, bandKind
	w.sending = true
	w.kick <- struct{}{}
}

// drain waits for the sender of the last launch, if it has not been waited
// for, and returns its error: after an exchange failed on a connection that
// has ended (its write fails at once), the engine can run again.
func (w *wireMul) drain() error {
	if !w.sending {
		return nil
	}
	w.sending = false
	return <-w.done
}

// errBandFrame marks a peer E band whose self-describing header does not
// fit the exchange: wrong width, no rows, more rows than are still owed,
// or bytes left over behind it.
var errBandFrame = errors.New("malformed band frame")

// peekBand validates an arriving band's header against the exchange
// geometry BEFORE anything is sized by it, and returns the band's height.
func peekBand(frame []byte, k, owed int) (int, error) {
	rows, cols, err := tensor.PeekShape(frame)
	if err != nil {
		return 0, err
	}
	if cols != k || rows < 1 || rows > owed {
		return 0, fmt.Errorf("%w: %dx%d with %d rows of width %d owed", errBandFrame, rows, cols, owed, k)
	}
	return rows, nil
}

// recv reads the next peer frame, into the session's receive scratch when the
// transport can, adding the time it blocked to *waited.
func (w *wireMul) recv(conn comm.Framer, waited *time.Duration) (frame []byte, err error) {
	t0 := time.Now()
	if ri, ok := conn.(comm.FramerInto); ok {
		frame, err = ri.ReadFrameInto(w.recvBuf)
	} else {
		frame, err = conn.ReadFrame()
	}
	*waited += time.Since(t0)
	if err == nil {
		w.recvBuf = frame
	}
	return frame, err
}

// minBandBytes floors the E bands of the ChunkRows path. A peer frame costs
// ~10 µs of mux and link work before its first payload byte (ladder rung
// comm.mux.frame_us) — what ~35 KB take at loopback bulk rate — so a band
// far under that is mostly frame: an attention block's 64×8 E stack at
// ChunkRows 8 left as eight 256-byte frames. 16 KiB keeps stacks that small
// whole and leaves bands already over it (32 rows × 256 columns) as set.
const minBandBytes = 16 << 10

// chunkBand is the band height a request's E stack of width k is sent in:
// cfg.ChunkRows, raised so that no full band is under minBandBytes (a
// zero-width stack has no bytes to band and goes whole).
func (w *wireMul) chunkBand(k int) int {
	if w.cfg.ChunkRows <= 0 || k == 0 {
		return 0
	}
	return max(w.cfg.ChunkRows, (minBandBytes+4*k-1)/(4*k))
}

// run is exchange for one request — a lone product or a row-stacked group
// (Shares.Members) — sent in bands of chunkBand rows. The member list is
// row views of in's stacks; a lone request is a list of one whole-matrix
// view, so both take the same path through the engine. op is the registered
// operand the request reads or fills (see exchange), nil for none; a request
// that reads one carries no V, and its B is the operand's.
func (w *wireMul) run(conn comm.Framer, in Shares, op *operand) (*tensor.Matrix, error) {
	c := in.members()
	m, k := in.A.Rows/c, in.A.Cols
	if cap(w.members) < c {
		w.members, w.views = make([]Shares, c), make([]tensor.Matrix, 5*c)
	}
	members, views := w.members[:c], w.views[:5*c]
	for j := range members {
		v := views[5*j:]
		members[j] = Shares{
			A: in.A.SliceRowsInto(&v[0], j*m, (j+1)*m),
			B: in.B.SliceRowsInto(&v[1], j*k, (j+1)*k),
			T: TripletShares{
				U: in.T.U.SliceRowsInto(&v[2], j*m, (j+1)*m),
				Z: in.T.Z.SliceRowsInto(&v[4], j*m, (j+1)*m),
			},
		}
		if in.T.V != nil {
			members[j].T.V = in.T.V.SliceRowsInto(&v[3], j*k, (j+1)*k)
		}
	}
	out, err := w.exchange(conn, members, w.chunkBand(k), op)
	// An idle session must not pin its last request through the views.
	clear(members)
	clear(views)
	return out, err
}

// exchange executes this party's side of one Beaver exchange over conn
// for members of identical m×k × k×n geometry, row-stacked: member j's
// share C_j = ((−i)·E_j + A_j)×F_j + E_j×B_j + Z_j lands in rows
// [j·m, (j+1)·m) of the returned (B·m)×n stack. This party's E stack
// streams to the peer in bands of `band` rows (<= 0: one band) while the
// peer's arriving bands — of whatever height the peer chose — are fused
// into the Eq. 8 GEMM of each member they overlap, so transfer and compute
// overlap inside one exchange. Each member's rows run exactly the op
// sequence of a lone exchange, so a group is bit-identical to serving its
// members one by one, and any banding to the one-band protocol.
//
// The F stack rides ahead of E band 0 — unless op holds the public F of a
// registered operand (op.f set): then nothing of F is computed or moved and
// the members carry no V (Eq. 8 reads F, B_i and Z_i only). An op with f nil
// is an operand being registered: the exchange runs in full and leaves the F
// stack it reconstructed in op.f, the caller's to keep. The result is a
// pooled matrix — callers give it back with put or keep it.
//
// With cfg.Codec nil (or picking raw) the result is bit-identical to the
// straight-line protocol. A lossy (FP16) pick perturbs only the REVEALED
// E/F difference shares — the retained copy is rounded in place before the
// sender starts (rounding is elementwise, so a stacked round equals
// rounding each member alone), so both parties reconstruct the same public
// tensors and the result carries the documented reveal-only tolerance
// instead of a protocol desync.
func (w *wireMul) exchange(conn comm.Framer, members []Shares, band int, op *operand) (*tensor.Matrix, error) {
	m, k, n := members[0].A.Rows, members[0].A.Cols, members[0].B.Cols
	stackRows := len(members) * m
	if band <= 0 || band > stackRows {
		band = stackRows
	}
	// f is the public F stack — the operand's, or reconstructed below from fi
	// and the peer's share.
	var f, fi *tensor.Matrix
	if op != nil {
		f = op.f
	}

	// Local shares (Eq. 4): E_i = A_i − U_i, F_i = B_i − V_i, member by
	// member into the stacks.
	ei := w.get(stackRows, k)
	if f == nil {
		fi = w.get(len(members)*k, n)
	}
	for j := range members {
		in := &members[j]
		tensor.Sub(ei.SliceRowsInto(&w.jView, j*m, (j+1)*m), in.A, in.T.U)
		if fi != nil {
			tensor.Sub(fi.SliceRowsInto(&w.jView, j*k, (j+1)*k), in.B, in.T.V)
		}
	}
	// Nothing below reads U or V: given back now, peerF, f and c take their
	// buffers instead of growing the pool — live heap the collector doubles.
	w.put(w.retire[0])
	w.put(w.retire[1])
	w.retire = [2]*tensor.Matrix{}
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
	// bands and observed once per exchange (cheap monotonic-clock reads,
	// no allocation).
	var exchDur, reconDur, gemmDur time.Duration

	// Public F (Eq. 5) — the operand's, or from the head of the peer's first
	// frame. rest is what remains of the frame in hand; the E loop reads a
	// new frame whenever it is empty.
	var rest []byte
	if fi != nil {
		frame, err := w.recv(conn, &exchDur)
		if err != nil {
			return nil, fmt.Errorf("mpc: recv F: %w", err)
		}
		peerF := w.get(fi.Rows, n)
		// Tag-dispatched: the peer's codec choice is sender-local, the frame
		// says what it is (raw senders emit plain 'D' frames).
		used, err := tensor.DecodeAnyInto(peerF, frame)
		if err != nil {
			return nil, fmt.Errorf("mpc: decode peer F: %w", err)
		}
		rest = frame[used:]
		t0 := time.Now()
		f = w.get(fi.Rows, n)
		tensor.Add(f, fi, peerF)
		reconDur += time.Since(t0)
		w.put(peerF)
	}

	c := w.get(stackRows, n)
	// Band scratch, grown to the tallest band the peer sends (a validated
	// height, never more than the stack): eBuf holds the peer band and then
	// the public E band in place, dBuf party 1's D band.
	var eBuf, dBuf *tensor.Matrix
	for lo, bandNo := 0, 0; lo < stackRows; bandNo++ {
		if len(rest) == 0 {
			frame, err := w.recv(conn, &exchDur)
			if err != nil {
				return nil, fmt.Errorf("mpc: recv E band %d: %w", bandNo, err)
			}
			rest = frame
		}
		rows, err := peekBand(rest, k, stackRows-lo)
		if err != nil {
			return nil, fmt.Errorf("mpc: E band %d: %w", bandNo, err)
		}
		if eBuf == nil || rows > eBuf.Rows {
			w.put(eBuf)
			w.put(dBuf)
			eBuf = w.get(rows, k)
			if w.party == 1 {
				dBuf = w.get(rows, k)
			}
		}
		hi := lo + rows
		eBand := eBuf.SliceRowsInto(&w.pbView, 0, rows)
		if used, err := tensor.DecodeAnyInto(eBand, rest); err != nil {
			return nil, fmt.Errorf("mpc: decode E band %d: %w", bandNo, err)
		} else if used != len(rest) {
			return nil, fmt.Errorf("mpc: E band %d: %w: %d trailing bytes", bandNo, errBandFrame, len(rest)-used)
		}
		rest = nil
		// Reconstruct the band of the public E stack, then fuse each member
		// it overlaps (Eqs. 5, 8).
		t0 := time.Now()
		tensor.Add(eBand, ei.SliceRowsInto(&w.eiView, lo, hi), eBand)
		t1 := time.Now()
		reconDur += t1.Sub(t0)
		for j := lo / m; j*m < hi; j++ {
			in := &members[j]
			ov0, ov1 := max(j*m, lo), min((j+1)*m, hi) // member j's stack rows in this band
			eSl := eBand.SliceRowsInto(&w.eView, ov0-lo, ov1-lo)
			dSl := in.A.SliceRowsInto(&w.aView, ov0-j*m, ov1-j*m) // party 0: D is A_i itself
			if w.party == 1 {                                     // party 1: D = A_i − E
				aSl := dSl
				dSl = dBuf.SliceRowsInto(&w.dView, ov0-lo, ov1-lo)
				tensor.Sub(dSl, aSl, eSl)
			}
			cSl := c.SliceRowsInto(&w.cView, ov0, ov1)
			tensor.Gemm(cSl, dSl, f.SliceRowsInto(&w.fView, j*k, (j+1)*k), 1, 0)  // D×F
			tensor.Gemm(cSl, eSl, in.B, 1, 1)                                     // += E×B_i
			tensor.AXPY(cSl, 1, in.T.Z.SliceRowsInto(&w.zView, ov0-j*m, ov1-j*m)) // += Z_i
		}
		gemmDur += time.Since(t1)
		lo = hi
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mpc: F frame: %w: %d trailing bytes", errBandFrame, len(rest))
	}
	// The peer's reader consumes our bands symmetrically, so the sender
	// drains; a peer that died instead surfaces here as its write error
	// (bounded by the connection's deadlines).
	t0 := time.Now()
	sendErr := w.drain()
	exchDur += time.Since(t0)
	// The views into the members' own A and Z would pin those matrices for
	// as long as the session idles before its next request; let them go.
	w.aView, w.zView = tensor.Matrix{}, tensor.Matrix{}
	w.put(eBuf)
	w.put(dBuf)
	w.put(ei)
	w.put(fi)
	if op == nil {
		w.put(f)
	} else {
		op.f = f // what it held already, or the stack just reconstructed for it
	}
	if sendErr != nil {
		w.put(c)
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
