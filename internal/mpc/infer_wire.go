package mpc

import (
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Inference serving on the exchange engine. In protocol order:
//
//   - Session setup reconstructs every layer's public F = W − V once, with
//     one concurrent frame each way (the weights' masks never change within
//     a session — the Fig. 6 cross-layer hoist). Per-request peer traffic
//     is then the banded E stream plus one frame per activation.
//
//   - Each layer's multiplication streams E in row bands that overlap the
//     fused Eq. 8 GEMM (wireMul.mul against the cached F), writing
//     pre-activations into a session-owned buffer.
//
//   - The activation reveal is two concurrent frames: party 1 ships its
//     pre-activation share while party 0 ships the re-sharing mask R it
//     drew ahead of time. Party 0 alone reconstructs and evaluates f;
//     party 1's post-activation share IS R. Predictions are bit-identical
//     to the straight-line three-frame protocol (the tests' reference)
//     because party 0 draws the same mask sequence and reconstructs in the
//     same order.
//
//   - Every per-request matrix and frame buffer is preallocated at session
//     setup or pooled, so the steady-state request loop allocates (nearly)
//     nothing.
//
// Band height is each party's own choice (WireConfig.ChunkRows).

// MaskFiller generates party 0's activation re-sharing masks in place.
// *rng.Pool implements it; its fill sequence is what NewUniform would
// draw, which is what keeps predictions identical to the reference.
type MaskFiller interface {
	FillUniform(m *tensor.Matrix, lo, hi float32)
}

// validateInferLayers checks a decoded session's geometry end to end —
// chained layer shapes, batch-consistent triplets, row-vector biases — so
// a malformed or hostile session frame is rejected with an error instead
// of panicking a kernel mid-request. Returns the session batch size.
func validateInferLayers(layers []InferLayer) (int, error) {
	if len(layers) == 0 {
		return 0, fmt.Errorf("mpc: session has no layers")
	}
	batch := layers[0].T.U.Rows
	if batch < 1 {
		return 0, fmt.Errorf("mpc: session batch %d", batch)
	}
	in := layers[0].W.Rows
	for i := range layers {
		l := &layers[i]
		if l.W.Rows != in || l.W.Rows < 1 || l.W.Cols < 1 {
			return 0, fmt.Errorf("mpc: layer %d weights %dx%d after width %d", i, l.W.Rows, l.W.Cols, in)
		}
		if l.B.Rows != 1 || l.B.Cols != l.W.Cols {
			return 0, fmt.Errorf("mpc: layer %d bias %dx%d for width %d", i, l.B.Rows, l.B.Cols, l.W.Cols)
		}
		if l.T.U.Rows != batch || l.T.U.Cols != l.W.Rows {
			return 0, fmt.Errorf("mpc: layer %d triplet U %dx%d, want %dx%d", i, l.T.U.Rows, l.T.U.Cols, batch, l.W.Rows)
		}
		if l.T.V.Rows != l.W.Rows || l.T.V.Cols != l.W.Cols {
			return 0, fmt.Errorf("mpc: layer %d triplet V %dx%d, want %dx%d", i, l.T.V.Rows, l.T.V.Cols, l.W.Rows, l.W.Cols)
		}
		if l.T.Z.Rows != batch || l.T.Z.Cols != l.W.Cols {
			return 0, fmt.Errorf("mpc: layer %d triplet Z %dx%d, want %dx%d", i, l.T.Z.Rows, l.T.Z.Cols, batch, l.W.Cols)
		}
		in = l.W.Cols
	}
	return batch, nil
}

// wireInferSession is one client session's steady-state serving state:
// the cached public F per layer and every buffer the request loop reuses.
type wireInferSession struct {
	party  int
	w      *wireMul
	layers []InferLayer
	fPub   []*tensor.Matrix // per-layer public F, fixed for the session
	x      *tensor.Matrix   // request input share
	ys     []*tensor.Matrix // per-layer (pre-)activation share
	masks  []*tensor.Matrix // party 0: mask R per activation layer
	peerYs []*tensor.Matrix // party 0: peer pre-activation share per activation layer
	// acts holds each activation's Apply bound once at setup: taking the
	// method value inside the request loop would allocate a closure per
	// layer per request.
	acts   []func(float32) float32
	reqBuf []byte // client request frame scratch
	outBuf []byte // client reply frame scratch
}

// newWireInferSession validates the session geometry, performs the one-off
// full-duplex F exchange with the peer, and preallocates the request-loop
// buffers.
func newWireInferSession(party int, peer comm.Framer, layers []InferLayer, cfg WireConfig) (*wireInferSession, error) {
	batch, err := validateInferLayers(layers)
	if err != nil {
		return nil, err
	}
	s := &wireInferSession{
		party:  party,
		layers: layers,
		fPub:   make([]*tensor.Matrix, len(layers)),
		ys:     make([]*tensor.Matrix, len(layers)),
		masks:  make([]*tensor.Matrix, len(layers)),
		peerYs: make([]*tensor.Matrix, len(layers)),
	}

	// One concurrent frame each way carries every layer's F share; after
	// this, F never touches the wire again for the session's lifetime.
	fis := make([]*tensor.Matrix, len(layers))
	size := 0
	for i, l := range layers {
		fi := tensor.New(l.W.Rows, l.W.Cols)
		tensor.Sub(fi, l.W, l.T.V)
		fis[i] = fi
		size += tensor.EncodedSize(fi)
	}
	frame := make([]byte, 0, size)
	for _, fi := range fis {
		frame = tensor.EncodeMatrix(frame, fi)
	}
	sendErr := make(chan error, 1)
	go func() { sendErr <- peer.WriteFrame(frame) }()
	peerFrame, err := peer.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("mpc: session F exchange: %w", err)
	}
	off := 0
	for i, fi := range fis {
		peerFi := tensor.New(fi.Rows, fi.Cols)
		n, err := tensor.DecodeMatrixInto(peerFi, peerFrame[off:])
		if err != nil {
			return nil, fmt.Errorf("mpc: session F exchange, layer %d: %w", i, err)
		}
		off += n
		s.fPub[i] = tensor.AddTo(fi, peerFi)
	}
	if off != len(peerFrame) {
		return nil, fmt.Errorf("mpc: session F exchange: %d trailing bytes", len(peerFrame)-off)
	}
	if err := <-sendErr; err != nil {
		return nil, fmt.Errorf("mpc: session F exchange: %w", err)
	}

	s.x = tensor.New(batch, layers[0].W.Rows)
	s.acts = make([]func(float32) float32, len(layers))
	for i, l := range layers {
		s.ys[i] = tensor.New(batch, l.W.Cols)
		if l.HasAct {
			s.acts[i] = l.Act.Apply
		}
		if l.HasAct && party == 0 {
			s.masks[i] = tensor.New(batch, l.W.Cols)
			s.peerYs[i] = tensor.New(batch, l.W.Cols)
		}
	}
	// Created last so the earlier error returns never leak its sender
	// goroutine; the caller owns s.close() from here.
	s.w = newWireMul(party, cfg)
	return s, nil
}

// close releases the session's sender goroutine.
func (s *wireInferSession) close() { s.w.close() }

// serveRequest runs one input batch through the session: banded layer
// multiplications against the cached F, bias, and the concurrent
// activation re-share, all into session-owned buffers.
func (s *wireInferSession) serveRequest(client, peer comm.Framer, masks MaskFiller) error {
	frame, err := readFrameInto(client, s.reqBuf)
	if err != nil {
		return err // EOF-family: session over (caller classifies)
	}
	span := metrics.reqInferWire.Start()
	metrics.requests.Inc()
	s.reqBuf = frame
	if _, err := tensor.DecodeMatrixInto(s.x, frame); err != nil {
		metrics.requestErrors.Inc()
		return fmt.Errorf("mpc: request input: %w", err)
	}
	x := s.x
	for i := range s.layers {
		l := &s.layers[i]
		y := s.ys[i]
		if _, err := s.w.mul(peer, x, l.W, l.T, s.fPub[i], y); err != nil {
			metrics.requestErrors.Inc()
			return fmt.Errorf("mpc: layer %d: %w", i, err)
		}
		// Bias: share-local row broadcast.
		for r := 0; r < y.Rows; r++ {
			row := y.Row(r)
			for c := range row {
				row[c] += l.B.Data[c]
			}
		}
		if l.HasAct {
			if s.party == 0 {
				r := s.masks[i]
				masks.FillUniform(r, -ShareRange, ShareRange)
				// R goes out while party 1's share streams in.
				if err := s.w.swap(peer, r, s.peerYs[i]); err != nil {
					metrics.requestErrors.Inc()
					return fmt.Errorf("mpc: layer %d activation: %w", i, err)
				}
				// share := f(y0 + y1) − R, reconstructed in the reference
				// protocol's order so predictions match it bit for bit.
				reconT0 := time.Now()
				tensor.Add(y, y, s.peerYs[i])
				tensor.Apply(y, y, s.acts[i])
				tensor.Sub(y, y, r)
				metrics.phaseReconstruct.ObserveSince(reconT0)
			} else {
				// Ship y1; the replacement share is party 0's mask R,
				// arriving concurrently (swap decodes it into y only after
				// y's bytes are on the wire).
				if err := s.w.swap(peer, y, y); err != nil {
					metrics.requestErrors.Inc()
					return fmt.Errorf("mpc: layer %d activation: %w", i, err)
				}
			}
		}
		x = y
	}
	s.outBuf = tensor.EncodeMatrix(s.outBuf[:0], x)
	if err := client.WriteFrame(s.outBuf); err != nil {
		metrics.requestErrors.Inc()
		return err
	}
	span.Stop()
	return nil
}

// ServeInferenceWire handles one inference session on the client
// connection: read the session frame, then answer input-share requests
// until the client disconnects — session-cached F, banded E streams
// overlapping the layer GEMMs, concurrent activation frames, and pooled /
// preallocated buffers throughout the request loop. masks is party 0's
// re-sharing mask source (party 1's value is unused).
func ServeInferenceWire(party int, client, peer comm.Framer, masks MaskFiller, cfg WireConfig) error {
	setup, err := client.ReadFrame()
	if err != nil {
		return err
	}
	layers, err := DecodeInferSession(setup)
	if err != nil {
		return err
	}
	s, err := newWireInferSession(party, peer, layers, cfg)
	if err != nil {
		return err
	}
	defer s.close()
	for {
		if err := s.serveRequest(client, peer, masks); err != nil {
			return err
		}
	}
}
