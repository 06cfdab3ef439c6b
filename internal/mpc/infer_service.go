package mpc

import (
	"encoding/binary"
	"fmt"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Wire inference service: a model owner splits an MLP's weights to two
// psml-server-style parties once; afterwards any number of input batches
// flow through as shares and come back as prediction shares. Layers are
// evaluated with the Beaver protocol between the two parties; activations
// use the reveal-and-reshare protocol over the same peer link. This is
// the cloud-inference scenario of Fig. 1b made concrete end to end.
//
// Session wire format (client -> server i):
//
//	frame 0: u32 layerCount, then per layer: u32 actKind,
//	         W_i, B_i, U_i, V_i, Z_i (tensor codec)
//	frame 1..: one input-share matrix per request; server replies with one
//	         prediction-share matrix. Client closing ends the session.
//
// The per-layer triplet (U_i, V_i, Z_i) is sized for the session's fixed
// batch geometry and reused across requests, matching the framework's
// site semantics.

// InferLayer is one dense layer's per-party session material.
type InferLayer struct {
	Act    ActivationKind
	HasAct bool
	W, B   *tensor.Matrix
	T      TripletShares
}

// EncodeInferSession serializes the session-setup frame for one party.
func EncodeInferSession(layers []InferLayer) []byte {
	size := 4
	for _, l := range layers {
		size += 4 + tensor.EncodedSize(l.W) + tensor.EncodedSize(l.B) +
			tensor.EncodedSize(l.T.U) + tensor.EncodedSize(l.T.V) + tensor.EncodedSize(l.T.Z)
	}
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(layers)))
	for _, l := range layers {
		act := uint32(l.Act)
		if !l.HasAct {
			act = 0xffffffff
		}
		frame = binary.LittleEndian.AppendUint32(frame, act)
		frame = tensor.EncodeMatrix(frame, l.W)
		frame = tensor.EncodeMatrix(frame, l.B)
		frame = tensor.EncodeMatrix(frame, l.T.U)
		frame = tensor.EncodeMatrix(frame, l.T.V)
		frame = tensor.EncodeMatrix(frame, l.T.Z)
	}
	return frame
}

// DecodeInferSession parses a session-setup frame.
func DecodeInferSession(frame []byte) ([]InferLayer, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("mpc: session frame too short")
	}
	count := int(binary.LittleEndian.Uint32(frame))
	if count < 1 || count > 1024 {
		return nil, fmt.Errorf("mpc: session layer count %d", count)
	}
	off := 4
	layers := make([]InferLayer, count)
	for i := range layers {
		if len(frame) < off+4 {
			return nil, fmt.Errorf("mpc: session frame truncated at layer %d", i)
		}
		act := binary.LittleEndian.Uint32(frame[off:])
		off += 4
		layers[i].HasAct = act != 0xffffffff
		if layers[i].HasAct {
			layers[i].Act = ActivationKind(act)
		}
		mats := make([]*tensor.Matrix, 5)
		for j := range mats {
			m, n, err := tensor.DecodeMatrix(frame[off:])
			if err != nil {
				return nil, fmt.Errorf("mpc: session layer %d matrix %d: %w", i, j, err)
			}
			mats[j] = m
			off += n
		}
		layers[i].W, layers[i].B = mats[0], mats[1]
		layers[i].T = TripletShares{U: mats[2], V: mats[3], Z: mats[4]}
	}
	if off != len(frame) {
		return nil, fmt.Errorf("mpc: session frame has trailing bytes")
	}
	return layers, nil
}

// BuildInferSession prepares both parties' session material from a
// plaintext MLP described as (W, B, act) dense layers, for a fixed batch
// size. The client-side counterpart of ServeInferenceWire.
func BuildInferSession(c *Client, batch int, weights []*tensor.Matrix, biases []*tensor.Matrix,
	acts []ActivationKind, hasActs []bool) (p0, p1 []InferLayer) {

	p0 = make([]InferLayer, len(weights))
	p1 = make([]InferLayer, len(weights))
	for i, w := range weights {
		w0, w1, _ := c.Split(w)
		b0, b1, _ := c.Split(biases[i])
		t0, t1, _ := c.GenGemmTriplet(batch, w.Rows, w.Cols, false)
		p0[i] = InferLayer{Act: acts[i], HasAct: hasActs[i], W: w0, B: b0, T: t0}
		p1[i] = InferLayer{Act: acts[i], HasAct: hasActs[i], W: w1, B: b1, T: t1}
	}
	return p0, p1
}

// RequestInference sends one input's shares to both serving parties and
// merges the returned prediction shares.
func RequestInference(s0, s1 *comm.Conn, x0, x1 *tensor.Matrix) (*tensor.Matrix, error) {
	if err := s0.WriteFrame(tensor.EncodeMatrix(make([]byte, 0, tensor.EncodedSize(x0)), x0)); err != nil {
		return nil, err
	}
	if err := s1.WriteFrame(tensor.EncodeMatrix(make([]byte, 0, tensor.EncodedSize(x1)), x1)); err != nil {
		return nil, err
	}
	f0, err := s0.ReadFrame()
	if err != nil {
		return nil, err
	}
	f1, err := s1.ReadFrame()
	if err != nil {
		return nil, err
	}
	p0, _, err := tensor.DecodeMatrix(f0)
	if err != nil {
		return nil, err
	}
	p1, _, err := tensor.DecodeMatrix(f1)
	if err != nil {
		return nil, err
	}
	return tensor.AddTo(p0, p1), nil
}
