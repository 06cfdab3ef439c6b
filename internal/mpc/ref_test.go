package mpc

import (
	"fmt"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Reference oracles: the straight-line protocols the engine is held
// bit-identical to. They are what the program ran before the one exchange
// engine (remote.go's RemoteParty body, infer_service.go's ServeInference)
// and stay here, verbatim in their arithmetic, as references — not paths.

// remotePartyRef is Eqs. 4, 5, 8 in order, whole matrices, one [E ‖ F]
// frame each way in a fixed send-then-receive order.
func remotePartyRef(party int, conn comm.Framer, in Shares) (*tensor.Matrix, error) {
	// Local E_i = A_i − U_i, F_i = B_i − V_i (Eq. 4).
	ei := tensor.SubTo(in.A, in.T.U)
	fi := tensor.SubTo(in.B, in.T.V)

	// Exchange. Party 0 sends first, then receives; party 1 mirrors —
	// a deadlock-free fixed order on one duplex connection.
	frame := make([]byte, 0, tensor.EncodedSize(ei)+tensor.EncodedSize(fi))
	frame = tensor.EncodeMatrix(frame, ei)
	frame = tensor.EncodeMatrix(frame, fi)
	peerFrame, err := refSwap(party, conn, frame)
	if err != nil {
		return nil, fmt.Errorf("mpc: ref E/F: %w", err)
	}
	peerE, n, err := tensor.DecodeMatrix(peerFrame)
	if err != nil {
		return nil, fmt.Errorf("mpc: decode peer E: %w", err)
	}
	peerF, _, err := tensor.DecodeMatrix(peerFrame[n:])
	if err != nil {
		return nil, fmt.Errorf("mpc: decode peer F: %w", err)
	}

	// Reconstruct the public masks (Eq. 5).
	e := tensor.AddTo(ei, peerE)
	f := tensor.AddTo(fi, peerF)

	// C_i = ((−i)·E + A_i)×F + E×B_i + Z_i (Eq. 8).
	d := in.A.Clone()
	if party == 1 {
		tensor.AXPY(d, -1, e)
	}
	c := tensor.MulTo(d, f)
	eb := tensor.MulTo(e, in.B)
	tensor.Add(c, c, eb)
	tensor.Add(c, c, in.T.Z)
	return c, nil
}

// refSwap is the references' fixed-order frame exchange.
func refSwap(party int, conn comm.Framer, frame []byte) ([]byte, error) {
	if party == 0 {
		if err := conn.WriteFrame(frame); err != nil {
			return nil, err
		}
		return conn.ReadFrame()
	}
	peerFrame, err := conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	return peerFrame, conn.WriteFrame(frame)
}

// remoteActivationRef runs the reveal-based activation in three dependent
// frames: exchange pre-activation shares (fixed order), evaluate f on the
// reconstruction, re-share with party 0's mask.
func remoteActivationRef(party int, peer comm.Framer, kind ActivationKind, yi, mask *tensor.Matrix) (*tensor.Matrix, error) {
	peerFrame, err := refSwap(party, peer, tensor.EncodeMatrix(nil, yi))
	if err != nil {
		return nil, err
	}
	peerY, _, err := tensor.DecodeMatrix(peerFrame)
	if err != nil {
		return nil, err
	}
	y := tensor.AddTo(yi, peerY)
	fy := tensor.New(y.Rows, y.Cols)
	tensor.Apply(fy, y, kind.Apply)
	if party == 0 {
		// share = f(y) − R; ship R to party 1.
		return tensor.SubTo(fy, mask), peer.WriteFrame(tensor.EncodeMatrix(nil, mask))
	}
	rFrame, err := peer.ReadFrame()
	if err != nil {
		return nil, err
	}
	r, _, err := tensor.DecodeMatrix(rFrame)
	return r, err
}

// serveInferenceRef handles one inference session like ServeInferenceWire,
// layer by layer on the references above. maskPool derives party 0's
// activation re-sharing masks (party 1's value is unused).
func serveInferenceRef(party int, client, peer comm.Framer, maskPool interface {
	NewUniform(rows, cols int, lo, hi float32) *tensor.Matrix
}) error {
	setup, err := client.ReadFrame()
	if err != nil {
		return err
	}
	layers, err := DecodeInferSession(setup)
	if err != nil {
		return err
	}
	for {
		req, err := client.ReadFrame()
		if err != nil {
			return err // EOF-family: session over (caller classifies)
		}
		x, _, err := tensor.DecodeMatrix(req)
		if err != nil {
			return err
		}
		for _, l := range layers {
			y, err := remotePartyRef(party, peer, Shares{A: x, B: l.W, T: l.T})
			if err != nil {
				return err
			}
			// Bias: share-local row broadcast.
			for r := 0; r < y.Rows; r++ {
				row := y.Row(r)
				for c := range row {
					row[c] += l.B.Data[c]
				}
			}
			if l.HasAct {
				var mask *tensor.Matrix
				if party == 0 {
					mask = maskPool.NewUniform(y.Rows, y.Cols, -ShareRange, ShareRange)
				}
				if y, err = remoteActivationRef(party, peer, l.Act, y, mask); err != nil {
					return err
				}
			}
			x = y
		}
		if err := client.WriteFrame(tensor.EncodeMatrix(nil, x)); err != nil {
			return err
		}
	}
}
