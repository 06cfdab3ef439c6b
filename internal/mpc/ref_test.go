package mpc

import (
	"fmt"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Reference oracle: the straight-line protocol the engine is held
// bit-identical to. It is what the program ran before the one exchange
// engine (remote.go's RemoteParty body) and stays here, verbatim in its
// arithmetic, as a reference — not a path.

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

// refSwap is the reference's fixed-order frame exchange.
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
