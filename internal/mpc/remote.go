package mpc

import (
	"fmt"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Remote execution: the Beaver protocol run between two genuinely
// concurrent parties over a framed byte transport (TCP or an in-memory
// pipe) — each party sees only its shares and the masked E/F frames, and
// the client recovers the exact product. The paper's MPI layer plays this
// role (§6); stdlib net is the closest substitute. (internal/mpcsim models
// the paper's cluster timing instead.)

// RemoteParty executes party i of one triplet multiplication C = A×B over
// conn, which must be connected to the other party running the same
// function with the complementary index. Blocking (bounded by conn's
// deadlines, if any); returns this party's share C_i. conn is any framed
// transport — a raw comm.Conn or a mux session.
//
// It is RemotePartyPipelined with a zero WireConfig — one whole-matrix
// frame each way — and exists beside it only because benchmark/ladder.go
// calls both names.
func RemoteParty(party int, conn comm.Framer, in Shares) (*tensor.Matrix, error) {
	return RemotePartyPipelined(party, conn, in, WireConfig{})
}

// RemotePartyPipelined is the one-shot form of the exchange engine (see
// wire_pipeline.go): it starts an engine, runs party i of one
// multiplication with this party's E stream in bands of cfg.ChunkRows,
// and retires it. Serving loops keep one engine per session instead; the
// one-shot wrappers stay for benchmark/ladder.go and the tests.
func RemotePartyPipelined(party int, conn comm.Framer, in Shares, cfg WireConfig) (*tensor.Matrix, error) {
	if party != 0 && party != 1 {
		return nil, fmt.Errorf("mpc: remote party index %d", party)
	}
	w := newWireMul(party, cfg)
	defer w.close()
	// The result leaves the pool with the caller.
	return w.run(conn, in, nil)
}

// RemoteClientSplit prepares both parties' inputs for one remote
// multiplication: shares of A and B plus a Beaver triplet, exactly the
// client's offline role. rp drives all randomness.
func RemoteClientSplit(a, b *tensor.Matrix, rp *rng.Pool) (in0, in1 Shares) {
	a0, a1 := SplitRand(rp, a)
	b0, b1 := SplitRand(rp, b)
	t0, t1 := GenGemmTripletShares(rp, a.Rows, a.Cols, b.Cols)
	return Shares{A: a0, B: b0, T: t0}, Shares{A: a1, B: b1, T: t1}
}

// RemoteCombine merges the parties' result shares (the client's final
// step).
func RemoteCombine(c0, c1 *tensor.Matrix) *tensor.Matrix {
	return tensor.AddTo(c0, c1)
}
