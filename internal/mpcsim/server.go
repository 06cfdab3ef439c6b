package mpcsim

import (
	"fmt"

	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

// Server is one of the two computation parties. Both servers of a
// deployment are simulated in one process and driven deterministically by
// an orchestrator; the links between them are metered simtime resources
// carrying real encoded frames.
type Server struct {
	*Node
	Party int // 0 or 1

	out  *Link // this server -> peer
	peer *Server

	// Per-stream compressed channels (§4.4). Streams are keyed so each
	// (layer, operand) pair tracks its own epoch-over-epoch delta.
	senders   map[string]*DeltaSender
	receivers map[string]*DeltaReceiver

	// Compress toggles the §4.4 compressed transmission (Fig. 16).
	Compress bool
	// PipelineTransfers toggles the Fig. 5 H2D/compute overlap.
	PipelineTransfers bool
	// DrySparsity is the assumed E/F delta sparsity for dry-run scheduling
	// (tensor compute off); see DeltaSender.DrySparsity.
	DrySparsity float64
}

// NewServerPair creates two wired servers on eng. withGPU attaches one
// simulated V100 per server (the paper's platform).
func NewServerPair(n0, n1 *Node) (*Server, *Server) {
	s0 := &Server{
		Node:      n0,
		Party:     0,
		senders:   make(map[string]*DeltaSender),
		receivers: make(map[string]*DeltaReceiver),
		Compress:  true, PipelineTransfers: true,
	}
	s1 := &Server{
		Node:      n1,
		Party:     1,
		senders:   make(map[string]*DeltaSender),
		receivers: make(map[string]*DeltaReceiver),
		Compress:  true, PipelineTransfers: true,
	}
	s0.out = NewLink("net."+n0.Name+"->"+n1.Name, n0.Platform.Net, n0.Eng)
	s1.out = NewLink("net."+n1.Name+"->"+n0.Name, n1.Platform.Net, n1.Eng)
	s0.peer, s1.peer = s1, s0
	return s0, s1
}

// Link returns this server's outgoing link (for traffic accounting).
func (s *Server) Link() *Link { return s.out }

func (s *Server) sender(stream string) *DeltaSender {
	ds, ok := s.senders[stream]
	if !ok {
		ds = NewDeltaSender(s.out)
		s.senders[stream] = ds
	}
	ds.Enabled = s.Compress
	ds.DrySparsity = s.DrySparsity
	return ds
}

func (s *Server) receiver(stream string) *DeltaReceiver {
	dr, ok := s.receivers[stream]
	if !ok {
		dr = &DeltaReceiver{}
		s.receivers[stream] = dr
	}
	return dr
}

// ResetStreams rebases every compressed delta stream: each sender's next
// Send ships a dense base frame and each receiver discards its
// accumulated state. Delta values are fp32-history-dependent, so this is
// the bit-determinism barrier a checkpoint needs — a restored run and
// the run that wrote the checkpoint diverge unless both rebase here.
func (s *Server) ResetStreams() {
	for _, ds := range s.senders {
		ds.Reset()
	}
	for _, dr := range s.receivers {
		dr.Reset()
	}
}

// sendShare transmits a masked share to the peer over the stream's
// compressed channel; the peer decodes immediately (deterministic
// simulation). Returns the reconstructed-by-peer matrix and the arrival
// task.
func (s *Server) sendShare(stream string, m *tensor.Matrix, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	frame, task, _ := s.sender(stream).Send(m, deps...)
	if frame == nil { // dry run: transfer charged, values not materialized
		return tensor.New(m.Rows, m.Cols), task
	}
	got, err := s.peer.receiver(stream).Receive(frame)
	if err != nil {
		panic(fmt.Sprintf("mpc: peer decode on stream %s: %v", stream, err))
	}
	return got, task
}

// EF is the reconstructed public pair E = A−U, F = B−V one server holds
// after the reconstruct phase, with the task that produced it.
type EF struct {
	E, F *tensor.Matrix
	Done *simtime.Task
}

// reconstructHalf reconstructs one public mask (E = X−U across both
// parties) from per-party shares x_i and mask shares u_i: local subtract
// (Eq. 4), compressed exchange, local sum (Eq. 5). Returns the public
// value as held by each server plus per-server completion tasks.
func reconstructHalf(stream string, s0, s1 *Server, x0, u0, x1, u1 *tensor.Matrix,
	dep0, dep1 *simtime.Task) (at0, at1 *tensor.Matrix, t0, t1 *simtime.Task) {

	h0 := tensor.SubTo(x0, u0)
	h1 := tensor.SubTo(x1, u1)
	c0 := s0.ElemTask("reconstruct.local", 3*h0.Bytes(), dep0)
	c1 := s1.ElemTask("reconstruct.local", 3*h1.Bytes(), dep1)

	h0atPeer, tx0 := s0.sendShare(stream, h0, c0)
	h1atPeer, tx1 := s1.sendShare(stream, h1, c1)

	at0 = tensor.AddTo(h0, h1atPeer)
	at1 = tensor.AddTo(h1, h0atPeer)
	t0 = s0.ElemTask("reconstruct.sum", 3*at0.Bytes(), c0, tx1)
	t1 = s1.ElemTask("reconstruct.sum", 3*at1.Bytes(), c1, tx0)
	return at0, at1, t0, t1
}

// ReconstructEF runs the paper's "reconstruct" step for one triplet
// multiplication on both servers: each computes E_i = A_i−U_i and
// F_i = B_i−V_i on its CPU (Eq. 4), ships them to the peer over the
// compressed channels (Eq. 5 exchange), and sums to the public E and F.
// stream names the multiplication so epoch-over-epoch deltas compress.
//
// The E and F halves carry independent dependencies (depA vs depB): this
// is the hook for the paper's second pipeline (Fig. 6) — in the backward
// pass F (from the weights) is reconstructible as soon as the forward
// pass ends, while E (from the incoming delta) must wait for the deeper
// layer's GPU operation. Callers wanting the serial (non-pipelined)
// schedule pass the same joined dependency for both halves.
func ReconstructEF(stream string, s0, s1 *Server, in0, in1 mpc.Shares,
	depA0, depB0, depA1, depB1 *simtime.Task) (EF, EF) {

	e0, e1, te0, te1 := reconstructHalf(stream+".E", s0, s1, in0.A, in0.T.U, in1.A, in1.T.U, depA0, depA1)
	f0, f1, tf0, tf1 := reconstructHalf(stream+".F", s0, s1, in0.B, in0.T.V, in1.B, in1.T.V, depB0, depB1)

	return EF{E: e0, F: f0, Done: s0.Eng.After(te0, tf0)},
		EF{E: e1, F: f1, Done: s1.Eng.After(te1, tf1)}
}

// Reveal jointly reconstructs a shared value on both servers (one
// exchange + local sum). Used where the protocol deliberately publishes a
// quantity — activation inputs, SVM margins — mirroring the released
// implementation (DESIGN.md documents the leak).
func Reveal(stream string, s0, s1 *Server, x0, x1 *tensor.Matrix, dep0, dep1 *simtime.Task) (*tensor.Matrix, *simtime.Task, *simtime.Task) {
	x0atPeer, tx0 := s0.sendShare(stream, x0, dep0)
	x1atPeer, tx1 := s1.sendShare(stream, x1, dep1)
	pub := tensor.AddTo(x0, x1atPeer)
	pubAt1 := tensor.AddTo(x1, x0atPeer)
	t0 := s0.ElemTask("reveal.sum", 3*pub.Bytes(), dep0, tx1)
	t1 := s1.ElemTask("reveal.sum", 3*pubAt1.Bytes(), dep1, tx0)
	_ = pubAt1 // identical to pub; both servers hold it
	return pub, t0, t1
}

// Reshare refreshes a shared value's randomness: server 0 draws a fresh
// mask R, keeps R as its new share, and sends x0−R to server 1, which
// folds it into its share. The reconstruction is unchanged and the message
// is uniform given R.
//
// In the float domain this is load-bearing for *training*: a Beaver
// multiplication's output shares have magnitude ~√k·(mask·operand) even
// when the product itself is small, and without refreshing they compound
// into the persistent weight shares epoch over epoch until FP32 overflows
// (the ring domain in internal/fixed wraps exactly and does not need
// this). The secure layers therefore reshare every multiplication output;
// the cost (mask generation + one transfer) is charged here.
func Reshare(stream string, s0, s1 *Server, mask *rng.Pool, x0, x1 *tensor.Matrix,
	dep0, dep1 *simtime.Task) (nx0, nx1 *tensor.Matrix, t0, t1 *simtime.Task) {

	r := mask.NewUniform(x0.Rows, x0.Cols, -mpc.ShareRange, mpc.ShareRange)
	diff := tensor.SubTo(x0, r)
	tGen := s0.RandTask("reshare.mask", x0.Rows*x0.Cols, dep0)
	tGen = s0.ElemTask("reshare.sub", 3*x0.Bytes(), tGen)

	var tSend *simtime.Task
	var diffAt1 *tensor.Matrix
	if tensor.ComputeEnabled() {
		frame := tensor.EncodeMatrix(nil, diff)
		tSend = s0.out.SendRaw(frame, tGen)
		var err error
		diffAt1, _, err = tensor.DecodeMatrix(frame)
		must(err)
	} else {
		tSend = s0.out.SendSized("reshare", tensor.EncodedSizeDense(x0.Rows, x0.Cols), tGen)
		diffAt1 = tensor.New(x0.Rows, x0.Cols)
	}
	nx1 = tensor.AddTo(x1, diffAt1)
	t1 = s1.ElemTask("reshare.add", 3*x1.Bytes(), dep1, tSend)
	return r, nx1, tGen, t1
}

// OnlineMulGPU executes the online GPU operation for this server's share
// of C = A×B in the fused Eq. (8) form:
//
//	C_i = [(−i)·E+A_i | E] × [F ; B_i] + Z_i
//	    = ((−i)·E+A_i)×F + E×B_i + Z_i
//
// i.e. one element-wise merge and two GEMMs. With PipelineTransfers the
// H2D copies of F, B_i and Z_i overlap earlier kernels (Fig. 5); without
// it every kernel waits for all transfers.
func (s *Server) OnlineMulGPU(ef EF, in mpc.Shares, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	if s.Dev == nil {
		panic("mpc: OnlineMulGPU on a CPU-only server")
	}
	if len(s.Devs) > 1 {
		return s.onlineMulMultiGPU(ef, in, deps...)
	}
	d := s.Dev
	// Working set: E, A, D (m×k each), F, B (k×n each), Z, C (m×n each).
	m, k, n := in.A.Rows, in.A.Cols, in.B.Cols
	need := int64(4 * (3*m*k + 2*k*n + 2*m*n))
	if d.MemUsed()+need > DefaultGPUMemBudget(d) {
		return s.onlineMulGPUChunked(ef, in, deps...)
	}
	pre := append([]*simtime.Task{ef.Done}, deps...)

	dE, tE, err := d.H2D(ef.E, pre...)
	must(err)
	dA, tA, err := d.H2D(in.A, pre...)
	must(err)
	dF, tF, err := d.H2D(ef.F, pre...)
	must(err)
	dB, tB, err := d.H2D(in.B, pre...)
	must(err)
	dZ, tZ, err := d.H2D(in.T.Z, pre...)
	must(err)

	// D = (−i)·E + A_i. For party 0 the scale is 0·E, i.e. D = A_i: the
	// kernel is still issued (the released code does the same) but is a
	// cheap element-wise pass either way.
	dD := d.MustAlloc(in.A.Rows, in.A.Cols)
	var tD *simtime.Task
	if s.Party == 1 {
		d.Scale(dD, dE, -1, tE)
		tD = d.AXPY(dD, 1, dA, tA)
	} else {
		tD = d.Scale(dD, dA, 1, tA) // (−0)·E + A_i = A_i (device copy)
	}

	var barrier *simtime.Task
	if !s.PipelineTransfers {
		// Serial mode: the first GEMM waits for every transfer.
		barrier = s.Eng.After(tE, tA, tF, tB, tZ)
	}

	dC := d.MustAlloc(in.A.Rows, in.B.Cols)
	g1 := d.Gemm(dC, dD, dF, tD, tF, barrier) // D×F
	g2 := d.GemmAcc(dC, dE, dB, g1, tB)       // += E×B_i
	g3 := d.AXPY(dC, 1, dZ, g2, tZ)           // += Z_i
	host, tOut := d.D2H(dC, g3)

	d.Free(dE)
	d.Free(dA)
	d.Free(dF)
	d.Free(dB)
	d.Free(dZ)
	d.Free(dD)
	d.Free(dC)
	return host, tOut
}

// OnlineMulCPU is the CPU fallback for the same computation — used by the
// adaptive engine for workloads too small to pay the PCIe tax, and by the
// SecureML baseline.
func (s *Server) OnlineMulCPU(ef EF, in mpc.Shares, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	m, k, n := in.A.Rows, in.A.Cols, in.B.Cols
	d := in.A.Clone()
	if s.Party == 1 {
		tensor.AXPY(d, -1, ef.E)
	}
	c := tensor.MulTo(d, ef.F)
	eb := tensor.MulTo(ef.E, in.B)
	tensor.Add(c, c, eb)
	tensor.Add(c, c, in.T.Z)

	pre := append([]*simtime.Task{ef.Done}, deps...)
	t := s.ElemTask("online.D", 3*d.Bytes(), pre...)
	t = s.GemmTask("online.DF", m, k, n, t)
	t = s.GemmTask("online.EBi", m, k, n, t)
	t = s.ElemTask("online.accZ", 3*3*c.Bytes(), t)
	return c, t
}

// OnlineHadamardGPU executes the element-wise (point-to-point) online
// operation used by the paper's CNN (§7.2): with ⊙ for Hadamard,
// C_i = (−i)·E⊙F + A_i⊙F + E⊙B_i + Z_i.
func (s *Server) OnlineHadamardGPU(ef EF, in mpc.Shares, deps ...*simtime.Task) (*tensor.Matrix, *simtime.Task) {
	if s.Dev == nil {
		panic("mpc: OnlineHadamardGPU on a CPU-only server")
	}
	d := s.Dev
	pre := append([]*simtime.Task{ef.Done}, deps...)

	dE, tE, err := d.H2D(ef.E, pre...)
	must(err)
	dA, tA, err := d.H2D(in.A, pre...)
	must(err)
	dF, tF, err := d.H2D(ef.F, pre...)
	must(err)
	dB, tB, err := d.H2D(in.B, pre...)
	must(err)
	dZ, tZ, err := d.H2D(in.T.Z, pre...)
	must(err)

	var barrier *simtime.Task
	if !s.PipelineTransfers {
		barrier = s.Eng.After(tE, tA, tF, tB, tZ)
	}

	dD := d.MustAlloc(in.A.Rows, in.A.Cols)
	var tD *simtime.Task
	if s.Party == 1 {
		d.Scale(dD, dE, -1, tE, barrier)
		tD = d.AXPY(dD, 1, dA, tA)
	} else {
		tD = d.Scale(dD, dA, 1, tA, barrier)
	}
	dC := d.MustAlloc(in.A.Rows, in.A.Cols)
	k1 := d.Hadamard(dC, dD, dF, tD, tF)
	dT := d.MustAlloc(in.A.Rows, in.A.Cols)
	k2 := d.Hadamard(dT, dE, dB, tB, k1)
	k3 := d.AXPY(dC, 1, dT, k2)
	k4 := d.AXPY(dC, 1, dZ, k3, tZ)
	host, tOut := d.D2H(dC, k4)

	d.Free(dE)
	d.Free(dA)
	d.Free(dF)
	d.Free(dB)
	d.Free(dZ)
	d.Free(dD)
	d.Free(dC)
	d.Free(dT)
	return host, tOut
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
