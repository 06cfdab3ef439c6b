package fleet

import (
	"encoding/binary"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Registered operands through the fleet (mpc.Shares.Operand): the router
// relays by the id in a frame's first 8 bytes and reads no more of the header
// behind it than its budget and the floor it prices — and a session it moves
// to another replica finds no operand there, which the client rides out.

// threeForm is the request against handle h that carries in's A, U and Z.
func threeForm(in mpc.Shares, h uint32) mpc.Shares {
	return mpc.Shares{A: in.A, T: mpc.TripletShares{U: in.T.U, Z: in.T.Z}, Members: in.Members, Operand: h}
}

// derivedShares deals the c row-stacked products a×b in the derived form
// (mpc.Shares.Derived) from outside mpc, as any client can: party 0's half is
// its seed, party 1's ships A₁, [B₁], Z₁. v non-nil deals the three-matrix
// form against the V stack b was registered with; the V stack is returned.
func derivedShares(seed uint64, a, b, v *tensor.Matrix, c int) (in0, in1 mpc.Shares, vOut *tensor.Matrix) {
	d0 := mpc.DerivedHalf{Rows: a.Rows, K: a.Cols, N: b.Cols, Kept: v != nil}
	binary.LittleEndian.PutUint64(d0.Seed[:], seed)
	d1 := d0
	binary.LittleEndian.PutUint64(d1.Seed[8:], ^seed)
	h0, h1 := mpc.DeriveHalf(d0, 0, 0, c, true), mpc.DeriveHalf(d1, 0, 1, c, true)
	u := tensor.AddTo(h0.T.U, h1.T.U)
	if v == nil {
		v = tensor.AddTo(h0.T.V, h1.T.V)
	}
	z1 := tensor.New(a.Rows, b.Cols)
	m, k := a.Rows/c, a.Cols
	for j := 0; j < c; j++ {
		tensor.Mul(z1.SliceRows(j*m, (j+1)*m), u.SliceRows(j*m, (j+1)*m), v.SliceRows(j*k, (j+1)*k))
	}
	tensor.Sub(z1, z1, h0.T.Z)
	in0 = mpc.Shares{Members: c, Derived: &d0}
	in1 = mpc.Shares{Members: c, Derived: &d1, A: tensor.SubTo(a, h0.A), T: mpc.TripletShares{Z: z1}}
	if !d0.Kept {
		in1.B = tensor.SubTo(b, h0.B)
	}
	return in0, in1, v
}

// TestRouterRelaysOperandRequest: both operand forms are one frame in and
// one frame out like any other, so the relay carries them untouched — each
// reply bit-identical to the same shares sent straight to the pair. Under a
// budget the router prices both forms off the header, the three-matrix one at
// its E stack (n = 0), and relays both with time to spare.
func TestRouterRelaysOperandRequest(t *testing.T) {
	reg := NewRegistry(0)
	addr, kill := startReplicaPair(t)
	defer kill()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	d0, d1 := dialFaces(t, addr)
	defer d0.Close()
	defer d1.Close()
	p := rng.NewPool(8)

	id := uint64(0x0b << 32)
	for i, c := range []int{1, 3} {
		in0, in1, want := groupedShares(p, c, 5, 6, 4)
		h := uint32(i + 1)
		in0.Operand, in1.Operand = h, h
		// Registering, then the same A, U, Z against what the session kept.
		for form, in := range [][2]mpc.Shares{{in0, in1}, {threeForm(in0, h), threeForm(in1, h)}} {
			id += 2
			got, err := mpc.RequestMulID(id, c0, c1, in[0], in[1])
			if err != nil {
				t.Fatalf("group of %d, form %d: %v", c, form, err)
			}
			direct, err := mpc.RequestMulID(id+1, d0, d1, in[0], in[1])
			if err != nil || !got.Equal(direct) {
				t.Fatalf("group of %d, form %d: relayed reply differs from the direct one (%v)", c, form, err)
			}
			for j, w := range want {
				if member := got.SliceRows(j*5, (j+1)*5); !member.ApproxEqual(w, 1e-3) {
					t.Fatalf("group of %d, form %d, member %d off by %v", c, form, j, member.MaxAbsDiff(w))
				}
			}
		}
		// Under a budget the router floors both forms; both are relayed and
		// answered.
		if got, want := mpc.PeekFloor(mpc.EncodeRequestBudget(id, time.Second, in0)), mpc.DeadlineEstimate(5*c, 6, 4*c); got != want {
			t.Fatalf("group of %d: the relay prices the registering frame at %v, want (5,6,4)×%d's %v", c, got, c, want)
		}
		three := [2]mpc.Shares{threeForm(in0, h), threeForm(in1, h)}
		if got, want := mpc.PeekFloor(mpc.EncodeRequestBudget(id, time.Second, three[0])), mpc.DeadlineEstimate(5*c, 6, 0); got != want {
			t.Fatalf("group of %d: the relay prices a three-matrix frame at %v, want (5,6,0)×%d's %v", c, got, c, want)
		}
		shed := routerDeadlineShed.Value()
		got, err := mpc.RequestMulRetry(c0, c1, three[0], three[1], mpc.RetryConfig{Attempts: 1, Budget: 5 * time.Second})
		if err != nil || !got.SliceRows(0, 5).ApproxEqual(want[0], 1e-3) {
			t.Fatalf("group of %d: budgeted three-matrix request: %v", c, err)
		}
		if routerDeadlineShed.Value() != shed {
			t.Fatalf("group of %d: the relay shed a three-matrix frame with 5 s to spare", c)
		}
		// The derived form of both: party 0's frame is its header and nothing
		// else, and crosses the relay like any other. Its geometry is in the
		// header, so under a budget both faces floor one request alike — the
		// three-matrix form at the E stack's price, as the materialised form
		// above.
		a, b := p.NewUniform(c*5, 6, -1, 1), p.NewUniform(c*6, 4, -1, 1)
		reg0, reg1, v := derivedShares(id, a, b, nil, c)
		kept0, kept1, _ := derivedShares(id+1, a, b, v, c)
		for _, in := range []*mpc.Shares{&reg0, &reg1, &kept0, &kept1} {
			in.Operand = h + 8
		}
		for form, in := range [][2]mpc.Shares{{reg0, reg1}, {kept0, kept1}} {
			id += 2
			got, err := mpc.RequestMulID(id, c0, c1, in[0], in[1])
			if err != nil {
				t.Fatalf("group of %d, derived form %d: %v", c, form, err)
			}
			direct, err := mpc.RequestMulID(id+1, d0, d1, in[0], in[1])
			if err != nil || !got.Equal(direct) {
				t.Fatalf("group of %d, derived form %d: relayed reply differs from the direct one (%v)", c, form, err)
			}
			for j := 0; j < c; j++ {
				if member, w := got.SliceRows(j*5, (j+1)*5), tensor.MulNaive(a.SliceRows(j*5, (j+1)*5), b.SliceRows(j*6, (j+1)*6)); !member.ApproxEqual(w, 1e-2) {
					t.Fatalf("group of %d, derived form %d, member %d off by %v", c, form, j, member.MaxAbsDiff(w))
				}
			}
			for face, half := range in {
				if got, want := mpc.PeekFloor(mpc.EncodeRequestBudget(id, time.Second, half)), mpc.DeadlineEstimate(5*c, 6, 4*(1-form)*c); got != want {
					t.Fatalf("group of %d, derived form %d: face %d is priced at %v, want (5,6,%d)×%d's %v", c, form, face, got, 4*(1-form), c, want)
				}
			}
		}
		shed = routerDeadlineShed.Value()
		if got, err = mpc.RequestMulRetry(c0, c1, kept0, kept1, mpc.RetryConfig{Attempts: 1, Budget: 5 * time.Second}); err != nil {
			t.Fatalf("group of %d: budgeted derived three-matrix request: %v", c, err)
		}
		if routerDeadlineShed.Value() != shed {
			t.Fatalf("group of %d: the relay shed a derived three-matrix frame with 5 s to spare", c)
		}
	}
}

func transformerFixture(seed uint64) (*ml.TransformerBlock, *tensor.Matrix) {
	r := rng.NewRand(seed)
	blk := ml.NewTransformerBlock(32, 4, 48, ml.ReLU, true, r)
	x := tensor.New(16, 32)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	return blk, x
}

// wireTransformerTol is mpc's raw-path secure-vs-plaintext tolerance at
// this geometry (DESIGN.md "Softmax approximation contract").
const wireTransformerTol = 0.02

// TestRouterShedsKeptFormUnderItsFloor: a three-matrix request carries its
// geometry in its header, so a budget under its E stack's exchange floor is
// shed at the router like any other request's — counted on
// psml_deadline_shed_total and never dialed to a backend — instead of being
// relayed with a floor of 0 for the pair to refuse.
func TestRouterShedsKeptFormUnderItsFloor(t *testing.T) {
	addr0, hits0, stop0 := countingListener(t)
	defer stop0()
	addr1, hits1, stop1 := countingListener(t)
	defer stop1()
	reg := NewRegistry(0)
	if err := reg.Join(Replica{Name: "pair-a", Addr: [2]string{addr0, addr1}}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()

	// Four 256×1024 members against a kept 1024×4 operand: no F moves, and
	// the 1024×1024 E stack alone costs more than twice the budget.
	const c, m, k, n = 4, 256, 1024, 4
	budget := 150 * time.Microsecond
	if floor := mpc.DeadlineEstimate(c*m, k, 0); floor < 2*budget {
		t.Fatalf("budget %v is not under half the E stack's floor %v", budget, floor)
	}
	three := mpc.Shares{Members: c, Operand: 1, A: tensor.New(c*m, k), T: mpc.TripletShares{U: tensor.New(c*m, k), Z: tensor.New(c*m, n)}}
	frame := mpc.EncodeRequestBudget(21, budget, three)
	if got := mpc.PeekFloor(frame); got != mpc.DeadlineEstimate(c*m, k, 0) {
		t.Fatalf("the relay prices the three-matrix frame at %v, want its E stack's %v", got, mpc.DeadlineEstimate(c*m, k, 0))
	}
	before := routerDeadlineShed.Value()
	for leg, conn := range []*comm.Conn{c0, c1} {
		if err := conn.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if id, re, ok := mpc.DecodeRouteError(reply); !ok || id != 21 || re.Code != mpc.RouteDeadlineExceeded {
			t.Fatalf("leg %d: a three-matrix request under its floor got %d bytes back, want %s", leg, len(reply), mpc.RouteDeadlineExceeded)
		}
	}
	if got := routerDeadlineShed.Value() - before; got != 2 {
		t.Fatalf("deadline sheds counted %d, want 2", got)
	}
	if h0, h1 := hits0.Load(), hits1.Load(); h0 != 0 || h1 != 0 {
		t.Fatalf("the shed request reached a backend (dials: %d, %d), want none", h0, h1)
	}
}
