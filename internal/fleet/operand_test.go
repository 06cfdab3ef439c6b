package fleet

import (
	"encoding/binary"
	"testing"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Registered operands through the fleet (mpc.Shares.Operand): the router
// relays by the id in a frame's first 8 bytes and reads nothing of the header
// behind it — and a session it moves to another replica finds no operand
// there, which the client rides out.

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
// reply bit-identical to the same shares sent straight to the pair, and so is
// the derived form of both.
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
		// The derived form of both: party 0's frame is its header and nothing
		// else, and crosses the relay like any other.
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
