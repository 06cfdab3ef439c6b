package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// envelopeShares builds one party's worth of 5×6×4 request shares.
func envelopeShares(seed uint64) Shares {
	p := rng.NewPool(seed)
	a := p.NewUniform(5, 6, -1, 1)
	b := p.NewUniform(6, 4, -1, 1)
	a0, _ := SplitRand(p, a)
	b0, _ := SplitRand(p, b)
	t0, _ := GenGemmTripletShares(p, 5, 6, 4)
	return Shares{A: a0, B: b0, T: t0}
}

// envelopeGroup stacks three 5×6×4 products into one party's grouped
// request shares.
func envelopeGroup(seed uint64) Shares {
	p := rng.NewPool(seed)
	share := func(rows, cols int) *tensor.Matrix {
		s0, _ := SplitRand(p, p.NewUniform(rows, cols, -1, 1))
		return s0
	}
	return Shares{A: share(15, 6), B: share(18, 4), Members: 3,
		T: TripletShares{U: share(15, 6), V: share(18, 4), Z: share(15, 4)}}
}

// headerShape is the geometry a request frame's header gives each member as
// the pair reads it — n = 0 when no F moves — and the member count; ok is
// false when the pair would refuse the header.
func headerShape(frame []byte) (m, k, n, members int, ok bool) {
	h, err := readHeader(frame)
	if err != nil {
		return 0, 0, 0, 0, false
	}
	if n = h.n; h.row().kept {
		n = 0
	}
	return h.rows / h.members, h.k, n, h.members, true
}

// TestRequestHeaderShape checks the header-only geometry read on every form,
// lone and grouped, and that a frame whose header the pair would refuse, or
// that is no request, reads nothing.
func TestRequestHeaderShape(t *testing.T) {
	in, grp := envelopeShares(33), envelopeGroup(34)
	for _, tc := range []struct {
		frame   []byte
		members int
	}{
		{EncodeRequest(5, in), 1},
		{EncodeRequest(5, grp), 3},
	} {
		m, k, n, c, ok := headerShape(tc.frame)
		if !ok || m != 5 || k != 6 || n != 4 || c != tc.members {
			t.Fatalf("header shape = (%d,%d,%d)×%d ok=%v, want (5,6,4)×%d", m, k, n, c, ok, tc.members)
		}
	}
	// A grouped frame round-trips: the id, the group and every matrix.
	if h, dec, err := decodeRequest(EncodeRequest(0xfeedbeefcafe, grp), 0, nil); err != nil || h.id != 0xfeedbeefcafe || dec.Members != 3 ||
		!dec.A.Equal(grp.A) || !dec.B.Equal(grp.B) || !dec.T.U.Equal(grp.T.U) || !dec.T.V.Equal(grp.T.V) || !dec.T.Z.Equal(grp.T.Z) {
		t.Fatalf("grouped frame decoded to id %#x, %d members: %v", h.id, dec.Members, err)
	}
	// Registering frames read like any other.
	inOp, grpOp := in, grp
	inOp.Operand, grpOp.Operand = 9, 9
	for _, tc := range []struct {
		frame   []byte
		members int
	}{
		{EncodeRequest(5, inOp), 1},
		{EncodeRequest(5, grpOp), 3},
	} {
		m, k, n, c, ok := headerShape(tc.frame)
		if !ok || m != 5 || k != 6 || n != 4 || c != tc.members {
			t.Fatalf("header shape of a registering frame = (%d,%d,%d)×%d ok=%v, want (5,6,4)×%d", m, k, n, c, ok, tc.members)
		}
		if h, dec, err := decodeRequest(tc.frame, 0, nil); err != nil || h.id != 5 || dec.Operand != 9 || dec.Members != tc.members || dec.T.V == nil {
			t.Fatalf("registering frame decoded to id %d, operand %d, %d members: %v", h.id, dec.Operand, dec.Members, err)
		}
	}
	// A kept-form frame says its geometry too, and reads as a request that
	// moves no F — also when m = k makes its U stack the shape of a B stack.
	square := Shares{A: tensor.New(6, 6), T: TripletShares{U: tensor.New(6, 6), Z: tensor.New(6, 4)}, Operand: 9}
	for i, tc := range []struct {
		frame      []byte
		m, members int
	}{
		{EncodeRequest(5, threeForm(in, 9)), 5, 1},
		{EncodeRequest(5, threeForm(grp, 9)), 5, 3},
		{EncodeRequest(5, square), 6, 1},
	} {
		if m, k, n, c, ok := headerShape(tc.frame); !ok || m != tc.m || k != 6 || n != 0 || c != tc.members {
			t.Fatalf("header shape of kept-form frame %d = (%d,%d,%d)×%d ok=%v, want (%d,6,0)×%d", i, m, k, n, c, ok, tc.m, tc.members)
		}
		if h, dec, err := decodeRequest(tc.frame, 0, nil); err != nil || h.id != 5 || dec.Operand != 9 || dec.B != nil || dec.T.V != nil || dec.T.U == nil {
			t.Fatalf("kept-form frame %d decoded to id %d, operand %d: %v", i, h.id, dec.Operand, err)
		}
	}
	// A derived request's header says the same geometry on both faces whatever
	// they ship, and its kept form reads as a request that moves no F.
	pa, pb := rng.NewPool(36), rng.NewPool(36)
	for _, c := range []int{1, 3} {
		a, b := pa.NewUniform(5*c, 6, -1, 1), pb.NewUniform(6*c, 4, -1, 1)
		d0, d1, v := dealDerived(requestSeeds(36, uint64(c)), a, b, nil, c)
		k0, k1, _ := dealDerived(requestSeeds(36, uint64(c)+8), a, b, v, c)
		k0.Operand, k1.Operand = 9, 9
		for i, tc := range []struct {
			in Shares
			n  int
		}{{d0, 4}, {d1, 4}, {k0, 0}, {k1, 0}} {
			if m, k, n, members, ok := headerShape(EncodeRequest(5, tc.in)); !ok || m != 5 || k != 6 || n != tc.n || members != c {
				t.Fatalf("header shape of derived frame %d = (%d,%d,%d)×%d ok=%v, want (5,6,%d)×%d", i, m, k, n, members, ok, tc.n, c)
			}
		}
	}
	badCount := EncodeRequest(5, grp)
	binary.LittleEndian.PutUint32(badCount[offMembers:], 4) // 15 rows do not divide into 4 members
	// A header the pair would refuse reads nothing.
	var badDerived [][]byte
	hostile := hostileDerivedFrames(5)
	for _, name := range []string{"rows 0", "rows not a multiple of members", "members over the cap", "c·k·n over the bound",
		"every dimension 2^32-1", "three-matrix form, no handle", "unknown form", "header cut short"} {
		if hostile[name] == nil {
			t.Fatalf("no hostile derived frame named %q", name)
		}
		badDerived = append(badDerived, hostile[name])
	}
	for _, bad := range append(badDerived,
		nil,
		[]byte{1, 2, 3},
		EncodeRequest(5, in)[:12],
		EncodeRouteError(5, RouteNoReplicas, 0),
		badCount,
		v1Frame(EncodeRequest(5, in)),
		v2Frame(EncodeRequest(5, in)),
	) {
		if _, _, _, _, ok := headerShape(bad); ok {
			t.Fatalf("the header read accepted a non-request frame of %d bytes", len(bad))
		}
	}
	if est := DeadlineEstimate(5, 6, 4); est <= 0 || est > time.Millisecond {
		t.Fatalf("DeadlineEstimate(5,6,4) = %v, want a positive sub-ms exchange", est)
	}
}

// TestRouteErrorRoundTrip pins the typed error frame: codes,
// retry-after, retryability, and the discrimination against every other
// frame kind on the same connection.
func TestRouteErrorRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		code      RouteErrorCode
		retryable bool
	}{
		{RouteNoReplicas, true},
		{RouteRetriesExhausted, true},
		{RouteBadRequest, false},
		{RouteUnknownOperand, false},
		{RoutePeerLinkLost, true},
	} {
		frame := EncodeRouteError(77, tc.code, 50*time.Millisecond)
		id, re, ok := DecodeRouteError(frame)
		if !ok || id != 77 {
			t.Fatalf("%s: decode id=%d ok=%v", tc.code, id, ok)
		}
		if re.Code != tc.code || re.RetryAfter != 50*time.Millisecond {
			t.Fatalf("%s: decoded %+v", tc.code, re)
		}
		if re.Retryable() != tc.retryable {
			t.Fatalf("%s: Retryable() = %v, want %v", tc.code, re.Retryable(), tc.retryable)
		}
		if re.Error() == "" {
			t.Fatalf("%s: empty error string", tc.code)
		}
	}
	// Nothing else on the wire may decode as an error frame: requests and
	// truncated/padded variants.
	in := envelopeShares(34)
	errFrame := EncodeRouteError(1, RouteNoReplicas, 0)
	for _, other := range [][]byte{
		nil,
		EncodeRequest(1, in),
		errFrame[:len(errFrame)-1],
		append(append([]byte{}, errFrame...), 0),
	} {
		if _, _, ok := DecodeRouteError(other); ok {
			t.Fatalf("DecodeRouteError accepted a %d-byte non-error frame", len(other))
		}
	}
	// The smallest legal result frame (id + dense 1×1 matrix) is 21
	// bytes; the error frame's exact-length check can never collide.
	if want := requestIDBytes + 9 + 4; want <= routeErrFrameB {
		t.Fatalf("result frames (≥%d bytes) can collide with %d-byte error frames", want, routeErrFrameB)
	}
}

// TestRetryHint checks the client ladder's safety condition: re-sending
// is offered only when EVERY leg failure is a retryable route error.
func TestRetryHint(t *testing.T) {
	retryable := func(server int, after time.Duration) error {
		return &ServerError{Server: server, Op: "route",
			Err: &RouteError{Code: RouteNoReplicas, RetryAfter: after}}
	}
	wait, ok := retryHint(errors.Join(
		retryable(0, 20*time.Millisecond), retryable(1, 70*time.Millisecond)))
	if !ok || wait != 70*time.Millisecond {
		t.Fatalf("both legs retryable: wait=%v ok=%v, want 70ms true", wait, ok)
	}
	if _, ok := retryHint(errors.Join(
		retryable(0, 0),
		&ServerError{Server: 1, Op: "result", Err: fmt.Errorf("connection reset")},
	)); ok {
		t.Fatal("mixed route/transport failure offered a retry")
	}
	if _, ok := retryHint(&ServerError{Server: 0, Op: "route",
		Err: &RouteError{Code: RouteBadRequest}}); ok {
		t.Fatal("bad_request offered a retry")
	}
	if _, ok := retryHint(fmt.Errorf("plain failure")); ok {
		t.Fatal("plain error offered a retry")
	}
}

// v2Frame is frame as version 2 of the header spelled it: a flag byte, a pad
// byte and a 4-byte budget after the form (no budget riding), the header 52.
func v2Frame(frame []byte) []byte {
	v2 := append(append(frame[:offMembers:offMembers], 0, 0, 0, 0), frame[offMembers:]...)
	v2[offVersion] = 2
	return v2
}

// v1Frame is frame as version 1 of the header spelled it: version 2's header
// with an 8-byte seed, 44 bytes.
func v1Frame(frame []byte) []byte {
	v1 := v2Frame(frame)
	v1[offVersion] = 1
	return append(v1[:44], frame[headerBytes:]...)
}

// headerRefusal is a request frame refused on its header, and the faces it is
// refused by: both, unless it is one face's derived half.
type headerRefusal struct {
	frame []byte
	faces []int
}

// hostileHeaders are request frames (id already in place) whose header every
// pair refuses, one per way a header can be wrong, each one mutation away from
// a well-formed frame.
func hostileHeaders(id uint64) map[string]headerRefusal {
	both := []int{0, 1}
	with := func(in Shares, off int, v uint32) []byte {
		f := EncodeRequest(id, in)
		binary.LittleEndian.PutUint32(f[off:], v)
		return f
	}
	setByte := func(off int, v byte) []byte {
		f := EncodeRequest(id, validGeomShares())
		f[off] = v
		return f
	}
	fed := validGroupShares()
	fed.T = TripletShares{}
	d0, d1, _ := dealDerived(requestSeeds(id, 1), tensor.New(2, 3), tensor.New(3, 4), nil, 1)
	noHeader := appendShares(binary.LittleEndian.AppendUint64(nil, id), validGeomShares())
	return map[string]headerRefusal{
		"cut inside the header":     {EncodeRequest(id, validGeomShares())[:headerBytes-1], both},
		"no header":                 {noHeader, both},
		"a later version":           {setByte(offVersion, headerVersion+1), both},
		"version 1":                 {v1Frame(EncodeRequest(id, validGeomShares())), both},
		"version 1, a derived half": {v1Frame(EncodeRequest(id, d0)), both},
		"version 2":                 {v2Frame(EncodeRequest(id, validGeomShares())), both},
		"version 2, a derived half": {v2Frame(EncodeRequest(id, d1)), both},
		"form 0":                    {setByte(offForm, 0), both},
		"form past the table":       {setByte(offForm, byte(len(forms))), both},
		"members 0":                 {with(validGeomShares(), offMembers, 0), both},
		"members over the cap":      {with(validGroupShares(), offMembers, maxGroupMembers+1), both},
		"rows not a multiple":       {with(validGroupShares(), offMembers, 4), both},
		"dealer-fed group":          {EncodeRequest(id, fed), both},
		"kept form, no operand":     {EncodeRequest(id, threeForm(validGeomShares(), 0)), both},
		"derived, a dimension of 0": {with(d0, offK, 0), both},
		"a dimension over maxDim":   {with(validGeomShares(), offN, maxDim+1), both},
		"B is not the header's":     {with(validGeomShares(), offN, 5), both},
		"face 1's half to face 0":   {EncodeRequest(id, d1), []int{0}},
		"face 0's half to face 1":   {EncodeRequest(id, d0), []int{1}},
	}
}

// TestRequestHeaderRefusals: every header a pair must refuse fails the decode
// as ErrRequestHeader — on the face it is sent to, before anything is sized
// by it — and is answered in-band with a non-retryable bad_request, after which
// the session that sent it still serves.
func TestRequestHeaderRefusals(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, operandServeConfig(8))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(3101)
	id := uint64(0x3101 << 16)
	for name, r := range hostileHeaders(0) {
		for _, face := range r.faces {
			id++
			binary.LittleEndian.PutUint64(r.frame, id)
			if _, _, err := decodeRequest(r.frame, face, nil); !errors.Is(err, ErrRequestHeader) {
				t.Errorf("%s, face %d: decoded to %v, want ErrRequestHeader", name, face, err)
			}
			leg := []*comm.Conn{c0, c1}[face]
			if err := leg.WriteFrame(r.frame); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reply, err := leg.ReadFrame()
			if err != nil {
				t.Fatalf("%s, face %d: the session was torn down: %v", name, face, err)
			}
			if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != RouteBadRequest || re.Retryable() {
				t.Errorf("%s, face %d: answered %x, want a non-retryable %s for id %x", name, face, reply, RouteBadRequest, id)
			}
		}
		job := makeBatchJobs(t, p, 1, 4, 5, 3)[0]
		id++
		if got, err := RequestMulID(id, c0, c1, job.in0, job.in1); err != nil || !got.Equal(job.want) {
			t.Fatalf("after %q the session no longer serves: %v", name, err)
		}
	}
}
