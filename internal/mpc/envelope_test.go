package mpc

import (
	"errors"
	"fmt"
	"testing"
	"time"

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

// TestBudgetEnvelopeRoundTrip pins the deadline envelope's wire
// contract: the budget survives encode → peek, the payload decodes
// identically with and without the envelope, and legacy frames report
// no budget.
func TestBudgetEnvelopeRoundTrip(t *testing.T) {
	in := envelopeShares(31)
	const id = uint64(0xfeedbeefcafe)
	budget := 1500 * time.Microsecond
	frame := EncodeRequestBudget(id, budget, in)

	got, ok := PeekBudget(frame)
	if !ok || got != budget {
		t.Fatalf("PeekBudget = %v ok=%v, want %v", got, ok, budget)
	}
	gotID, dec, err := DecodeRequest(frame)
	if err != nil {
		t.Fatalf("DecodeRequest on enveloped frame: %v", err)
	}
	if gotID != id {
		t.Fatalf("id %#x, want %#x", gotID, id)
	}
	if !dec.A.ApproxEqual(in.A, 0) || !dec.B.ApproxEqual(in.B, 0) || !dec.T.Z.ApproxEqual(in.T.Z, 0) {
		t.Fatal("enveloped payload did not survive the round trip bit-identically")
	}

	legacy := EncodeRequest(id, in)
	if _, ok := PeekBudget(legacy); ok {
		t.Fatal("legacy frame reported a deadline envelope")
	}
	if _, dec, err := DecodeRequest(legacy); err != nil || !dec.A.ApproxEqual(in.A, 0) {
		t.Fatalf("legacy frame broken by envelope support: %v", err)
	}

	// Sub-microsecond and negative budgets clamp to zero (expired).
	if got, ok := PeekBudget(EncodeRequestBudget(id, 400*time.Nanosecond, in)); !ok || got != 0 {
		t.Fatalf("sub-µs budget = %v ok=%v, want 0", got, ok)
	}
	if got, ok := PeekBudget(EncodeRequestBudget(id, -time.Second, in)); !ok || got != 0 {
		t.Fatalf("negative budget = %v ok=%v, want 0", got, ok)
	}
}

// TestSetBudget checks the relay hop's in-place rewrite: only the budget
// field changes, the payload stays intact, and legacy frames refuse the
// write.
func TestSetBudget(t *testing.T) {
	in := envelopeShares(32)
	frame := EncodeRequestBudget(9, 800*time.Microsecond, in)
	if !SetBudget(frame, 300*time.Microsecond) {
		t.Fatal("SetBudget refused an enveloped frame")
	}
	if got, ok := PeekBudget(frame); !ok || got != 300*time.Microsecond {
		t.Fatalf("budget after rewrite = %v ok=%v, want 300µs", got, ok)
	}
	if _, dec, err := DecodeRequest(frame); err != nil || !dec.T.Z.ApproxEqual(in.T.Z, 0) {
		t.Fatalf("payload damaged by in-place budget rewrite: %v", err)
	}
	if SetBudget(EncodeRequest(9, in), time.Millisecond) {
		t.Fatal("SetBudget wrote to a legacy frame")
	}
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

// TestPeekRequestShape checks the router's header-only geometry read on
// every frame form — lone and grouped, with and without a deadline
// envelope — and that non-request frames are refused.
func TestPeekRequestShape(t *testing.T) {
	in, grp := envelopeShares(33), envelopeGroup(34)
	for _, tc := range []struct {
		frame   []byte
		members int
	}{
		{EncodeRequest(5, in), 1},
		{EncodeRequestBudget(5, time.Millisecond, in), 1},
		{EncodeRequest(5, grp), 3},
		{EncodeRequestBudget(5, time.Millisecond, grp), 3},
	} {
		m, k, n, c, ok := PeekRequestShape(tc.frame)
		if !ok || m != 5 || k != 6 || n != 4 || c != tc.members {
			t.Fatalf("PeekRequestShape = (%d,%d,%d)×%d ok=%v, want (5,6,4)×%d", m, k, n, c, ok, tc.members)
		}
	}
	// The envelopes compose: budget peek and in-place rewrite see through
	// to a grouped frame, whose payload still decodes as the group.
	frame := EncodeRequestBudget(5, time.Millisecond, grp)
	if !SetBudget(frame, 300*time.Microsecond) {
		t.Fatal("SetBudget refused a grouped enveloped frame")
	}
	if got, ok := PeekBudget(frame); !ok || got != 300*time.Microsecond {
		t.Fatalf("grouped frame budget = %v ok=%v, want 300µs", got, ok)
	}
	if id, dec, err := DecodeRequest(frame); err != nil || id != 5 || dec.Members != 3 || !dec.T.Z.Equal(grp.T.Z) {
		t.Fatalf("grouped enveloped frame decoded to id %d, %d members: %v", id, dec.Members, err)
	}
	// The operand envelope composes with the other two. Registering frames
	// read like any other; a three-matrix frame names B by handle only, so
	// there is no shape to read — also when m = k makes its U stack pass for
	// a B stack.
	inOp, grpOp := in, grp
	inOp.Operand, grpOp.Operand = 9, 9
	for _, tc := range []struct {
		frame   []byte
		members int
	}{
		{EncodeRequest(5, inOp), 1},
		{EncodeRequestBudget(5, time.Millisecond, grpOp), 3},
	} {
		m, k, n, c, ok := PeekRequestShape(tc.frame)
		if !ok || m != 5 || k != 6 || n != 4 || c != tc.members {
			t.Fatalf("PeekRequestShape on a registering frame = (%d,%d,%d)×%d ok=%v, want (5,6,4)×%d", m, k, n, c, ok, tc.members)
		}
		if id, dec, err := DecodeRequest(tc.frame); err != nil || id != 5 || dec.Operand != 9 || dec.Members != tc.members || dec.T.V == nil {
			t.Fatalf("registering frame decoded to id %d, operand %d, %d members: %v", id, dec.Operand, dec.Members, err)
		}
	}
	square := Shares{A: tensor.New(6, 6), T: TripletShares{U: tensor.New(6, 6), Z: tensor.New(6, 4)}, Operand: 9}
	threeForms := [][]byte{
		EncodeRequest(5, threeForm(in, 9)),
		EncodeRequestBudget(5, time.Millisecond, threeForm(grp, 9)),
		EncodeRequest(5, square),
	}
	for i, frame := range threeForms {
		if id, dec, err := DecodeRequest(frame); err != nil || id != 5 || dec.Operand != 9 || dec.B != nil || dec.T.V != nil || dec.T.U == nil {
			t.Fatalf("three-matrix frame %d decoded to id %d, operand %d: %v", i, id, dec.Operand, err)
		}
	}
	// A derived request says its geometry in its envelope: both parties' frames
	// read alike whatever they ship, and the three-matrix form reads as a
	// request that moves no F.
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
			for _, frame := range [][]byte{EncodeRequest(5, tc.in), EncodeRequestBudget(5, time.Millisecond, tc.in)} {
				if m, k, n, members, ok := PeekRequestShape(frame); !ok || m != 5 || k != 6 || n != tc.n || members != c {
					t.Fatalf("PeekRequestShape on derived frame %d = (%d,%d,%d)×%d ok=%v, want (5,6,%d)×%d", i, m, k, n, members, ok, tc.n, c)
				}
			}
		}
	}
	badCount := EncodeRequest(5, grp)
	badCount[requestIDBytes+4] = 4 // 15 rows do not divide into 4 members
	// An envelope the pair would refuse prices nothing (what follows it is the
	// pair's to check, not a relay's).
	var badDerived [][]byte
	hostile := hostileDerivedFrames(5)
	for _, name := range []string{"rows 0", "rows not a multiple of members", "members over the cap", "c·k·n over the bound",
		"every dimension 2^32-1", "three-matrix form, no handle", "form 4", "envelope cut short"} {
		if hostile[name] == nil {
			t.Fatalf("no hostile derived frame named %q", name)
		}
		badDerived = append(badDerived, hostile[name])
	}
	for _, bad := range append(append(threeForms, badDerived...),
		nil,
		[]byte{1, 2, 3},
		EncodeRequest(5, in)[:12],
		EncodeRouteError(5, RouteNoReplicas, 0),
		badCount,
	) {
		if _, _, _, _, ok := PeekRequestShape(bad); ok {
			t.Fatalf("PeekRequestShape accepted a non-request frame of %d bytes", len(bad))
		}
	}
	if est := DeadlineEstimate(5, 6, 4); est <= 0 || est > time.Millisecond {
		t.Fatalf("DeadlineEstimate(5,6,4) = %v, want a positive sub-ms exchange floor", est)
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
		{RouteDeadlineExceeded, false},
		{RouteDraining, true},
		{RouteUnknownOperand, false},
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
	// Nothing else on the wire may decode as an error frame: requests,
	// enveloped requests, and truncated/padded variants.
	in := envelopeShares(34)
	errFrame := EncodeRouteError(1, RouteNoReplicas, 0)
	for _, other := range [][]byte{
		nil,
		EncodeRequest(1, in),
		EncodeRequestBudget(1, time.Second, in),
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

// TestServeDeadlineShed drives the replica-side admission check end to
// end: a request whose budget cannot cover the exchange floor is
// refused with a typed deadline error before any MPC work, counted on
// the server shed metric, and the session keeps serving.
func TestServeDeadlineShed(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
	})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	p := rng.NewPool(35)
	a := p.NewUniform(5, 6, -1, 1)
	b := p.NewUniform(6, 4, -1, 1)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	t0, t1 := GenGemmTripletShares(p, 5, 6, 4)
	in := [2]Shares{{A: a0, B: b0, T: t0}, {A: a1, B: b1, T: t1}}

	before := metrics.deadlineShed.Value()
	const id = uint64(21)
	_, err := requestMulFrames(id, c0, c1,
		EncodeRequestBudget(id, time.Microsecond, in[0]),
		EncodeRequestBudget(id, time.Microsecond, in[1]))
	if err == nil {
		t.Fatal("1µs-budget request was served")
	}
	var re *RouteError
	if !errors.As(err, &re) || re.Code != RouteDeadlineExceeded {
		t.Fatalf("expired request failed with %v, want %s", err, RouteDeadlineExceeded)
	}
	if got := metrics.deadlineShed.Value(); got != before+2 {
		t.Fatalf("server sheds counted %d, want 2", got-before)
	}
	// The same connections still serve: admission refusal is in-band.
	got, err := RequestMulID(id+1, c0, c1, in[0], in[1])
	if err != nil {
		t.Fatalf("session did not survive the admission refusal: %v", err)
	}
	if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
		t.Fatal("post-shed request returned a wrong product")
	}

	// Admission prices what the frame stacks: a budget one member's
	// exchange floor fits under, but the group's does not, sheds the group
	// on both parties and serves the member alone.
	const c, dim = 4, 64
	budget := 10 * time.Microsecond
	if lone, group := DeadlineEstimate(dim, dim, dim), DeadlineEstimate(c*dim, dim, c*dim); !(lone < budget && budget < group) {
		t.Fatalf("budget %v does not separate the lone floor %v from the group floor %v", budget, lone, group)
	}
	jobs := makeBatchJobs(t, p, c, dim, dim, dim)
	g0, g1 := stackJobs(jobs)
	before = metrics.deadlineShed.Value()
	_, err = requestMulFrames(id+2, c0, c1, EncodeRequestBudget(id+2, budget, g0), EncodeRequestBudget(id+2, budget, g1))
	if !errors.As(err, &re) || re.Code != RouteDeadlineExceeded {
		t.Fatalf("group under its stacked floor: got %v, want %s", err, RouteDeadlineExceeded)
	}
	if got := metrics.deadlineShed.Value(); got != before+2 {
		t.Fatalf("server sheds counted %d for the group, want 2", got-before)
	}
	got, err = requestMulFrames(id+3, c0, c1,
		EncodeRequestBudget(id+3, budget, jobs[0].in0), EncodeRequestBudget(id+3, budget, jobs[0].in1))
	if err != nil || !got.Equal(jobs[0].want) {
		t.Fatalf("one member under the same budget: %v", err)
	}
	if got, err = RequestMulID(id+4, c0, c1, g0, g1); err != nil || !got.SliceRows(0, dim).Equal(jobs[0].want) {
		t.Fatalf("session did not serve the group after shedding it: %v", err)
	}

	// A derived request is priced as the form it stands for, alike on both
	// parties though only one of them was shipped a matrix: the group under
	// its stacked floor is shed twice, and the same data against a kept
	// operand — an E stack and no F — fits under the same budget.
	ga, gb := p.NewUniform(c*dim, dim, -1, 1), p.NewUniform(c*dim, dim, -1, 1)
	d0, d1, v := dealDerived(requestSeeds(35, 0), ga, gb, nil, c)
	if kept := DeadlineEstimate(c*dim, dim, 0); !(kept < budget) {
		t.Fatalf("budget %v does not cover the E stack's floor %v", budget, kept)
	}
	before = metrics.deadlineShed.Value()
	_, err = requestMulFrames(id+5, c0, c1, EncodeRequestBudget(id+5, budget, d0), EncodeRequestBudget(id+5, budget, d1))
	if !errors.As(err, &re) || re.Code != RouteDeadlineExceeded {
		t.Fatalf("derived group under its stacked floor: got %v, want %s", err, RouteDeadlineExceeded)
	}
	if got := metrics.deadlineShed.Value(); got != before+2 {
		t.Fatalf("server sheds counted %d for the derived group, want 2", got-before)
	}
	d0.Operand, d1.Operand = 3, 3
	if _, err = RequestMulID(id+6, c0, c1, d0, d1); err != nil {
		t.Fatalf("registering the derived group: %v", err)
	}
	k0, k1, _ := dealDerived(requestSeeds(35, 1), ga, gb, v, c)
	k0.Operand, k1.Operand = 3, 3
	got, err = requestMulFrames(id+7, c0, c1, EncodeRequestBudget(id+7, budget, k0), EncodeRequestBudget(id+7, budget, k1))
	if err != nil || !got.SliceRows(0, dim).ApproxEqual(tensor.MulNaive(ga.SliceRows(0, dim), gb.SliceRows(0, dim)), 1e-2) {
		t.Fatalf("derived group against its kept operand under the same budget: %v", err)
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
		Err: &RouteError{Code: RouteDeadlineExceeded}}); ok {
		t.Fatal("deadline-exceeded offered a retry")
	}
	if _, ok := retryHint(fmt.Errorf("plain failure")); ok {
		t.Fatal("plain error offered a retry")
	}
}
