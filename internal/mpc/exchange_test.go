package mpc

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// The engine's contract, stated once: however many members one exchange
// stacks, whatever band height EACH party picks for its own stream, and
// whether the F stack moves or is a registered operand's, every member's
// share is bit-identical to the straight-line reference run on that member
// alone.

// batchJob is one client's inputs plus its serial-path ground truth.
type batchJob struct {
	in0, in1 Shares
	want     *tensor.Matrix
}

// makeBatchJobs builds `clients` independent requests of one shared
// geometry, each with its serial reference result.
func makeBatchJobs(t *testing.T, p *rng.Pool, clients, m, k, n int) []batchJob {
	t.Helper()
	jobs := make([]batchJob, clients)
	for i := range jobs {
		a := p.NewUniform(m, k, -1, 1)
		b := p.NewUniform(k, n, -1, 1)
		t0, t1 := GenGemmTripletShares(p, m, k, n)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, b)
		jobs[i] = batchJob{in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
		jobs[i].want = serialReference(t, jobs[i].in0, jobs[i].in1)
	}
	return jobs
}

// runExchangePair runs both parties' engines over a pipe, party i
// streaming in bands of bands[i] against operand ops[i] (nil: none), and
// returns the two result stacks.
func runExchangePair(t *testing.T, mem0, mem1 []Shares, bands [2]int, ops [2]*operand) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	w0, w1 := newWireMul(0, WireConfig{}), newWireMul(1, WireConfig{})
	defer w0.close()
	defer w1.close()
	var r1 *tensor.Matrix
	e1 := make(chan error, 1)
	go func() {
		var err error
		r1, err = w1.exchange(c1, mem1, bands[1], ops[1])
		e1 <- err
	}()
	r0, err := w0.exchange(c0, mem0, bands[0], ops[0])
	if err1 := <-e1; err != nil || err1 != nil {
		t.Fatalf("engine parties failed: %v / %v", err, err1)
	}
	return r0, r1
}

func TestExchangeMatchesRef(t *testing.T) {
	p := rng.NewPool(1501)
	for _, shape := range [][3]int{{1, 5, 3}, {7, 4, 6}, {13, 9, 2}, {16, 16, 16}} {
		m, k, n := shape[0], shape[1], shape[2]
		for _, B := range []int{1, 3, 8} {
			jobs := makeBatchJobs(t, p, B, m, k, n)
			mem0, mem1 := make([]Shares, B), make([]Shares, B)
			var want0, want1 []*tensor.Matrix
			for j, job := range jobs {
				mem0[j], mem1[j] = job.in0, job.in1
				r0, r1 := serialShares(t, job.in0, job.in1)
				want0, want1 = append(want0, r0), append(want1, r1)
			}
			// 0 = whole stack; 1; a non-divisor of m and of B·m; past the end.
			heights := []int{0, 1, m/2 + 2, B*m + 5}
			// The same members with their V gone: what a request against a
			// registered operand hands the engine.
			noV := func(mem []Shares) []Shares {
				out := append([]Shares(nil), mem...)
				for j := range out {
					out[j].T.V = nil
				}
				return out
			}
			for _, b0 := range heights {
				for _, b1 := range heights {
					check := func(how string, mem0, mem1 []Shares, ops [2]*operand) {
						t.Helper()
						got0, got1 := runExchangePair(t, mem0, mem1, [2]int{b0, b1}, ops)
						for j := 0; j < B; j++ {
							if !got0.SliceRows(j*m, (j+1)*m).Equal(want0[j]) || !got1.SliceRows(j*m, (j+1)*m).Equal(want1[j]) {
								t.Fatalf("%dx%dx%d B=%d bands=(%d,%d) %s: member %d differs from the reference",
									m, k, n, B, b0, b1, how, j)
							}
						}
					}
					check("F exchanged", mem0, mem1, [2]*operand{})
					// Registering keeps the F stack both parties reconstructed, and
					// the exchange against it — no F on the wire, no V in the
					// members — lands on the same bits.
					ops := [2]*operand{{}, {}}
					check("F kept", mem0, mem1, ops)
					if ops[0].f == nil || !ops[0].f.Equal(ops[1].f) || ops[0].f.Rows != B*k || ops[0].f.Cols != n {
						t.Fatalf("%dx%dx%d B=%d: the parties kept different F stacks", m, k, n, B)
					}
					check("F held", noV(mem0), noV(mem1), ops)
				}
			}
		}
	}
}

// TestServeClientsMismatchedBands is the misconfiguration that used to hang
// until -peer-timeout — the two servers set different -wire-chunk-rows —
// end to end: six same-shape sessions at once, each party streaming its
// own bands. Everything stays bit-identical to the reference.
func TestServeClientsMismatchedBands(t *testing.T) {
	const clients = 6
	p := rng.NewPool(1502)
	cfg := func(chunk int) ServeConfig {
		return ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
			MaxSessions: clients, Wire: &WireConfig{ChunkRows: chunk}}
	}
	t.Run("batch=false", func(t *testing.T) {
		jobs := makeBatchJobs(t, p, clients, 21, 64, 64)
		addr0, addr1, shutdown := startServePairCfgs(t, cfg(8), cfg(0))
		defer shutdown()
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j batchJob) {
				defer wg.Done()
				c0, c1 := dialPair(t, addr0, addr1)
				defer c0.Close()
				defer c1.Close()
				if got, err := RequestMul(c0, c1, j.in0, j.in1); err != nil {
					t.Error(err)
				} else if !got.Equal(j.want) {
					t.Errorf("result differs from the reference by %v", got.MaxAbsDiff(j.want))
				}
			}(j)
		}
		wg.Wait()
	})
}

// ---- hostile peer frames ----

// hostile geometry: deliberately non-square, so an E band can never pass
// for an F stack.
const hostM, hostK, hostN = 6, 5, 3

func wireHeader(tag byte, rows, cols uint32) []byte {
	b := []byte{tag}
	b = binary.LittleEndian.AppendUint32(b, rows)
	return binary.LittleEndian.AppendUint32(b, cols)
}

// hostileStream is one malformed peer stream: the frames the peer sends,
// whether the victim runs against a registered operand (it holds F and
// expects none), and whether the failure must be the typed band error (the
// rest fail in the tensor decoder).
type hostileStream struct {
	name   string
	heldF  bool
	typed  bool
	frames [][]byte
}

func hostileExchangeFrames() []hostileStream {
	f := tensor.EncodeMatrix(nil, tensor.New(hostK, hostN))
	band := func(rows int) []byte { return tensor.EncodeMatrix(nil, tensor.New(rows, hostK)) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	csr := binary.LittleEndian.AppendUint32(wireHeader('S', hostM, hostK), hostM*hostK+1)
	return []hostileStream{
		{"band rows=0", false, true, [][]byte{cat(f, wireHeader('D', 0, hostK))}},
		{"band rows>owed", false, true, [][]byte{cat(f, band(hostM+1))}},
		{"second band overruns", false, true, [][]byte{cat(f, band(hostM-1)), band(2)}},
		{"band cols!=k", false, true, [][]byte{cat(f, tensor.EncodeMatrix(nil, tensor.New(hostM, hostK+1)))}},
		{"band rows=2^31", false, true, [][]byte{cat(f, wireHeader('D', 1<<31, hostK))}},
		{"band rows=2^31 fp16", false, true, [][]byte{cat(f, wireHeader('H', 1<<31, hostK))}},
		{"F missing", false, false, [][]byte{band(hostM)}},
		{"empty first frame", false, false, [][]byte{{}}},
		{"trailing bytes", false, true, [][]byte{cat(f, band(hostM), []byte{0xFF})}},
		{"CSR nnz>rows*k", false, false, [][]byte{cat(f, csr)}},
		{"unknown tag", false, false, [][]byte{cat(f, wireHeader('X', hostM, hostK))}},
		// Against a registered operand the peer owes E bands and nothing else.
		{"F head on a no-F exchange", true, true, [][]byte{cat(f, band(hostM))}},
		{"held F, band rows=2^31 fp16", true, true, [][]byte{wireHeader('H', 1<<31, hostK)}},
		{"held F, second band overruns", true, true, [][]byte{band(hostM - 1), band(2)}},
		{"held F, trailing bytes", true, true, [][]byte{cat(band(hostM), []byte{0xFF})}},
		{"held F, CSR nnz>rows*k", true, false, [][]byte{csr}},
		{"held F, unknown tag", true, false, [][]byte{wireHeader('X', hostM, hostK)}},
		{"held F, empty first frame", true, false, [][]byte{{}}},
	}
}

// exchangeAgainst runs party 0 of one hostM×hostK×hostN exchange — against a
// registered operand with heldF — against a peer that discards everything it
// is sent and replies with frames, then hangs up.
func exchangeAgainst(frames [][]byte, heldF bool) error {
	c, peer := comm.Pipe()
	defer c.Close()
	go func() {
		for {
			if _, err := peer.ReadFrame(); err != nil {
				return
			}
		}
	}()
	go func() {
		for _, f := range frames {
			if peer.WriteFrame(f) != nil {
				break
			}
		}
		peer.Close()
	}()
	in := Shares{A: tensor.New(hostM, hostK), B: tensor.New(hostK, hostN),
		T: TripletShares{U: tensor.New(hostM, hostK), V: tensor.New(hostK, hostN), Z: tensor.New(hostM, hostN)}}
	var op *operand
	if heldF {
		op = &operand{b: in.B, f: tensor.New(hostK, hostN), members: 1}
		in.T.V = nil
	}
	w := newWireMul(0, WireConfig{})
	defer w.close()
	_, err := w.run(c, in, op)
	return err
}

// TestExchangeRejectsHostileFrames: every malformed stream ends in an error
// naming the offending tensor — no panic, nothing allocated to a hostile
// header's size, and the sender goroutine retired afterwards.
func TestExchangeRejectsHostileFrames(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, tc := range hostileExchangeFrames() {
		err := exchangeAgainst(tc.frames, tc.heldF)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "E band") && !strings.Contains(msg, "peer F") {
			t.Errorf("%s: error does not name the tensor: %v", tc.name, err)
		}
		if tc.typed && !errors.Is(err, errBandFrame) {
			t.Errorf("%s: not the typed band error: %v", tc.name, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 8<<20 {
		t.Errorf("hostile frames made the engine allocate %d bytes", grew)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before, %d after: a sender or peer goroutine leaked", goroutines, n)
	}
}

// FuzzExchangeFrame feeds arbitrary bytes to the engine's reader as the
// peer's first frame (with and without a held F): it may fail, it may not
// panic or hang.
func FuzzExchangeFrame(f *testing.F) {
	for _, tc := range hostileExchangeFrames() {
		f.Add(tc.frames[0], tc.heldF)
	}
	f.Add(append(tensor.EncodeMatrix(nil, tensor.New(hostK, hostN)), tensor.EncodeMatrix(nil, tensor.New(hostM, hostK))...), false)
	f.Add(tensor.EncodeMatrix(nil, tensor.New(hostM, hostK)), true)
	f.Fuzz(func(t *testing.T, frame []byte, heldF bool) {
		exchangeAgainst([][]byte{frame}, heldF)
	})
}
