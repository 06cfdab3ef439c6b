package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// Load generator: one process, a fixed set of sessions, each a goroutine
// that owns one connection per party face and issues its requests one at
// a time — callers that each wait for a reply. The open phase puts an
// arrival schedule in front of those callers; the closed phase lets them
// run back to back.

// clientTimeout bounds every frame a session reads or writes; a request
// that exceeds it is a failure, and no run can hang on a dead fleet.
const clientTimeout = 10 * time.Second

// session is one client: its connections, inputs and id stream.
type session struct {
	idx    int
	w      workload
	faces  [2]string
	c0, c1 *comm.Conn
	// f0, f1 are what requests travel over: the connections themselves,
	// or the tracing decorators around them.
	f0, f1 comm.Framer
	wrap   func(party int, c *comm.Conn) comm.Framer // nil: untraced
	ids    *idGen
	in     sessionInputs
	cursor int
}

func newSession(idx int, w workload, seed uint64, faces [2]string, in sessionInputs,
	wrap func(party int, c *comm.Conn) comm.Framer) *session {
	return &session{idx: idx, w: w, faces: faces, wrap: wrap, ids: newIDGen(seed, idx), in: in}
}

// dial (re)connects both legs.
func (s *session) dial() error {
	s.close()
	c0, c1, err := dialPair(s.faces, comm.RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("session %d: %w", s.idx, err)
	}
	s.c0, s.c1 = c0, c1
	s.f0, s.f1 = comm.Framer(c0), comm.Framer(c1)
	if s.wrap != nil {
		s.f0, s.f1 = s.wrap(0, c0), s.wrap(1, c1)
	}
	return nil
}

// dialPair opens one framed connection to each of a pair's client faces,
// every frame bounded by clientTimeout.
func dialPair(faces [2]string, retry comm.RetryConfig) (*comm.Conn, *comm.Conn, error) {
	c0, err := comm.DialRetry(faces[0], retry)
	if err != nil {
		return nil, nil, fmt.Errorf("face 0: %w", err)
	}
	c1, err := comm.DialRetry(faces[1], retry)
	if err != nil {
		c0.Close()
		return nil, nil, fmt.Errorf("face 1: %w", err)
	}
	c0.SetTimeouts(clientTimeout, clientTimeout)
	c1.SetTimeouts(clientTimeout, clientTimeout)
	return c0, c1, nil
}

func (s *session) close() {
	if s.c0 != nil {
		s.c0.Close()
		s.c1.Close()
		s.c0, s.c1 = nil, nil
	}
}

// request issues the session's next request and verifies the reply
// against the plaintext result precomputed at set-up. done is stamped
// when the reply is in hand, before the comparison, so checking costs
// the measured latency nothing. A transport error, a refusal and a wrong
// product are all failures.
func (s *session) request() (done time.Time, err error) {
	if s.c0 == nil {
		if err := s.dial(); err != nil {
			return time.Now(), err
		}
	}
	var got, want *tensor.Matrix
	if s.w.transformer {
		in := s.in.xfs[s.cursor%len(s.in.xfs)]
		want = in.want
		got, err = s.in.wt.Infer(s.f0, s.f1, in.x)
	} else {
		in := s.in.muls[s.cursor%len(s.in.muls)]
		want = in.want
		got, err = mpc.RequestMulID(s.ids.next(), s.f0, s.f1, in.in0, in.in1)
	}
	done = time.Now()
	s.cursor++
	if err != nil {
		// The connections may hold half a conversation; start clean.
		s.close()
		return done, err
	}
	if !got.ApproxEqual(want, s.w.tol) {
		if !got.SameShape(want) {
			return done, fmt.Errorf("wrong result: shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		return done, fmt.Errorf("wrong result: off the plaintext by %.3g (tolerance %g)", got.MaxAbsDiff(want), s.w.tol)
	}
	return done, nil
}

// sample is one request as the generator saw it.
type sample struct {
	session int
	due     time.Time // when the schedule wanted it sent (closed loop: when it was sent)
	free    time.Time // when the session could first have sent it: max(due, previous reply)
	sent    time.Time
	done    time.Time
	err     error
}

// lag is how late the generator itself ran: the gap between the moment
// the session was free to send and the moment it sent. It is the load
// generator's lateness, not the fleet's — in this sandbox mostly the
// kernel's 1 ms timer tick, which wakes a sleeper up to a tick late.
func (s sample) lag() time.Duration { return s.sent.Sub(s.free) }

// latency is the open-loop latency: from the request's due time, less
// the generator's own lag. A request that had to wait because the
// session's previous reply was late is charged that wait in full — a
// stall costs every request queued behind it — but the fleet is not
// charged for a generator that overslept.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) - s.lag() }

func (s sample) latencyMs() float64 { return ms(s.latency()) }
func (s sample) lagMs() float64     { return ms(s.lag()) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule gives session j's i-th due time in an open phase of total
// rate req/s over `sessions` sessions: staggered, each session runs at
// rate/sessions with its own phase offset, so arrivals are evenly spaced
// overall; bursts, every session shares the same due times.
func schedule(t0 time.Time, rate float64, sessions, j, i int, burst bool) time.Time {
	period := float64(sessions) / rate // seconds between one session's requests
	off := 0.0
	if !burst {
		off = float64(j) / rate
	}
	return t0.Add(time.Duration((off + float64(i)*period) * float64(time.Second)))
}

// requester is what the phase runners drive: something that issues its
// next request, waits for the reply and checks it. *session is the real
// one; tests substitute a fake with a known service time.
type requester interface {
	request() (done time.Time, err error)
}

func requesters(ss []*session) []requester {
	out := make([]requester, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// runOpen drives every session on the arrival schedule for dur and
// returns every request issued plus the number of scheduled requests
// that were never sent because the phase ended with the session still
// behind (they count as missing the latency limit).
func runOpen(ctx context.Context, ss []requester, rate float64, dur time.Duration, burst bool) (samples []sample, unsent int) {
	t0 := time.Now().Add(2 * time.Millisecond)
	end := t0.Add(dur)
	per := make([][]sample, len(ss))
	left := make([]int, len(ss))
	var wg sync.WaitGroup
	for j, s := range ss {
		wg.Add(1)
		go func(j int, s requester) {
			defer wg.Done()
			prevDone := t0
			for i := 0; ; i++ {
				due := schedule(t0, rate, len(ss), j, i, burst)
				if !due.Before(end) {
					return
				}
				if ctx.Err() != nil || time.Now().After(end) {
					left[j]++ // out of time with this arrival still owed
					continue
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				free := due
				if prevDone.After(free) {
					free = prevDone
				}
				sent := time.Now()
				done, err := s.request()
				per[j] = append(per[j], sample{session: j, due: due, free: free, sent: sent, done: done, err: err})
				prevDone = done
			}
		}(j, s)
	}
	wg.Wait()
	for j := range per {
		samples = append(samples, per[j]...)
		unsent += left[j]
	}
	return samples, unsent
}

// runClosed lets every session issue requests back to back for dur.
func runClosed(ctx context.Context, ss []requester, dur time.Duration) (samples []sample, t0 time.Time) {
	t0 = time.Now()
	end := t0.Add(dur)
	per := make([][]sample, len(ss))
	var wg sync.WaitGroup
	for j, s := range ss {
		wg.Add(1)
		go func(j int, s requester) {
			defer wg.Done()
			for ctx.Err() == nil {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				done, err := s.request()
				per[j] = append(per[j], sample{session: j, due: sent, free: sent, sent: sent, done: done, err: err})
			}
		}(j, s)
	}
	wg.Wait()
	for j := range per {
		samples = append(samples, per[j]...)
	}
	return samples, t0
}

// sliceThroughput cuts [t0, t0+dur) into n equal slices, counts the
// verified replies that completed in each, and returns the per-slice
// rates in req/s.
func sliceThroughput(samples []sample, t0 time.Time, dur time.Duration, n int) []float64 {
	counts := make([]int, n)
	width := dur / time.Duration(n)
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		i := int(s.done.Sub(t0) / width)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / width.Seconds()
	}
	return rates
}

// okLatencies returns the ascending open-loop latencies of the verified
// replies.
func okLatencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.latencyMs())
		}
	}
	sort.Float64s(out)
	return out
}

func countFailed(samples []sample) (failed int, first error) {
	for _, s := range samples {
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	return failed, first
}
