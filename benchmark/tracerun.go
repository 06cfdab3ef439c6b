package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parsecureml/internal/comm"
)

// traced is what one traced run measured.
type traced struct {
	layer     map[string]float64
	attempted int
	failed    int
	firstErr  error
	requests  int // requests whose spans were found at every hop
	orphans   int // verified replies with a hop's span missing
}

// maxTraceRequests caps how many requests' spans trace.json holds; the
// metrics always use every request.
const maxTraceRequests = 1000

// runTraced drives the workload's open phase against the in-process
// traced fleet and turns the decorators' logs into spans, self times and
// the trace.* metrics. untracedP50 is the same workload's open-phase p50
// on the multi-process fleet, for the overhead comparison.
func runTraced(w workload, seed uint64, e env, warm, open time.Duration, untracedP50 float64) (*traced, error) {
	inputs := makeInputs(w, seed)
	fl, err := startInproc(w.spec(seed))
	if err != nil {
		return nil, err
	}
	defer fl.stop()

	// Every leg tracer ever made, per session and party (a session that
	// redials after a failure gets fresh ones).
	legs := make([][2][]*legTracer, w.sessions)
	ss := make([]*session, w.sessions)
	for i := range ss {
		i := i
		ss[i] = newSession(i, w, seed, fl.faces, inputs[i], func(party int, c *comm.Conn) comm.Framer {
			lt := &legTracer{c: c}
			legs[i][party] = append(legs[i][party], lt)
			return lt
		})
	}
	defer closeSessions(ss)

	res := &traced{layer: map[string]float64{}}
	for i, s := range ss {
		res.attempted++
		if _, err := s.request(); err != nil {
			return nil, fmt.Errorf("traced: first request of session %d: %w", i, err)
		}
	}
	ctx := fl.ctx
	warmS, _ := runOpen(ctx, requesters(ss), w.openRate, warm, w.burst)
	feedBytes0 := fl.dealerBytes()
	openS, _ := runOpen(ctx, requesters(ss), w.openRate, open, w.burst)
	feedBytes := fl.dealerBytes() - feedBytes0
	for _, samples := range [][]sample{warmS, openS} {
		res.attempted += len(samples)
		f, first := countFailed(samples)
		res.failed += f
		if res.firstErr == nil {
			res.firstErr = first
		}
	}
	if err := fl.firstErr(); err != nil {
		return nil, err
	}
	closeSessions(ss)
	fl.stop()

	roots, stats := assemble(w, openS, legs, fl)
	res.requests, res.orphans = len(roots), stats.orphans
	if len(roots) == 0 {
		return nil, fmt.Errorf("traced: no request of %s could be followed through every hop (first error: %v)", w.name, res.firstErr)
	}

	n := float64(len(roots))
	lat := okLatencies(openS)
	p50 := percentile(lat, 0.5)
	// The self times describe the median request: means over the requests
	// whose latency lies between the 45th and 55th percentile. Medians of
	// each layer taken over all requests would not add up to any request.
	lo, hi := percentile(lat, 0.45), percentile(lat, 0.55)
	band := func(xs []float64) float64 {
		var in []float64
		for i, x := range xs {
			if stats.latency[i] >= lo && stats.latency[i] <= hi {
				in = append(in, x)
			}
		}
		return mean(in)
	}
	l := res.layer
	sum := 0.0
	for _, part := range []struct {
		name string
		xs   []float64
	}{
		{"trace.client.self_ms", stats.clientSelf},
		{"trace.router.self_ms", stats.hopSelf},
		{"trace.serve.self_ms", stats.serveSelf},
		{"trace.exchange.ms", stats.exchange},
		{"trace.feed.wait_ms", stats.feed},
	} {
		l[part.name] = band(part.xs)
		sum += l[part.name]
	}
	l["trace.client.queue_ms"] = band(stats.queue)
	l["trace.router.bytes_per_req"] = stats.hopBytes / n
	l["trace.exchange.bytes_per_req"] = stats.peerBytes / n
	l["trace.exchange.frames_per_req"] = stats.peerFrames / n
	l["trace.exchange.round_trips_per_req"] = mean(stats.roundTrips)
	l["trace.feed.bytes_per_req"] = float64(feedBytes) / float64(len(lat))
	l["trace.closure_pct"] = 100 * sum / p50
	l["trace.p50_ms"] = p50
	if untracedP50 > 0 {
		l["trace.p50_vs_untraced_pct"] = 100 * (p50 - untracedP50) / untracedP50
	}

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	tf, err := os.Create(filepath.Join(e.outDir, "trace.json"))
	if err != nil {
		return nil, err
	}
	keep := roots
	if len(keep) > maxTraceRequests {
		keep = keep[:maxTraceRequests]
	}
	werr := writeChromeTrace(tf, keep, keep[0].start)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	return res, werr
}

// traceStats are the per-request numbers assemble extracts, one entry
// per followed request unless stated.
type traceStats struct {
	clientSelf, hopSelf, serveSelf, exchange, feed []float64 // ms
	queue, roundTrips, latency                     []float64
	hopBytes, peerBytes, peerFrames                float64 // totals
	orphans                                        int
}

// assemble joins the decorators' logs into one span tree per verified
// open-phase request:
//
//	client.request              due time → reply in hand
//	  client.leg0, client.leg1  request frame written → reply frame read
//	    serve.pN                request read by ServeClients → result written
//	      exchange.pN           first → last peer-link frame of the request
//	      feed.pN               blocking draw from the triplet feed
//
// A transformer request has 14 sequential leg pairs under one root. The
// reported self times follow the blocking chain: of the two concurrent
// legs, the one that finished last.
func assemble(w workload, open []sample, legs [][2][]*legTracer, fl *inprocFleet) ([]*span, traceStats) {
	var st traceStats

	// Index the server-side logs.
	var serveByID [2]map[uint64]serveEvent
	reqIDs := map[uint64]bool{}
	for p := 0; p < 2; p++ {
		serveByID[p] = map[uint64]serveEvent{}
		for _, e := range fl.listeners[p].snapshot() {
			serveByID[p][e.id] = e
			reqIDs[e.id] = true
		}
	}
	var peerAll [2][]peerEvent
	var peerByID [2]map[uint64][]peerEvent
	var peerShared [2][]peerEvent // frames of sessions that are no request's: batches
	for p := 0; p < 2; p++ {
		peerAll[p] = fl.peers[p].snapshot()
		peerByID[p] = map[uint64][]peerEvent{}
		for _, e := range peerAll[p] {
			if reqIDs[e.id] {
				peerByID[p][e.id] = append(peerByID[p][e.id], e)
			} else {
				peerShared[p] = append(peerShared[p], e)
			}
		}
		sort.Slice(peerShared[p], func(a, b int) bool { return peerShared[p][a].t.Before(peerShared[p][b].t) })
	}
	var feedEvents [2][]feedEvent
	var feedUsed [2][]bool
	var feedLo [2]int // every draw before this index is claimed
	for p := 0; p < 2; p++ {
		if fl.feeds[p] != nil {
			feedEvents[p] = fl.feeds[p].snapshot()
			sort.Slice(feedEvents[p], func(a, b int) bool { return feedEvents[p][a].start.Before(feedEvents[p][b].start) })
			feedUsed[p] = make([]bool, len(feedEvents[p]))
		}
	}

	// Per session, the leg events in time order.
	type legLog [2][]legEvent
	sessLegs := make([]legLog, len(legs))
	for j := range legs {
		for p := 0; p < 2; p++ {
			for _, lt := range legs[j][p] {
				sessLegs[j][p] = append(sessLegs[j][p], lt.events...)
			}
			sort.Slice(sessLegs[j][p], func(a, b int) bool { return sessLegs[j][p][a].start.Before(sessLegs[j][p][b].start) })
		}
	}
	cursor := make([][2]int, len(legs))

	sorted := append([]sample(nil), open...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].sent.Before(sorted[b].sent) })

	var roots []*span
	for _, smp := range sorted {
		if smp.err != nil {
			continue
		}
		j := smp.session
		lane := fmt.Sprintf("client-%d", j)
		// The root starts where the measured latency starts: the due time,
		// moved by however late the generator itself ran.
		root := &span{name: "client.request", lane: lane, start: smp.done.Add(-smp.latency()), end: smp.done}
		// The session's legs that ran inside this request.
		var mine [2][]legEvent
		for p := 0; p < 2; p++ {
			evs := sessLegs[j][p]
			c := cursor[j][p]
			for c < len(evs) && evs[c].start.Before(smp.sent) {
				c++
			}
			for c < len(evs) && !evs[c].end.After(smp.done) {
				mine[p] = append(mine[p], evs[c])
				c++
			}
			cursor[j][p] = c
		}
		if len(mine[0]) == 0 || len(mine[0]) != len(mine[1]) {
			st.orphans++
			continue
		}
		root.req = mine[0][0].id
		var hop, srv, exch, feed time.Duration
		var trips float64
		whole := true
		for i := range mine[0] {
			var leg [2]*span
			for p := 0; p < 2; p++ {
				ev := mine[p][i]
				leg[p] = &span{name: fmt.Sprintf("client.leg%d", p), lane: lane, req: ev.id, start: ev.start, end: ev.end}
				root.adopt(leg[p])
			}
			crit := 0
			if leg[1].end.After(leg[0].end) {
				crit = 1
			}
			for p := 0; p < 2; p++ {
				se, ok := serveByID[p][leg[p].req]
				if !ok {
					if p == crit {
						whole = false
					}
					continue
				}
				party := fmt.Sprintf("party%d", p)
				sv := &span{name: fmt.Sprintf("serve.p%d", p), lane: party, req: se.id, start: se.start, end: se.end}
				leg[p].adopt(sv)
				st.hopBytes += float64(se.bytesIn + se.bytesOut)

				frames := peerByID[p][se.id]
				if len(frames) == 0 {
					frames = window(peerShared[p], se.start, se.end)
				}
				if len(frames) > 0 {
					ex := &span{name: fmt.Sprintf("exchange.p%d", p), lane: party + "-peer", req: se.id,
						start: frames[0].t, end: frames[len(frames)-1].t}
					sv.adopt(ex)
					if p == crit {
						exch += ex.dur()
						trips += roundTrips(frames)
					}
				}
				// The feed draw happens right after the request is decoded:
				// the unclaimed draw that starts inside this serve span.
				for feedLo[p] < len(feedUsed[p]) && feedUsed[p][feedLo[p]] {
					feedLo[p]++
				}
				for fi := feedLo[p]; fi < len(feedEvents[p]); fi++ {
					fe := feedEvents[p][fi]
					if feedUsed[p][fi] || fe.start.Before(se.start) {
						continue
					}
					if fe.start.After(se.end) {
						break
					}
					feedUsed[p][fi] = true
					fs := &span{name: fmt.Sprintf("feed.p%d", p), lane: party, req: se.id, start: fe.start, end: fe.end}
					sv.adopt(fs)
					if p == crit {
						feed += fs.dur()
					}
					break
				}
				if p == crit {
					hop += selfTime(leg[p])
					srv += selfTime(sv)
				}
			}
		}
		if !whole {
			st.orphans++
			continue
		}
		roots = append(roots, root)
		st.clientSelf = append(st.clientSelf, ms(selfTime(root)))
		st.hopSelf = append(st.hopSelf, ms(hop))
		st.serveSelf = append(st.serveSelf, ms(srv))
		st.exchange = append(st.exchange, ms(exch))
		st.feed = append(st.feed, ms(feed))
		st.queue = append(st.queue, ms(smp.sent.Sub(root.start)))
		st.latency = append(st.latency, ms(root.dur()))
		st.roundTrips = append(st.roundTrips, trips)
	}
	// Link totals over the open phase: every frame is some party's
	// outbound frame exactly once.
	if len(sorted) > 0 {
		lo, hi := sorted[0].sent, sorted[0].done
		for _, s := range sorted {
			if s.done.After(hi) {
				hi = s.done
			}
		}
		for p := 0; p < 2; p++ {
			for _, e := range peerAll[p] {
				if e.out && !e.t.Before(lo) && !e.t.After(hi) {
					st.peerFrames++
					st.peerBytes += float64(e.bytes)
				}
			}
		}
	}
	return roots, st
}

// window returns the events of a time-sorted log that fall in [lo, hi].
func window(evs []peerEvent, lo, hi time.Time) []peerEvent {
	i := sort.Search(len(evs), func(i int) bool { return !evs[i].t.Before(lo) })
	j := sort.Search(len(evs), func(j int) bool { return evs[j].t.After(hi) })
	if i >= j {
		return nil
	}
	return evs[i:j]
}

// roundTrips counts the runs of inbound frames in a party's frame
// sequence: each run is one point where it had to have its peer's data
// before going on.
func roundTrips(frames []peerEvent) float64 {
	trips := 0.0
	for i, f := range frames {
		if !f.out && (i == 0 || frames[i-1].out) {
			trips++
		}
	}
	return trips
}
