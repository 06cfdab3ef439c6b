package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a lock-cheap duration histogram: fixed exponential bins
// allocated once at construction, observed with a single atomic add per
// bucket. Quantiles (p50/p95/p99) are computed at read time by linear
// interpolation within the winning bucket, the standard Prometheus
// estimate — accurate to within one bucket width, which the 1-2-5 bound
// series keeps under a factor of 2.5 everywhere.
//
// Observe never allocates; snapshot reads are relaxed (a concurrent
// scrape may see a sum/count pair mid-update), which is the usual
// monitoring trade.
type Histogram struct {
	bounds   []time.Duration // ascending bucket upper bounds; +Inf implicit
	leLabels []string        // precomputed `le="…"` label per bucket (incl. +Inf)
	counts   []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum      atomic.Int64    // nanoseconds
	count    atomic.Uint64
}

// defBounds is the default bucket series: 1-2-5 decades from 1µs to 50s,
// wide enough to cover a triplet decode at the bottom and a wedged peer
// exchange hitting its deadline at the top.
func defBounds() []time.Duration {
	var b []time.Duration
	for base := time.Microsecond; base <= 10*time.Second; base *= 10 {
		b = append(b, base, 2*base, 5*base)
	}
	return b
}

// NewHistogram returns a histogram with the given ascending upper bounds
// (nil selects the default 1µs–50s 1-2-5 series). Prefer
// Registry.Histogram, which also exposes it on /metrics.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = defBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{
		bounds:   bounds,
		leLabels: make([]string, len(bounds)+1),
		counts:   make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.leLabels[i] = `le="` + strconv.FormatFloat(b.Seconds(), 'g', -1, 64) + `"`
	}
	h.leLabels[len(bounds)] = `le="+Inf"`
	return h
}

// Observe records one duration. Negative durations (clock steps) clamp
// to zero. Allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Manual binary search: sort.Search's closure could escape on some
	// inlining decisions, and this path must stay allocation-free.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// histSnapshot is one relaxed read of every bucket.
type histSnapshot struct {
	counts []uint64
	sum    time.Duration
	count  uint64
}

func (h *Histogram) snapshot() histSnapshot {
	s := histSnapshot{counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	s.sum = time.Duration(h.sum.Load())
	s.count = h.count.Load()
	return s
}

// Span is an in-flight phase measurement. It is a value type so starting
// and stopping a phase stays allocation-free on the serving hot path.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing one phase; Stop on the returned Span records it.
func (h *Histogram) Start() Span { return Span{h: h, t0: time.Now()} }

// Stop records the elapsed time and returns it.
func (s Span) Stop() time.Duration {
	d := time.Since(s.t0)
	s.h.Observe(d)
	return d
}
