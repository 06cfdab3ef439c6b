// Package tripletpool keeps ready-to-use Beaver triplet shares ahead of
// demand — the paper's offline/online separation (§2.2, Eq. 6–8)
// realized as a serving-stack component. The data owner generates
// Z = U×V triplets during the offline phase; online, a request pops a
// ready triplet instead of paying generation latency (dominated by the
// U×V GEMM, §4.2) inline. The pool is shape-keyed: the first request of
// an (m,k,n) geometry generates inline (a miss) and registers the shape;
// background workers then keep a configurable depth of triplets ready
// per observed shape, evicting the least-recently-used shape when too
// many geometries are live. Generation runs on the thread-safe MT19937
// block streams of rng.Pool (§5.1's thread-local generators).
package tripletpool

import (
	"sync"
	"sync/atomic"

	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Config tunes a Pool. The zero value selects the stated defaults.
type Config struct {
	// Depth is the target number of ready triplets per observed shape.
	// Default 4.
	Depth int
	// MaxShapes bounds the distinct (m,k,n) geometries kept warm; the
	// least recently used shape is evicted (its ready triplets dropped)
	// when a new shape would exceed the bound. Default 32.
	MaxShapes int
	// Workers is the number of background generator goroutines.
	// Default 2.
	Workers int
	// Seed seeds the pool's random source. The zero seed is valid.
	// Ignored when Source is set.
	Seed uint64
	// Source supplies the triplets. Nil selects local generation from
	// Seed (NewLocalSource) — the classic client-as-dealer role. A
	// dealer-backed deployment plugs a different Source here; the pool's
	// shape tracking, depth and LRU behavior are identical either way.
	Source Source
}

// Source produces both parties' shares of one ready Beaver triplet for
// a GEMM geometry. Implementations must be safe for concurrent use —
// the pool's background workers call Gen from several goroutines.
// NewLocalSource is the in-process default; NewStreamSource is the
// deterministic per-shape variant the dealer tier uses.
type Source interface {
	Gen(m, k, n int) (p0, p1 mpc.TripletShares)
}

// localSource generates triplets from one shared thread-safe rng.Pool.
type localSource struct{ rng *rng.Pool }

// NewLocalSource returns the default Source: wall-clock triplet
// generation on seed's MT19937 block streams (paper §5.1).
func NewLocalSource(seed uint64) Source {
	return localSource{rng: rng.NewPool(seed)}
}

func (s localSource) Gen(m, k, n int) (p0, p1 mpc.TripletShares) {
	return mpc.GenGemmTripletShares(s.rng, m, k, n)
}

// StreamSeed mixes a seed with a GEMM geometry (splitmix64 finalizer over the
// packed dimensions) — how a party's stream key becomes the key of one
// shape's fills (deriveHalf), and a general-purpose mixer for drill and
// benchmark input seeds.
func StreamSeed(base uint64, m, k, n int) uint64 {
	z := base ^ (uint64(m)<<42 + uint64(k)<<21 + uint64(n)) ^ 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSource replays a dealer's streams in process: the j-th Gen call for
// shape (m,k,n) yields triplet j of that shape's stream, both halves,
// regardless of what other shapes were drawn in between. This is what makes
// a dealer-fed fleet reproducible against a client-dealt reference run.
type streamSource struct {
	keys [2]uint64
	mu   sync.Mutex
	next map[shape]uint64
}

// NewStreamSource returns a Source whose triplet sequence per shape is
// a pure function of (base, shape): stream j of shape s is identical
// across processes and runs, and bit-identical to the halves a Dealer on the
// same base hands its parties. Use distinct bases for distinct server
// pairs in deployments where triplet reuse across pairs matters.
func NewStreamSource(base uint64) Source {
	return &streamSource{keys: partyKeys(base), next: make(map[shape]uint64)}
}

func (s *streamSource) Gen(m, k, n int) (p0, p1 mpc.TripletShares) {
	sh := shape{M: m, K: k, N: n}
	s.mu.Lock()
	seq := s.next[sh]
	s.next[sh] = seq + 1
	s.mu.Unlock()
	return deriveTriplet(s.keys, sh, seq)
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.MaxShapes <= 0 {
		c.MaxShapes = 32
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// Stats is a snapshot of pool effectiveness counters.
type Stats struct {
	Ready         int64 // triplets currently ready across all shapes
	Hits          int64 // Gets served from precomputed triplets
	Misses        int64 // Gets that generated inline
	Generated     int64 // triplets generated (inline + background)
	EvictedShapes int64 // shapes evicted by the LRU bound
}

// Process-wide accounting across every Pool, mirrored to obs in init —
// the pool-depth gauge the serving dashboards watch.
var (
	readyTriplets atomic.Int64
	hitsTotal     atomic.Int64
	missesTotal   atomic.Int64
	genTotal      atomic.Int64
	evictedShapes atomic.Int64
)

// Totals returns process-wide accounting across every Pool.
func Totals() Stats {
	return Stats{
		Ready:         readyTriplets.Load(),
		Hits:          hitsTotal.Load(),
		Misses:        missesTotal.Load(),
		Generated:     genTotal.Load(),
		EvictedShapes: evictedShapes.Load(),
	}
}

func init() {
	obs.Default.FuncGauge("psml_triplet_pool_ready", "Beaver triplets precomputed and ready across all shapes.", func() float64 {
		return float64(readyTriplets.Load())
	})
	obs.Default.FuncCounter("psml_triplet_pool_hits_total", "Triplet Gets served from the precompute pool.", func() float64 {
		return float64(hitsTotal.Load())
	})
	obs.Default.FuncCounter("psml_triplet_pool_misses_total", "Triplet Gets that paid generation latency inline.", func() float64 {
		return float64(missesTotal.Load())
	})
	obs.Default.FuncCounter("psml_triplet_pool_generated_total", "Beaver triplets generated (inline and background).", func() float64 {
		return float64(genTotal.Load())
	})
	obs.Default.FuncCounter("psml_triplet_pool_evicted_shapes_total", "Shapes evicted from the precompute pool by the LRU bound.", func() float64 {
		return float64(evictedShapes.Load())
	})
}

// shape is a GEMM geometry key: (m×k)·(k×n).
type shape struct{ M, K, N int }

// pair is both parties' shares of one triplet, as GenGemmTripletShares
// returns them.
type pair struct{ p0, p1 mpc.TripletShares }

// bucket holds the ready triplets of one shape.
type bucket struct {
	shape   shape
	ready   chan pair
	queued  atomic.Int32 // background generations in flight
	evicted atomic.Bool
	lastUse atomic.Int64 // LRU clock tick of the last Get
}

// Pool precomputes Beaver triplet shares per observed GEMM shape. Safe
// for concurrent use.
type Pool struct {
	cfg  Config
	rng  *rng.Pool
	src  Source
	stop chan struct{}
	wg   sync.WaitGroup

	refill chan *bucket

	clock atomic.Int64 // LRU ticks

	mu      sync.Mutex
	buckets map[shape]*bucket
	closed  bool
}

// New starts a Pool and its background generator workers.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	src := cfg.Source
	if src == nil {
		src = NewLocalSource(cfg.Seed)
	}
	p := &Pool{
		cfg:     cfg,
		rng:     rng.NewPool(cfg.Seed),
		src:     src,
		stop:    make(chan struct{}),
		refill:  make(chan *bucket, cfg.MaxShapes*cfg.Depth),
		buckets: make(map[shape]*bucket),
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Close stops the background workers and drops every ready triplet.
// Gets after Close still work — they generate inline.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	buckets := p.buckets
	p.buckets = map[shape]*bucket{}
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	for _, b := range buckets {
		b.evicted.Store(true)
		drain(b)
	}
}

// drain drops b's ready triplets (eviction or shutdown).
func drain(b *bucket) {
	for {
		select {
		case <-b.ready:
			readyTriplets.Add(-1)
		default:
			return
		}
	}
}

// worker generates triplets for buckets queued on the refill channel.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case b := <-p.refill:
			if b.evicted.Load() {
				b.queued.Add(-1)
				continue
			}
			pr := p.gen(b.shape)
			select {
			case b.ready <- pr:
				readyTriplets.Add(1)
				if b.evicted.Load() {
					// Raced with eviction: make sure nothing is leaked
					// as "ready" on a dead bucket.
					drain(b)
				}
			default:
				// Depth reached in the meantime: drop the extra.
			}
			b.queued.Add(-1)
		}
	}
}

// gen produces one triplet pair for s from the configured Source.
func (p *Pool) gen(s shape) pair {
	p0, p1 := p.src.Gen(s.M, s.K, s.N)
	genTotal.Add(1)
	return pair{p0: p0, p1: p1}
}

// topUp queues background generations until b's ready depth plus its
// in-flight generations reach the configured depth.
func (p *Pool) topUp(b *bucket) {
	for {
		q := b.queued.Load()
		if int(q)+len(b.ready) >= p.cfg.Depth || b.evicted.Load() {
			return
		}
		if !b.queued.CompareAndSwap(q, q+1) {
			continue
		}
		select {
		case p.refill <- b:
		default:
			b.queued.Add(-1)
			return
		}
	}
}

// lookup returns the bucket for s, creating it (and evicting the LRU
// shape over the MaxShapes bound) on first sight. Returns nil when the
// pool is closed.
func (p *Pool) lookup(s shape) *bucket {
	var evictedBuckets []*bucket
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if b, ok := p.buckets[s]; ok {
		p.mu.Unlock()
		return b
	}
	for len(p.buckets) >= p.cfg.MaxShapes {
		var lru *bucket
		for _, b := range p.buckets {
			if lru == nil || b.lastUse.Load() < lru.lastUse.Load() {
				lru = b
			}
		}
		delete(p.buckets, lru.shape)
		lru.evicted.Store(true)
		evictedBuckets = append(evictedBuckets, lru)
		evictedShapes.Add(1)
	}
	b := &bucket{shape: s, ready: make(chan pair, p.cfg.Depth)}
	b.lastUse.Store(p.clock.Add(1))
	p.buckets[s] = b
	p.mu.Unlock()
	// Drain evicted buckets after releasing p.mu: the drain walks up to
	// Depth channel receives, and doing that under the lock stalled every
	// concurrent GetGemm behind the eviction. The evicted flag is already
	// set, so workers racing a late fill re-drain their own deposit.
	for _, e := range evictedBuckets {
		drain(e)
	}
	return b
}

// GetGemm returns both parties' shares of a Beaver triplet for an
// (m×k)·(k×n) multiplication: from the precompute pool when one is
// ready (scheduling a background refill), generated inline otherwise.
func (p *Pool) GetGemm(m, k, n int) (p0, p1 mpc.TripletShares) {
	s := shape{M: m, K: k, N: n}
	b := p.lookup(s)
	if b == nil {
		missesTotal.Add(1)
		pr := p.gen(s)
		return pr.p0, pr.p1
	}
	b.lastUse.Store(p.clock.Add(1))
	select {
	case pr := <-b.ready:
		readyTriplets.Add(-1)
		hitsTotal.Add(1)
		p.topUp(b)
		return pr.p0, pr.p1
	default:
	}
	missesTotal.Add(1)
	p.topUp(b)
	pr := p.gen(s)
	return pr.p0, pr.p1
}

// Split prepares both servers' inputs for one secure multiplication of
// a×b: input shares (§2.2) plus a pooled triplet. The complete
// client-side request prep, safe for concurrent use — what mpcsim's
// Client.Split + Client.GenGemmTriplet do for the simulator, for the
// serving path.
func (p *Pool) Split(a, b *tensor.Matrix) (in0, in1 mpc.Shares) {
	a0, a1 := mpc.SplitRand(p.rng, a)
	b0, b1 := mpc.SplitRand(p.rng, b)
	t0, t1 := p.GetGemm(a.Rows, a.Cols, b.Cols)
	return mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1}
}
