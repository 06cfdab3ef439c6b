// Package rng provides the framework's random-number substrate: parallel,
// thread-safe random matrix generation built on per-worker MT19937
// generators, following ParSecureML §5.1 ("Parallelism for Random Number
// Generation"). The paper observes that C's rand() is not thread-safe and
// that guarding it with a lock makes the parallel version slower than the
// serial one; instead each thread owns a thread-local MT19937. Here every
// fixed-size block of the output matrix is generated by an independently
// seeded MT19937 stream, which makes fills bit-deterministic for a given
// seed regardless of worker count — a stronger property than the paper's
// (time+thread-hash seeding) that the tests rely on. The one fill that is not
// the paper's is FillKeyed (keyed.go): the expansion of a secret key into a
// party's half, which is AES-128-CTR, because an MT19937 stream gives its
// seed away.
package rng

import (
	"math"
	"sync"
	"sync/atomic"

	"parsecureml/internal/mt19937"
	"parsecureml/internal/tensor"
)

// BlockSize is the number of elements generated per independent MT19937
// stream. Seeding MT19937 costs one 624-word state pass, amortized over
// BlockSize outputs (<2 % overhead).
const BlockSize = 8192

// Rand is a single deterministic random stream (not safe for concurrent
// use). It wraps MT19937 with the distributions the framework needs.
type Rand struct {
	mt *gauss
}

// gauss adds Box–Muller caching to an MT19937 core.
type gauss struct {
	*mt19937.MT19937
	spare    float64
	hasSpare bool
}

// NewRand returns a stream seeded from a 64-bit seed.
func NewRand(seed uint64) *Rand {
	g := &gauss{MT19937: &mt19937.MT19937{}}
	g.SeedSlice([]uint32{uint32(seed), uint32(seed >> 32)})
	return &Rand{mt: g}
}

// streamPool recycles per-block generator states across fills. Seeding
// rewrites the entire 624-word MT19937 state and newBlockStream clears
// the Box–Muller cache, so a recycled stream is bit-identical to a fresh
// one — only the ~2.5 KB state allocation is saved. The wire serving path
// draws one activation mask per layer per request; without recycling that
// state array is the dominant steady-state garbage.
var streamPool = sync.Pool{New: func() any { return &gauss{MT19937: &mt19937.MT19937{}} }}

// newBlockStream seeds a recycled stream for block `block` of a Pool's fill
// fillID under seed.
//
// The fill id's low 16 bits share a key word with the block index — the
// layout every golden value and checkpoint cursor was drawn under — and its
// high 16 bits join the key as a fifth word only when set. Shifting the whole
// id into that one word, as this did, dropped them: fill 65 536 seeded fill
// 0's streams and every pool repeated itself from there. Fills below 65 536
// keep their streams bit for bit.
func newBlockStream(seed uint64, fillID, block uint32) *gauss {
	g := streamPool.Get().(*gauss)
	g.spare, g.hasSpare = 0, false
	key := [5]uint32{uint32(seed), uint32(seed >> 32), fillID<<16 ^ block, 0x9e3779b9, fillID >> 16}
	n := 4
	if key[4] != 0 {
		n = 5
	}
	g.SeedSlice(key[:n])
	return g
}

func putBlockStream(g *gauss) { streamPool.Put(g) }

// Uint32 returns the next raw 32-bit word.
func (r *Rand) Uint32() uint32 { return r.mt.Uint32() }

// Uint64 returns the next raw 64-bit word.
func (r *Rand) Uint64() uint64 { return r.mt.Uint64() }

// Float32 returns a uniform value in [0,1).
func (r *Rand) Float32() float32 { return r.mt.Float32() }

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.mt.Float64() }

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.mt.intn(n) }

// NormFloat32 returns a standard normal sample.
func (r *Rand) NormFloat32() float32 { return float32(r.mt.norm()) }

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

func (g *gauss) intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := g.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// norm produces standard normal samples via the Marsaglia polar method.
func (g *gauss) norm() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			g.spare = v * f
			g.hasSpare = true
			return u * f
		}
	}
}

// Pool generates random matrices in parallel. Each BlockSize-element block
// of a fill is produced by its own seeded stream, so output is independent
// of worker count. A Pool is safe for concurrent use by multiple
// goroutines as long as Reseed is not called concurrently with fills.
type Pool struct {
	mu      sync.Mutex
	seed    uint64
	counter uint32 // distinct stream namespace per fill
}

// NewPool returns a pool with the given master seed.
func NewPool(seed uint64) *Pool { return &Pool{seed: seed} }

// Reseed resets the master seed and the fill counter.
func (p *Pool) Reseed(seed uint64) {
	p.mu.Lock()
	p.seed = seed
	p.counter = 0
	p.mu.Unlock()
}

// Cursor returns the pool's master seed and fill counter. Together they
// pin the pool's position in its deterministic fill sequence: a pool
// restored with SetCursor produces bit-identical fills from that point
// on. Checkpoints persist this so resumed training replays the same
// mask/share draws as an uninterrupted run.
func (p *Pool) Cursor() (seed uint64, fills uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seed, p.counter
}

// SetCursor restores a position previously captured with Cursor.
func (p *Pool) SetCursor(seed uint64, fills uint32) {
	p.mu.Lock()
	p.seed = seed
	p.counter = fills
	p.mu.Unlock()
}

// nextFill reserves a stream namespace for one fill operation.
func (p *Pool) nextFill() (uint64, uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.counter
	p.counter++
	return p.seed, c
}

// fill runs gen over the matrix under the pool's next fill id, each
// BlockSize block on its own stream. In dry-run mode (tensor.SetCompute(false))
// it still reserves the fill ID — keeping fill sequences aligned between dry
// and real runs — but generates nothing.
func (p *Pool) fill(m *tensor.Matrix, gen func(g *gauss, out []float32)) {
	seed, fillID := p.nextFill()
	if !tensor.ComputeEnabled() {
		return
	}
	forBlocks(len(m.Data), func(lo, hi int) {
		g := newBlockStream(seed, fillID, uint32(lo/BlockSize))
		gen(g, m.Data[lo:hi])
		putBlockStream(g)
	})
}

// forBlocks calls fill on every BlockSize chunk [lo, hi) of n elements, in
// parallel. A chunk's values must depend on its own bounds alone — a Pool
// fill seeds a stream per block, a keyed fill starts its counter at the
// block — so the output is the same for every worker count.
func forBlocks(n int, fill func(lo, hi int)) {
	blocks := (n + BlockSize - 1) / BlockSize
	if blocks == 0 {
		return
	}
	workers := min(tensor.MaxWorkers(), blocks)
	// Single-worker fills (small matrices, or a 1-worker configuration)
	// run inline: no goroutine, mutex, or WaitGroup escapes.
	if workers == 1 {
		for lo := 0; lo < n; lo += BlockSize {
			fill(lo, min(lo+BlockSize, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
				fill(b*BlockSize, min((b+1)*BlockSize, n))
			}
		}()
	}
	wg.Wait()
}

// FillUniform fills m with uniform values in [lo, hi).
func (p *Pool) FillUniform(m *tensor.Matrix, lo, hi float32) {
	span := hi - lo
	p.fill(m, func(g *gauss, out []float32) {
		for i := range out {
			out[i] = lo + span*g.Float32()
		}
	})
}

// FillNormal fills m with normal(mean, std) values.
func (p *Pool) FillNormal(m *tensor.Matrix, mean, std float32) {
	p.fill(m, func(g *gauss, out []float32) {
		for i := range out {
			out[i] = mean + std*float32(g.norm())
		}
	})
}

// FillBernoulli fills m with value v with probability density, else 0 —
// used to synthesize matrices with a controlled sparsity profile.
func (p *Pool) FillBernoulli(m *tensor.Matrix, density float64, v func(g *Rand) float32) {
	p.fill(m, func(g *gauss, out []float32) {
		r := &Rand{mt: g}
		for i := range out {
			if g.Float64() < density {
				out[i] = v(r)
			} else {
				out[i] = 0
			}
		}
	})
}

// NewUniform allocates and fills a rows×cols matrix with uniform [lo, hi).
func (p *Pool) NewUniform(rows, cols int, lo, hi float32) *tensor.Matrix {
	m := tensor.New(rows, cols)
	p.FillUniform(m, lo, hi)
	return m
}

// NewNormal allocates and fills a rows×cols matrix with normal(mean, std).
func (p *Pool) NewNormal(rows, cols int, mean, std float32) *tensor.Matrix {
	m := tensor.New(rows, cols)
	p.FillNormal(m, mean, std)
	return m
}

// FillUniformSerial is the single-threaded reference fill used by the
// Fig. 14 CPU-optimization experiment and the determinism tests.
func FillUniformSerial(m *tensor.Matrix, seed uint64, fillID uint32, lo, hi float32) {
	span := hi - lo
	n := len(m.Data)
	for b := 0; b*BlockSize < n; b++ {
		blo := b * BlockSize
		bhi := blo + BlockSize
		if bhi > n {
			bhi = n
		}
		g := newBlockStream(seed, fillID, uint32(b))
		out := m.Data[blo:bhi]
		for i := range out {
			out[i] = lo + span*g.Float32()
		}
		putBlockStream(g)
	}
}

// LockedRand is the anti-pattern the paper warns against (§5.1): a single
// generator behind a mutex. It exists so the CPU-optimization benchmarks
// can demonstrate why per-worker generators matter.
type LockedRand struct {
	mu sync.Mutex
	mt *mt19937.MT19937
}

// NewLockedRand returns a mutex-guarded MT19937.
func NewLockedRand(seed uint32) *LockedRand {
	return &LockedRand{mt: mt19937.New(seed)}
}

// Float32 returns a uniform [0,1) value under the lock.
func (l *LockedRand) Float32() float32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mt.Float32()
}

// FillUniformLocked fills m in parallel through a single locked generator —
// deliberately slow; benchmark material only.
func FillUniformLocked(m *tensor.Matrix, l *LockedRand, lo, hi float32) {
	span := hi - lo
	var wg sync.WaitGroup
	workers := tensor.MaxWorkers()
	chunk := (len(m.Data) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		cLo := w * chunk
		if cLo >= len(m.Data) {
			break
		}
		cHi := cLo + chunk
		if cHi > len(m.Data) {
			cHi = len(m.Data)
		}
		wg.Add(1)
		go func(out []float32) {
			defer wg.Done()
			for i := range out {
				out[i] = lo + span*l.Float32()
			}
		}(m.Data[cLo:cHi])
	}
	wg.Wait()
}
