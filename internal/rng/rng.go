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
	"sync"
	"sync/atomic"

	"parsecureml/internal/mt19937"
	"parsecureml/internal/tensor"
)

// blockSize is the number of elements generated per independent MT19937
// stream. Seeding MT19937 costs one 624-word state pass, amortized over
// blockSize outputs (<2 % overhead).
const blockSize = 8192

// Rand is a single deterministic random stream (not safe for concurrent
// use). It wraps MT19937 with the distributions the framework needs.
type Rand struct {
	mt *mtStream
}

// mtStream is an MT19937 core with the bounded-integer draw.
type mtStream struct{ *mt19937.MT19937 }

// NewRand returns a stream seeded from a 64-bit seed.
func NewRand(seed uint64) *Rand {
	g := &mtStream{MT19937: &mt19937.MT19937{}}
	g.SeedSlice([]uint32{uint32(seed), uint32(seed >> 32)})
	return &Rand{mt: g}
}

// streamPool recycles per-block generator states across fills. Seeding
// rewrites the entire 624-word MT19937 state, so a recycled stream is
// bit-identical to a fresh one — only the ~2.5 KB state allocation is
// saved. The wire serving path draws one activation mask per layer per
// request; without recycling that state array is the dominant steady-state
// garbage.
var streamPool = sync.Pool{New: func() any { return &mtStream{MT19937: &mt19937.MT19937{}} }}

// newBlockStream seeds a recycled stream for block `block` of a Pool's fill
// fillID under seed.
//
// The fill id's low 16 bits share a key word with the block index — the
// layout every golden value and checkpoint cursor was drawn under — and its
// high 16 bits join the key as a fifth word only when set. Shifting the whole
// id into that one word, as this did, dropped them: fill 65 536 seeded fill
// 0's streams and every pool repeated itself from there. Fills below 65 536
// keep their streams bit for bit.
func newBlockStream(seed uint64, fillID, block uint32) *mtStream {
	g := streamPool.Get().(*mtStream)
	key := [5]uint32{uint32(seed), uint32(seed >> 32), fillID<<16 ^ block, 0x9e3779b9, fillID >> 16}
	n := 4
	if key[4] != 0 {
		n = 5
	}
	g.SeedSlice(key[:n])
	return g
}

func putBlockStream(g *mtStream) { streamPool.Put(g) }

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

func (g *mtStream) intn(n int) int {
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

// Pool generates random matrices in parallel. Each blockSize-element block
// of a fill is produced by its own seeded stream, so output is independent
// of worker count. A Pool is safe for concurrent use by multiple
// goroutines as long as SetCursor is not called concurrently with fills.
type Pool struct {
	mu      sync.Mutex
	seed    uint64
	counter uint32 // distinct stream namespace per fill
}

// NewPool returns a pool with the given master seed.
func NewPool(seed uint64) *Pool { return &Pool{seed: seed} }

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
// blockSize block on its own stream. In dry-run mode (tensor.SetCompute(false))
// it still reserves the fill ID — keeping fill sequences aligned between dry
// and real runs — but generates nothing.
func (p *Pool) fill(m *tensor.Matrix, gen func(g *mtStream, out []float32)) {
	seed, fillID := p.nextFill()
	if !tensor.ComputeEnabled() {
		return
	}
	forBlocks(len(m.Data), func(lo, hi int) {
		g := newBlockStream(seed, fillID, uint32(lo/blockSize))
		gen(g, m.Data[lo:hi])
		putBlockStream(g)
	})
}

// forBlocks calls fill on every blockSize chunk [lo, hi) of n elements, in
// parallel. A chunk's values must depend on its own bounds alone — a Pool
// fill seeds a stream per block, a keyed fill starts its counter at the
// block — so the output is the same for every worker count.
func forBlocks(n int, fill func(lo, hi int)) {
	blocks := (n + blockSize - 1) / blockSize
	if blocks == 0 {
		return
	}
	workers := min(tensor.MaxWorkers(), blocks)
	// Single-worker fills (small matrices, or a 1-worker configuration)
	// run inline: no goroutine, mutex, or WaitGroup escapes.
	if workers == 1 {
		for lo := 0; lo < n; lo += blockSize {
			fill(lo, min(lo+blockSize, n))
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
				fill(b*blockSize, min((b+1)*blockSize, n))
			}
		}()
	}
	wg.Wait()
}

// FillUniform fills m with uniform values in [lo, hi).
func (p *Pool) FillUniform(m *tensor.Matrix, lo, hi float32) {
	span := hi - lo
	p.fill(m, func(g *mtStream, out []float32) {
		for i := range out {
			out[i] = lo + span*g.Float32()
		}
	})
}

// FillBernoulli fills m with value v with probability density, else 0 —
// used to synthesize matrices with a controlled sparsity profile.
func (p *Pool) FillBernoulli(m *tensor.Matrix, density float64, v func(g *Rand) float32) {
	p.fill(m, func(g *mtStream, out []float32) {
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
