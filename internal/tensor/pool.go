package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool recycles dense matrix backing stores across requests. The serving
// hot path (internal/mpc's wire pipeline) churns through E/F/D/C matrices
// of a handful of shapes on every request; allocating them fresh puts
// multi-MB garbage on every multiplication. A Pool keys recycled buffers
// by capacity class (next power of two of the element count), so any
// rows×cols request is satisfied by any retired buffer of the same class.
//
// Get returns a matrix with UNINITIALIZED contents: callers must fully
// overwrite it (every kernel writing dst with beta=0 semantics does). A
// Pool is safe for concurrent use; a nil *Pool is no pool — its Get allocates and its Put drops.
type Pool struct {
	classes [maxPoolClass]sync.Pool
	// Recycling accounting: a hit is a Get satisfied by a retired buffer,
	// a miss is a Get that had to allocate. Mirrored into the package
	// totals so the observability layer can expose a process-wide rate.
	hits, misses atomic.Int64
}

// Package-wide pool accounting across every Pool; see PoolTotals.
var poolHits, poolMisses atomic.Int64

// PoolTotals returns process-wide pool recycling counts: Gets served
// from retired buffers (hits) and Gets that allocated (misses). The
// hit rate is the fraction of serving-path matrix demand the pools
// absorb instead of the GC.
func PoolTotals() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// Stats returns this pool's hit/miss counts.
func (p *Pool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// maxPoolClass bounds the recycled capacity classes at 2^31 elements
// (8 GiB of FP32) — anything larger falls through to the GC.
const maxPoolClass = 32

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// poolClass returns the size class for n elements: the smallest c with
// 1<<c >= n. n must be > 0.
func poolClass(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a rows×cols matrix backed by a recycled buffer when one is
// available. Contents are undefined; the caller must overwrite every
// element before reading. In dry-run mode (SetCompute(false)) it returns a
// shape-only matrix, matching New.
func (p *Pool) Get(rows, cols int) *Matrix {
	if p == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic("tensor: Pool.Get with negative dimension")
	}
	if !ComputeEnabled() {
		return &Matrix{Rows: rows, Cols: cols}
	}
	need := rows * cols
	if need == 0 {
		return &Matrix{Rows: rows, Cols: cols, Data: []float32{}}
	}
	c := poolClass(need)
	if c >= maxPoolClass {
		p.misses.Add(1)
		poolMisses.Add(1)
		return New(rows, cols)
	}
	if v := p.classes[c].Get(); v != nil {
		m := v.(*Matrix)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:need]
		p.hits.Add(1)
		poolHits.Add(1)
		return m
	}
	p.misses.Add(1)
	poolMisses.Add(1)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, need, 1<<c)}
}

// Put retires m's backing store for reuse. m must not be used (nor any
// view sharing its Data) after Put. Nil, shape-only, and foreign-capacity
// matrices are dropped silently, so Put is safe on anything Get returned
// and harmless on anything else.
func (p *Pool) Put(m *Matrix) {
	if p == nil || m == nil || cap(m.Data) == 0 {
		return
	}
	c := poolClass(cap(m.Data))
	// Only buffers with exact class capacity re-enter the pool: a Get
	// must be able to reslice to any size in the class.
	if c >= maxPoolClass || cap(m.Data) != 1<<c {
		return
	}
	m.Data = m.Data[:cap(m.Data)]
	p.classes[c].Put(m)
}
