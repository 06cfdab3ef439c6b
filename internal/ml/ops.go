package ml

// Operation metadata: every layer reports the dense-algebra operations one
// batch pass performs, so the benchmark harness can charge the same
// workload to any hardware model (plain CPU, plain GPU, or the secure
// protocol's cost structure) without re-deriving shapes.

// opKind classifies an operation.
type opKind int

// Operation kinds.
const (
	OpGemm opKind = iota // dense m×k × k×n multiplication
	OpElem               // memory-bound element-wise pass
)

// Op is one operation of a pass.
type Op struct {
	Kind    opKind
	M, K, N int // GEMM geometry (Kind == OpGemm)
	Bytes   int // streamed bytes (Kind == OpElem)
}

// GemmOp builds GEMM metadata.
func GemmOp(m, k, n int) Op { return Op{Kind: OpGemm, M: m, K: k, N: n} }

// ElemOp builds element-wise metadata.
func ElemOp(bytes int) Op { return Op{Kind: OpElem, Bytes: bytes} }
