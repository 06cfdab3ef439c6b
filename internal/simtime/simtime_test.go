package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSerialOnOneResource(t *testing.T) {
	e := NewEngine()
	r := e.Resource("cpu")
	t1 := e.Schedule(r, "w", "a", 2)
	t2 := e.Schedule(r, "w", "b", 3)
	if !almost(t1.Start, 0) || !almost(t1.End, 2) {
		t.Fatalf("t1 [%v,%v]", t1.Start, t1.End)
	}
	if !almost(t2.Start, 2) || !almost(t2.End, 5) {
		t.Fatalf("t2 [%v,%v]: same-resource tasks must serialize", t2.Start, t2.End)
	}
	if !almost(e.Makespan(), 5) {
		t.Fatalf("makespan %v", e.Makespan())
	}
}

func TestParallelOnTwoResources(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(e.Resource("gpu"), "w", "a", 4)
	b := e.Schedule(e.Resource("pcie"), "w", "b", 3)
	if !almost(a.Start, 0) || !almost(b.Start, 0) {
		t.Fatal("independent tasks on distinct resources must overlap")
	}
	if !almost(e.Makespan(), 4) {
		t.Fatalf("makespan %v, want 4", e.Makespan())
	}
}

func TestDependencyDelaysStart(t *testing.T) {
	e := NewEngine()
	h2d := e.Schedule(e.Resource("pcie"), "h2d", "copy", 2)
	k := e.Schedule(e.Resource("gpu"), "gemm", "kernel", 5, h2d)
	if !almost(k.Start, 2) {
		t.Fatalf("kernel start %v, want 2", k.Start)
	}
	if !almost(e.Makespan(), 7) {
		t.Fatalf("makespan %v", e.Makespan())
	}
}

// The Fig. 5 shape: chunked transfers overlapping kernels beat a serial
// transfer-then-compute schedule, and makespan equals the analytic value.
func TestPipelineOverlapBeatsSerial(t *testing.T) {
	const chunks = 8
	const xfer, comp = 1.0, 1.5

	pipe := NewEngine()
	pcie, gpu := pipe.Resource("pcie"), pipe.Resource("gpu")
	var prev *Task
	for i := 0; i < chunks; i++ {
		c := pipe.Schedule(pcie, "h2d", "chunk", xfer)
		prev = pipe.Schedule(gpu, "gemm", "kernel", comp, c, prev)
	}
	pipelined := pipe.Makespan()

	serial := NewEngine()
	pcie2, gpu2 := serial.Resource("pcie"), serial.Resource("gpu")
	var all *Task
	for i := 0; i < chunks; i++ {
		all = serial.Schedule(pcie2, "h2d", "chunk", xfer, all)
	}
	for i := 0; i < chunks; i++ {
		all = serial.Schedule(gpu2, "gemm", "kernel", comp, all)
	}
	serialSpan := serial.Makespan()

	// Analytic: first transfer, then compute dominates: 1 + 8*1.5 = 13.
	if !almost(pipelined, xfer+chunks*comp) {
		t.Fatalf("pipelined makespan %v, want %v", pipelined, xfer+chunks*comp)
	}
	if !almost(serialSpan, chunks*(xfer+comp)) {
		t.Fatalf("serial makespan %v, want %v", serialSpan, chunks*(xfer+comp))
	}
	if pipelined >= serialSpan {
		t.Fatal("pipeline must beat serial")
	}
}

func TestAfterJoins(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(e.Resource("r1"), "w", "a", 2)
	b := e.Schedule(e.Resource("r2"), "w", "b", 7)
	j := e.After(a, b)
	if !almost(j.End, 7) {
		t.Fatalf("join end %v, want 7", j.End)
	}
	c := e.Schedule(e.Resource("r1"), "w", "c", 1, j)
	if !almost(c.Start, 7) {
		t.Fatalf("post-join start %v", c.Start)
	}
}

func TestUtilizationAndKinds(t *testing.T) {
	e := NewEngine()
	gpu := e.Resource("gpu")
	pcie := e.Resource("pcie")
	x := e.Schedule(pcie, "h2d", "c", 2)
	e.Schedule(gpu, "gemm", "k", 8, x)
	if u := gpu.Busy() / e.Makespan(); !almost(u, 0.8) {
		t.Fatalf("gpu utilization %v, want 0.8", u)
	}
	if u := pcie.Busy() / e.Makespan(); !almost(u, 0.2) {
		t.Fatalf("pcie utilization %v", u)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	e.Schedule(e.Resource("r"), "w", "bad", -1)
}

func TestNilDepsIgnored(t *testing.T) {
	e := NewEngine()
	tk := e.Schedule(e.Resource("r"), "w", "a", 1, nil, nil)
	if !almost(tk.Start, 0) {
		t.Fatalf("nil deps must be ignored; start %v", tk.Start)
	}
}

// Property: makespan is monotone — adding a task never reduces it, and is
// at least the sum of durations on the busiest resource.
func TestMakespanInvariants(t *testing.T) {
	f := func(durations []uint8) bool {
		e := NewEngine()
		resources := []*Resource{e.Resource("a"), e.Resource("b"), e.Resource("c")}
		prev := 0.0
		var sum [3]float64
		for i, d8 := range durations {
			if i > 60 {
				break
			}
			d := float64(d8%50) / 10
			r := i % 3
			e.Schedule(resources[r], "w", "t", d)
			sum[r] += d
			m := e.Makespan()
			if m < prev-1e-12 {
				return false
			}
			prev = m
		}
		m := e.Makespan()
		for _, s := range sum {
			if m < s-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
