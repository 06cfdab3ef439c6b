package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parse a cell like "33.8x" or "12.34%" or "123.4" into a float.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func lastRow(tb Table) []string { return tb.Rows[len(tb.Rows)-1] }

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	for _, e := range All() {
		tb := e.Run(opts)
		if tb.ID != e.ID {
			t.Errorf("%s: table ID %q", e.ID, tb.ID)
		}
		if len(tb.Rows) == 0 || len(tb.Header) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		for _, row := range tb.Rows {
			if len(row) > len(tb.Header) {
				t.Errorf("%s: row wider than header: %v", e.ID, row)
			}
		}
		if s := tb.String(); !strings.Contains(s, tb.Title) {
			t.Errorf("%s: rendering lost the title", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig10"); !ok {
		t.Fatal("fig10 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(quickOptions())
	if len(tb.Rows) != 4 {
		t.Fatalf("Table1 rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		slow := cellFloat(t, row[3])
		// Paper: ~2x for all four. Our CNN/MLP land there; linear/logistic
		// run higher because our original baseline models an efficient
		// GEMM whereas the paper's baseline implementation is very slow
		// (32.66 s for linear regression on MNIST ≈ 12 MFLOPS). Guard the
		// shape: a small multiple for the compute-bound models, bounded
		// overhead for the matrix-vector ones (see EXPERIMENTS.md).
		limit := 6.0
		if row[0] == "linear" || row[0] == "logistic" {
			limit = 40
		}
		if slow < 1.1 || slow > limit {
			t.Errorf("Table1 %s slowdown %v outside [1.1, %v]", row[0], slow, limit)
		}
	}
}

func TestFigure10SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := Figure10(opts)
	avg := cellFloat(t, lastRow(tb)[4])
	// Paper: 33.8x average. Shape claim: order of magnitude.
	if avg < 5 || avg > 150 {
		t.Fatalf("overall speedup average %v outside [5,150]", avg)
	}
	// Every individual cell must show ParSecureML ahead.
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		if v := cellFloat(t, row[4]); v <= 1 {
			t.Errorf("%s/%s: speedup %v <= 1", row[0], row[1], v)
		}
	}
}

func TestFigure11OnlineExceedsOverall(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	overall := cellFloat(t, lastRow(Figure10(opts))[4])
	online := cellFloat(t, lastRow(Figure11(opts))[4])
	if online <= overall {
		t.Fatalf("online speedup (%v) should exceed overall (%v), as in the paper (64.5 vs 33.8)", online, overall)
	}
}

func TestFigure12OfflineModest(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := Figure12(opts)
	avg := cellFloat(t, lastRow(tb)[4])
	// Paper: ~1.3x — modest, far below the online speedup.
	if avg < 1.0 || avg > 5 {
		t.Fatalf("offline speedup average %v outside [1.0, 5]", avg)
	}
}

func TestFigure7Crossover(t *testing.T) {
	tb := Figure7(quickOptions())
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[3] != "CPU" {
		t.Fatalf("small matrices should favor CPU: %v", first)
	}
	if last[3] != "GPU" {
		t.Fatalf("16384 should favor GPU: %v", last)
	}
}

func TestFigure8GemmShareGrows(t *testing.T) {
	tb := Figure8(quickOptions())
	prev := -1.0
	for _, row := range tb.Rows {
		share := cellFloat(t, row[1])
		if share < prev {
			t.Fatalf("GEMM share must grow with n: %v", tb.Rows)
		}
		prev = share
	}
	if final := cellFloat(t, tb.Rows[len(tb.Rows)-1][1]); final < 50 {
		t.Fatalf("GEMM share at 16384 = %v%%, paper says >50%%", final)
	}
}

func TestTable3OccupancyDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := Table3(opts)
	last := lastRow(tb)
	sec := cellFloat(t, last[6])
	par := cellFloat(t, last[7])
	if sec < 80 {
		t.Fatalf("SecureML average occupancy %v%%, paper says >90%% mostly", sec)
	}
	if par >= sec {
		t.Fatalf("ParSecureML occupancy (%v%%) must drop below SecureML (%v%%)", par, sec)
	}
}

func TestFigure16SavesTraffic(t *testing.T) {
	tb := Figure16(quickOptions())
	avg := cellFloat(t, lastRow(tb)[4])
	if avg <= 0 {
		t.Fatalf("compression saved nothing: %v%%", avg)
	}
	if avg > 90 {
		t.Fatalf("compression saving %v%% implausibly high", avg)
	}
}

func TestFigure17SpeedupGrowsWithSize(t *testing.T) {
	tb := Figure17(quickOptions())
	first := cellFloat(t, tb.Rows[0][4])
	last := cellFloat(t, tb.Rows[len(tb.Rows)-1][4])
	if last <= first {
		t.Fatalf("speedup must grow with workload size: %v -> %v", first, last)
	}
}

func TestAblationPipelineNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := AblationPipeline(opts)
	for _, row := range tb.Rows {
		if imp := cellFloat(t, row[4]); imp < -0.5 {
			t.Errorf("%s/%s: pipeline hurt by %v%%", row[0], row[1], imp)
		}
	}
}

func TestAblationAdaptiveChoices(t *testing.T) {
	tb := AblationAdaptive(quickOptions())
	if tb.Rows[0][3] != "CPU" {
		t.Fatalf("n=16 should run on CPU: %v", tb.Rows[0])
	}
	n := len(tb.Rows)
	if tb.Rows[n-2][3] != "GPU" {
		t.Fatalf("n=4096 should run on GPU: %v", tb.Rows[n-2])
	}
}

func TestAblationActivationShape(t *testing.T) {
	tb := AblationActivation(quickOptions())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Fit error must improve piecewise -> taylor -> sigmoid(0).
	fitPiece := cellFloat(t, tb.Rows[0][1])
	fitTaylor := cellFloat(t, tb.Rows[1][1])
	fitExact := cellFloat(t, tb.Rows[2][1])
	if !(fitPiece > fitTaylor && fitTaylor > fitExact) || fitExact != 0 {
		t.Fatalf("fit errors not ordered: %v %v %v", fitPiece, fitTaylor, fitExact)
	}
	// The paper's claim: all variants still learn (secure acc tracks plain).
	for _, row := range tb.Rows {
		sec, plain := cellFloat(t, row[2]), cellFloat(t, row[3])
		if plain < 0.9 {
			t.Fatalf("%s: plaintext failed to learn (%v)", row[0], plain)
		}
		if sec < plain-0.05 {
			t.Fatalf("%s: secure accuracy %v lost >5 points vs plaintext %v", row[0], sec, plain)
		}
	}
}

func TestAblationNetworkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("network ablation in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := AblationNetwork(opts)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	ibOff := cellFloat(t, tb.Rows[0][2])
	ibOn := cellFloat(t, tb.Rows[1][2])
	ethOff := cellFloat(t, tb.Rows[2][2])
	ethOn := cellFloat(t, tb.Rows[3][2])
	if ethOff <= ibOff {
		t.Fatalf("slow fabric (%v) must cost more than fast (%v)", ethOff, ibOff)
	}
	if ibOn > ibOff || ethOn > ethOff {
		t.Fatal("compression must never slow a fabric down")
	}
	// Compression's absolute saving must be larger on the slow fabric.
	if (ethOff - ethOn) <= (ibOff - ibOn) {
		t.Fatalf("compression saved less on the slow fabric: %v vs %v", ethOff-ethOn, ibOff-ibOn)
	}
}

func TestAblationMultiGPUMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GPU ablation in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := AblationMultiGPU(opts)
	for _, row := range tb.Rows {
		g1 := cellFloat(t, row[2])
		g2 := cellFloat(t, row[3])
		g4 := cellFloat(t, row[4])
		if !(g1 > g2 && g2 > g4) {
			t.Fatalf("%s/%s: multi-GPU times not monotone: %v %v %v", row[0], row[1], g1, g2, g4)
		}
		if g4 < g1/4 {
			t.Fatalf("%s/%s: super-linear scaling %v -> %v is implausible", row[0], row[1], g1, g4)
		}
	}
}

func TestAblationGPUGenerationOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("gpu-generation ablation in -short mode")
	}
	opts := quickOptions()
	opts.QuickBatches = 2
	tb := AblationGPUGeneration(opts)
	for _, row := range tb.Rows {
		p100 := cellFloat(t, row[2])
		fp32 := cellFloat(t, row[3])
		tc := cellFloat(t, row[4])
		if !(tc <= fp32 && fp32 <= p100) {
			t.Fatalf("%s/%s: generation ordering violated: %v %v %v", row[0], row[1], p100, fp32, tc)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		ID: "x", Title: "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "has,comma"}, {"q\"uote", "2"}},
	}
	csv := tb.CSV()
	want := "a,b\n1,\"has,comma\"\n\"q\"\"uote\",2\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}

// quickOptions is the quick-mode setting every experiment test runs under.
func quickOptions() Options {
	return Options{Quick: true, QuickBatches: 4, Seed: 1}
}
