package hw

import "testing"

// TestBatchCrossoverQueries pins the exchange cost queries: the fixed term
// is linear in frame count, the transfer term grows with the payload.
func TestBatchCrossoverQueries(t *testing.T) {
	p := Paper()

	if got := mulExchangeBytes(32, 16, 8); got != 4*(32*16+16*8) {
		t.Fatalf("mulExchangeBytes(32,16,8) = %d", got)
	}

	f1, f4 := p.ExchangeFixedCost(1), p.ExchangeFixedCost(4)
	if f1 <= 0 || f4 != 4*f1 {
		t.Fatalf("fixed cost not linear in frames: %g vs %g", f1, f4)
	}
	if got := p.ExchangeFixedCost(0); got != f1 {
		t.Fatalf("zero frames should clamp to one: %g vs %g", got, f1)
	}

	xfer := p.ExchangeTransferTime(256, 256, 256)
	if xfer <= 0 {
		t.Fatalf("transfer time %g", xfer)
	}
	if big := p.ExchangeTransferTime(512, 256, 256); big <= xfer {
		t.Fatalf("transfer time should grow with payload: %g vs %g", big, xfer)
	}
}
