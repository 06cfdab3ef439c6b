package mpc_test

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
)

// The dealer-feed byte gate: what one 32-cubed triplet costs on the dealer
// links. It lives in the external test package because it needs tripletpool,
// which imports mpc; TestEmitWireBenchBaseline reaches it through the hook
// below.

func init() { mpc.DealerFeedSection = dealerFeedSection }

const (
	dealerFeedDim   = 32
	dealerFeedDepth = 8 // small_routed's -triplet-feed-depth
	// A whole number of party 1's credit cycles (one ASK per five draws at
	// depth 8), after a warm-up that is one too, so every run counts the same
	// frames.
	dealerFeedWarmup   = 10
	dealerFeedTriplets = 100
	// dealerFeedBytesBar bounds bytes per triplet over both dealer
	// connections, both directions. One FEED frame carrying Z₁ alone is
	// 20 + 9 + 4·32·32 = 4 125 B under its 4-byte length prefix, plus a fifth
	// of a 28-byte ASK; a frame that carries U and V again is three times
	// that, and a second party that is shipped its half doubles it again
	// (24 755 B before the halves were derived).
	dealerFeedBytesBar = 4200
)

// dealerFeedBytes deals triplets through a real Dealer over loopback TCP to
// both parties' DealerClients and returns the bytes that crossed the two
// dealer connections per triplet — comm.Conn's own counters, length prefixes
// included, both directions: what small_routed reports as
// trace.feed.bytes_per_req, without the fleet around it.
func dealerFeedBytes(t testing.TB) float64 {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- tripletpool.NewDealer(tripletpool.DealerConfig{Seed: 0x5eed}).Serve(ctx, ln)
	}()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("dealer serve: %v", err)
		}
	}()
	var mu sync.Mutex
	var conns []*comm.Conn
	var feeds [2]*tripletpool.DealerClient
	for party := range feeds {
		feeds[party], err = tripletpool.NewDealerClient(func() (*comm.Conn, error) {
			c, err := comm.Dial(ln.Addr().String())
			if err == nil {
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
			return c, err
		}, party, 1, tripletpool.FeedConfig{Depth: dealerFeedDepth})
		if err != nil {
			t.Fatal(err)
		}
		defer feeds[party].Close()
	}
	draw := func(n int) {
		for i := 0; i < n; i++ {
			seq, _, err := feeds[0].Next(dealerFeedDim, dealerFeedDim, dealerFeedDim)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := feeds[1].Take(dealerFeedDim, dealerFeedDim, dealerFeedDim, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	// settled waits out the frames still in flight — the headroom the dealer
	// ships behind the triplet a Take returned with — and returns the total.
	settled := func() int64 {
		total := func() (n int64) {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range conns {
				st := c.Stats()
				n += st.BytesIn + st.BytesOut
			}
			return n
		}
		for last := total(); ; {
			time.Sleep(10 * time.Millisecond)
			now := total()
			if now == last {
				return now
			}
			last = now
		}
	}
	// The dealer's ticks (4 B every 500 ms on each connection) are the one
	// thing here that follows the clock: the least of three windows is the
	// count without one.
	best := int64(0)
	for w := 0; w < 3; w++ {
		draw(dealerFeedWarmup)
		before := settled()
		draw(dealerFeedTriplets)
		if n := settled() - before; best == 0 || n < best {
			best = n
		}
	}
	if len(conns) != 2 {
		t.Fatalf("%d dealer connections were dialled, want 2: a connection dropped mid-measurement", len(conns))
	}
	return float64(best) / dealerFeedTriplets
}

func dealerFeedSection(t *testing.T) map[string]any {
	got := dealerFeedBytes(t)
	if got > dealerFeedBytesBar {
		t.Errorf("a %d-cubed triplet costs %.1f B on the dealer links, above the %d B bar", dealerFeedDim, got, dealerFeedBytesBar)
	}
	return map[string]any{
		"dim":               dealerFeedDim,
		"feed_depth":        dealerFeedDepth,
		"triplets":          dealerFeedTriplets,
		"bytes_per_triplet": got,
		"what":              "bytes on both dealer connections, both directions, per triplet dealt to a pair (length prefixes and party 1's ASKs included; the least of three windows, so no tick)",
	}
}

// TestDealerFeedBytesBaseline re-measures the dealer links' bytes per triplet
// and fails above dealerFeedBytesBar: a FEED frame made to carry U or V
// again, or a party 0 that is shipped its half again, reads three to six
// times the bar. Gated on BENCH_WIRE_BASELINE like the other baseline tests;
// the committed baseline must itself record a passing count.
func TestDealerFeedBytesBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		DealerFeed struct {
			BytesPerTriplet float64 `json:"bytes_per_triplet"`
		} `json:"dealer_feed"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if b := baseline.DealerFeed.BytesPerTriplet; b <= 0 || b > dealerFeedBytesBar {
		t.Fatalf("baseline %s records dealer_feed bytes_per_triplet %.1f, outside (0, %d]", path, b, dealerFeedBytesBar)
	}
	if got := dealerFeedBytes(t); got > dealerFeedBytesBar {
		t.Errorf("a %d-cubed triplet costs %.1f B on the dealer links (baseline %.1f, bar %d)",
			dealerFeedDim, got, baseline.DealerFeed.BytesPerTriplet, dealerFeedBytesBar)
	} else {
		t.Logf("dealer feed: %.1f B per triplet (baseline %.1f, bar %d)", got, baseline.DealerFeed.BytesPerTriplet, dealerFeedBytesBar)
	}
}
