package tripletpool

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
)

// Dealer is the trusted-dealer precompute service (cmd/psml-dealer):
// the third, non-colluding party of the SecureML offline phase. It hands
// each computation party a stream key on that party's own connection and
// ships party 1 the one matrix of every triplet that no key expands — the
// correction Z₁ (proto.go, derive.go). The two halves of one triplet never
// travel on (or to) the same endpoint, which is the invariant that lets the
// precompute tier live server-side at all.
//
// Triplet streams are per shape and random-access; with a fixed Seed
// triplet j of a shape is a pure function of (Seed, shape, j) —
// NewStreamSource's determinism — so a dealer restart or a reference run
// reproduces the exact stream, and the dealer keeps no stream state at all:
// every ASK names the seqs it wants. Seed 0 draws a random base at
// startup: reproducibility off, which is what a production deployment wants
// (a predictable triplet stream is a broken one). A party that reconnects to
// a dealer on another base sees another key and fails its feed
// (ErrDealerReseeded) instead of combining halves of two streams.
type Dealer struct {
	cfg  DealerConfig
	keys [2][16]byte
	tick time.Duration // dealerTick; a test shrinks it before Serve

	mu    sync.Mutex
	conns map[uint64]int // live connections per pair id
}

// DealerConfig tunes a Dealer. The zero value selects the defaults.
type DealerConfig struct {
	// Seed is the base of the deterministic per-shape triplet streams.
	// 0 draws a cryptographically random base at startup (streams are
	// then unpredictable and unreproducible — the production setting).
	Seed uint64
	// MaxInflight is accepted and ignored: nothing is held per stream any
	// more, so there is no window to bound. It stays a field only because
	// benchmark/inproc.go sets it (ROADMAP item 1 deletes it).
	MaxInflight int
	// Log receives structured dealer events; nil silences them.
	Log *obs.Logger
}

// Dealer accounting, exposed as psml_dealer_* metrics.
var (
	dealerPairsActive  atomic.Int64
	dealerTripletsSent atomic.Int64
	dealerGenerated    atomic.Int64
	dealerAsks         atomic.Int64
)

func init() {
	obs.Default.FuncGauge("psml_dealer_pairs_active", "Server pairs with at least one party connected to the triplet dealer.", func() float64 {
		return float64(dealerPairsActive.Load())
	})
	obs.Default.FuncCounter("psml_dealer_triplet_shares_sent_total", "Triplet correction shares (Z1) streamed to computation parties.", func() float64 {
		return float64(dealerTripletsSent.Load())
	})
	obs.Default.FuncCounter("psml_dealer_generated_total", "Beaver triplets generated by the dealer.", func() float64 {
		return float64(dealerGenerated.Load())
	})
	obs.Default.FuncCounter("psml_dealer_asks_total", "ASK frames received from computation parties.", func() float64 {
		return float64(dealerAsks.Load())
	})
}

// NewDealer constructs a Dealer. See DealerConfig.Seed for the
// reproducibility contract.
func NewDealer(cfg DealerConfig) *Dealer {
	base := cfg.Seed
	if base == 0 {
		var b [8]byte
		cryptorand.Read(b[:]) // a zero base on error still serves, just predictably
		base = binary.LittleEndian.Uint64(b[:])
	}
	return &Dealer{cfg: cfg, keys: partyKeys(base), tick: dealerTick, conns: make(map[uint64]int)}
}

// Serve accepts party connections until ctx is cancelled or the
// listener dies. Each accepted connection is one party's long-lived
// feed; a failed connection takes nothing with it.
func (d *Dealer) Serve(ctx context.Context, ln net.Listener) error {
	err := comm.ServeConns(ctx, ln, func(conn *comm.Conn) {
		if err := d.serveConn(ctx, conn); err != nil && ctx.Err() == nil {
			d.cfg.Log.Error("dealer_conn", err)
		}
	}, func(err error, failures int) { d.cfg.Log.Error("accept", err, "failures", failures) })
	if err != nil {
		return fmt.Errorf("tripletpool: dealer %w", err)
	}
	return nil
}

// serveConn runs one party connection: the hello, the party's KEY, then —
// party 1 only — each ASK answered with its FEED frames until the connection
// dies, with comm.Watch ticking beside it all the while (proto.go). The
// connection is all there is: a party that lost it dials another and asks
// again.
//
// Generation and delivery run here, on the connection's own goroutine, and
// the only one held up meanwhile is this connection's next ASK. Party 1 asks
// in batches (DealerClient.ensureCredit), so delivery runs ahead of demand.
func (d *Dealer) serveConn(ctx context.Context, conn *comm.Conn) error {
	defer conn.Close()
	conn.SetTimeouts(10*time.Second, 10*time.Second)
	f, err := conn.ReadFrame()
	if err != nil {
		return fmt.Errorf("tripletpool: dealer hello read: %w", err)
	}
	party, pairID, err := decodeDealerHello(f)
	if err != nil {
		return err
	}
	d.track(pairID, +1)
	defer d.track(pairID, -1)
	d.cfg.Log.Event("dealer_party_joined", "pair", pairID, "party", party)
	if err := conn.WriteFrame(encodeKey(d.keys[party])); err != nil {
		return fmt.Errorf("tripletpool: dealer KEY: %w", err)
	}
	// Reads idle between ASKs; only writes stay bounded. Serve's ending closes
	// the connection, which ends the read.
	var frame []byte
	err = comm.Watch(conn, d.tick, 0, func(f []byte) error {
		if party == 0 {
			return errors.New("tripletpool: frame from party 0, which derives its halves and is owed nothing")
		}
		s, from, count, err := decodeAsk(f)
		if err != nil {
			return err
		}
		dealerAsks.Add(1)
		streams := streamKeys(d.keys, s)
		// The ASK's corrections run in stores mpc.Lender lends for its run.
		lend := mpc.Lender()
		c := newCorrection(s, lend)
		for seq := from; seq < from+uint64(count); seq++ {
			frame = c.appendFeed(frame[:0], streams, s, seq)
			dealerGenerated.Add(1)
			if err := conn.WriteFrame(frame); err != nil {
				return fmt.Errorf("tripletpool: dealer FEED: %w", err)
			}
			dealerTripletsSent.Add(1)
		}
		lend.Put(c.u)
		lend.Put(c.v)
		lend.Put(c.z1)
		return nil
	})
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// track counts pairID's live connections for psml_dealer_pairs_active.
func (d *Dealer) track(pairID uint64, delta int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	was := d.conns[pairID]
	d.conns[pairID] = was + delta
	switch {
	case was == 0:
		dealerPairsActive.Add(1)
	case was+delta == 0:
		delete(d.conns, pairID)
		dealerPairsActive.Add(-1)
		d.cfg.Log.Event("dealer_pair_dropped", "pair", pairID)
	}
}
