package tripletpool

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
)

// ErrDealerReseeded reports that the dealer a feed reconnected to hands out
// another stream key than the one the feed holds: a dealer restarted on
// another base (the default -seed 0 draws a fresh one per start). The halves
// this party still buffers or would derive belong to a stream the new dealer
// does not serve, so the feed fails for good instead of letting the pair
// combine halves of two different triplets.
var ErrDealerReseeded = errors.New("tripletpool: dealer restarted on another base")

// DealerClient is a computation party's end of the dealer feed: an
// mpc.TripletFeed backed by one connection to cmd/psml-dealer at a time. The
// dealer hands it this party's stream key on every connection, and from there
// the two parties differ (proto.go):
//
// Party 0 derives every half itself (deriveHalf). It sends the dealer
// nothing and waits for nothing: a background goroutine keeps Depth halves
// per shape derived ahead of the allocation cursor so Next is a buffer pop,
// and a seq that is not there yet — a shape's first draw, a burst past Depth,
// a Take out of order — is derived on the caller's goroutine. A dealer outage
// does not reach it at all.
//
// Party 1 derives U₁ ‖ V₁ and is shipped the correction Z₁. Credits (WANT
// frames) are issued lazily per shape, keeping between Depth/2 and Depth
// triplets of headroom beyond what is being taken, so the dealer's
// generation follows observed demand instead of guessing shapes up front.
// A RESUME frame opens a stream at the seq a Take needs — on first use, when
// a Take lands outside the run of seqs already asked for, and again on every
// new connection, when each waiting Take re-states its own seq — and because
// the stream is a pure function of (key, shape, seq) what a restarted dealer
// sends is bit-identical to what the dead one would have.
//
// A read that fails — at once when the dealer is killed, after silentTicks of
// silence when it is wedged — ends the connection and readLoop dials the next:
// a dealer crash (or standby takeover) is an outage, not a failure. Only the
// retry budget running out, or a dealer on another base (ErrDealerReseeded),
// fails the feed — for both parties.
type DealerClient struct {
	party   int
	depth   int
	hello   []byte
	connect func() (*comm.Conn, error)
	retry   comm.RetryConfig
	tick    time.Duration  // dealerTick; a test shrinks it
	key     uint64         // this party's stream key, as the first KEY frame stated it
	stop    chan struct{}  // closed with the first failure: ends a redial's backoff
	wg      sync.WaitGroup // readLoop and, on party 0, deriveLoop

	mu     sync.Mutex
	cond   *sync.Cond
	conn   *comm.Conn // the current connection, dead while readLoop dials the next
	shapes map[shape]*feedShape
	behind []shape // party 0: shapes deriveLoop has yet to top up
	gen    uint64  // connection incarnation, from 1; what party 1 asked of an earlier one is void
	err    error
}

// feedShape is one shape's slice of the feed: held-but-unconsumed halves
// keyed by stream seq, the allocation cursor, what was handed out, and the
// run of seqs that are on their way without further asking.
//
// Consumption is out of order: concurrent sessions Take announced seqs
// in whatever order their exchanges land. floor is the lowest seq not
// yet consumed and done records the consumed seqs above it.
type feedShape struct {
	buf   map[uint64]mpc.TripletShares
	next  uint64              // next seq Next will allocate
	floor uint64              // lowest seq not yet consumed
	done  map[uint64]struct{} // consumed seqs above floor (out-of-order holes)
	// [from, covered) is the run of seqs asked for and not yet arrived or
	// already here. Party 1: the credit granted on connection incarnation gen.
	// Party 0: covered alone, deriveLoop's cursor.
	from, covered uint64
	gen           uint64
	queued        bool // party 0: the shape is on DealerClient.behind
}

// consumed reports whether seq's half was already handed out.
func (fs *feedShape) consumed(seq uint64) bool {
	_, done := fs.done[seq]
	return done || seq < fs.floor
}

// consume marks seq consumed and slides floor over any contiguous run
// of done seqs. Caller holds c.mu.
func (fs *feedShape) consume(seq uint64) {
	if seq != fs.floor {
		fs.done[seq] = struct{}{}
		return
	}
	fs.floor++
	for {
		if _, ok := fs.done[fs.floor]; !ok {
			return
		}
		delete(fs.done, fs.floor)
		fs.floor++
	}
}

// FeedConfig tunes a DealerClient. The zero value selects the defaults.
type FeedConfig struct {
	// Depth is the per-shape headroom kept beyond consumption. Party 1 tops
	// its credit up in one WANT whenever less than half of it is left; party 0
	// derives this many halves ahead of its allocation cursor. Default 8.
	Depth int
	// ReconnectAttempts bounds the dials per outage and at start-up. Default 10.
	ReconnectAttempts int
	// ReconnectBase / ReconnectMax shape the jittered exponential backoff
	// between dials (comm.Retry). Defaults 50ms / 2s.
	ReconnectBase, ReconnectMax time.Duration
}

// Feed accounting, exposed as psml_triplet_feed_* metrics.
var (
	feedReceived atomic.Int64
	feedBuffered atomic.Int64
	feedDups     atomic.Int64
	feedResumes  atomic.Int64
	feedWaits    = obs.Default.Histogram("psml_triplet_feed_wait_seconds", "Time requests block waiting for a dealer-fed triplet to arrive.")
)

func init() {
	obs.Default.FuncCounter("psml_triplet_feed_received_total", "Triplet correction shares (Z1) received from the dealer.", func() float64 {
		return float64(feedReceived.Load())
	})
	obs.Default.FuncGauge("psml_triplet_feed_buffered", "Dealer-fed triplet halves delivered or derived ahead but not yet consumed.", func() float64 {
		return float64(feedBuffered.Load())
	})
	obs.Default.FuncCounter("psml_triplet_feed_duplicates_total", "Duplicate or stale triplet deliveries dropped (resume overlap).", func() float64 {
		return float64(feedDups.Load())
	})
	obs.Default.FuncCounter("psml_dealer_resume_sent_total", "RESUME frames sent to the dealer (stream opens and post-restart re-opens).", func() float64 {
		return float64(feedResumes.Load())
	})
}

// NewDealerClient establishes party's feed under pairID. connect dials
// the dealer and is owned by the client for its lifetime: it is called
// for the initial connection and again after every connection failure, so a
// restarted dealer is re-reached automatically (use a plain dial — the
// client owns the retry/backoff policy and the read deadline, and keeps the
// write deadline connect set).
func NewDealerClient(connect func() (*comm.Conn, error), party int, pairID uint64, cfg FeedConfig) (*DealerClient, error) {
	return newDealerClient(connect, party, pairID, cfg, dealerTick)
}

func newDealerClient(connect func() (*comm.Conn, error), party int, pairID uint64, cfg FeedConfig, tick time.Duration) (*DealerClient, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = 8
	}
	if cfg.ReconnectAttempts <= 0 {
		cfg.ReconnectAttempts = 10
	}
	c := &DealerClient{
		party:   party,
		depth:   cfg.Depth,
		hello:   encodeDealerHello(party, pairID),
		connect: connect,
		retry:   comm.RetryConfig{Attempts: cfg.ReconnectAttempts, BaseDelay: cfg.ReconnectBase, MaxDelay: cfg.ReconnectMax},
		tick:    tick,
		stop:    make(chan struct{}),
		shapes:  make(map[shape]*feedShape),
	}
	c.cond = sync.NewCond(&c.mu)
	// Nothing can be derived without the key, so the constructor waits for the
	// first connection's.
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.readLoop(conn)
	if party == 0 {
		c.wg.Add(1)
		go c.deriveLoop()
	}
	return c, nil
}

// Close tears the feed down and waits for its goroutines; blocked Next/Take
// calls fail.
func (c *DealerClient) Close() {
	c.fail(errors.New("tripletpool: dealer feed closed"))
	c.wg.Wait()
}

// fail makes err the feed's sticky failure (the first one wins), ends its
// connection and wakes every waiter.
func (c *DealerClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.stop)
		c.conn.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// dial reaches the dealer under the retry budget — a dealer that accepts and
// then says nothing is a failed attempt like one that refuses — and makes the
// connection the feed's next incarnation, which wakes the waiters.
func (c *DealerClient) dial() (*comm.Conn, error) {
	var conn *comm.Conn
	err := comm.Retry("dealer feed dial", c.retry, c.stop, func() (bool, error) {
		var err error
		if conn, err = c.connect(); err != nil {
			return true, err
		}
		if err = c.greet(conn); err != nil {
			conn.Close()
		}
		return err != nil && !errors.Is(err, ErrDealerReseeded), err
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && c.err != nil { // closed meanwhile
		conn.Close()
		err = c.err
	}
	if err != nil {
		return nil, err
	}
	c.conn, c.gen = conn, c.gen+1
	c.cond.Broadcast()
	return conn, nil
}

// greet runs a fresh connection's hello → KEY exchange inside helloTicks and
// leaves conn with the read deadline that makes a silent dealer a dead one.
// (gen is read unlocked: dial, the one caller, is its one writer.)
func (c *DealerClient) greet(conn *comm.Conn) error {
	_, writeTO := conn.Timeouts()
	conn.SetTimeouts(helloTicks*c.tick, writeTO)
	if err := conn.WriteFrame(c.hello); err != nil {
		return fmt.Errorf("tripletpool: dealer hello: %w", err)
	}
	f, err := conn.ReadFrame()
	if err != nil {
		return fmt.Errorf("tripletpool: dealer KEY: %w", err)
	}
	conn.SetTimeouts(silentTicks*c.tick, writeTO)
	if c.gen == 0 {
		c.key, err = decodeKey(f)
		return err
	}
	return c.checkKey(f)
}

// checkKey holds a KEY frame after the feed's first against that one's key.
func (c *DealerClient) checkKey(f []byte) error {
	if key, err := decodeKey(f); err != nil || key == c.key {
		return err
	}
	err := fmt.Errorf("party %d holds halves of a stream the dealer no longer serves: %w", c.party, ErrDealerReseeded)
	obs.LogfLogger(log.Printf).Error("dealer_reseeded", err, "party", c.party)
	return err
}

// readLoop owns the feed's connection, conn and every one after it. A read
// error is the connection's end, never the feed's: what was asked on it is void,
// and the next one's waking waiters each ask again for their seq (waitLocked).
func (c *DealerClient) readLoop(conn *comm.Conn) {
	defer c.wg.Done()
	for {
		err := c.readConn(conn)
		conn.Close()
		if err == nil {
			conn, err = c.dial()
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// readConn takes what the dealer sends on one connection until a read fails
// (nil) or a frame breaks the protocol (the feed's failure): ticks, which only
// have to arrive; a KEY, held against the feed's own; and, on party 1, FEED
// frames, each completed into a half with the U₁ ‖ V₁ derived here, off every
// request's path. A resumed stream re-delivers from the consumption floor, so
// already-held and already-consumed seqs are dropped as duplicates. Anything
// else — a FEED to party 0, an unasked shape, a matrix that is not the shape's
// Z — is not this protocol.
func (c *DealerClient) readConn(conn *comm.Conn) error {
	for {
		f, err := conn.ReadFrame()
		if err != nil {
			return nil
		}
		if len(f) == 0 {
			continue // a tick
		}
		if len(f) == keyBytes {
			if err := c.checkKey(f); err != nil {
				return err
			}
			continue
		}
		s, seq, z1, err := decodeFeedFrame(f)
		if err != nil {
			return err
		}
		feedReceived.Add(1)
		c.mu.Lock()
		fs, asked := c.shapes[s]
		if c.party == 0 || !asked {
			c.mu.Unlock()
			return fmt.Errorf("tripletpool: party %d was sent a FEED frame for %dx%dx%d it did not ask for", c.party, s.M, s.K, s.N)
		}
		_, dup := fs.buf[seq]
		dup = dup || fs.consumed(seq)
		c.mu.Unlock()
		if dup {
			feedDups.Add(1)
			continue
		}
		t := deriveHalf(c.key, 1, s, seq)
		t.Z = z1
		c.mu.Lock()
		c.holdLocked(fs, seq, t)
		c.mu.Unlock()
	}
}

// holdLocked buffers seq's half unless it was taken or buffered meanwhile.
// Caller holds c.mu.
func (c *DealerClient) holdLocked(fs *feedShape, seq uint64, t mpc.TripletShares) {
	if _, held := fs.buf[seq]; held || fs.consumed(seq) {
		return
	}
	fs.buf[seq] = t
	feedBuffered.Add(1)
	c.cond.Broadcast()
}

// deriveLoop is party 0's look-ahead: it keeps every shape's halves derived
// up to Depth past the allocation cursor, one keyed fill at a time with the
// lock dropped, so a steady session's Next finds its half waiting. It is an
// optimisation only — waitLocked derives whatever is not there.
func (c *DealerClient) deriveLoop() {
	defer c.wg.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil {
		if len(c.behind) == 0 {
			c.cond.Wait()
			continue
		}
		s := c.behind[0]
		fs := c.shapes[s]
		if fs.covered >= fs.next+uint64(c.depth) {
			c.behind, fs.queued = c.behind[1:], false
			continue
		}
		seq := fs.covered
		fs.covered++
		if _, held := fs.buf[seq]; held || fs.consumed(seq) {
			continue
		}
		c.mu.Unlock()
		t := deriveHalf(c.key, 0, s, seq)
		c.mu.Lock()
		c.holdLocked(fs, seq, t)
	}
}

// shape returns s's state, creating it. Caller holds c.mu.
func (c *DealerClient) shape(s shape) *feedShape {
	fs, ok := c.shapes[s]
	if !ok {
		fs = &feedShape{
			buf:  make(map[uint64]mpc.TripletShares),
			done: make(map[uint64]struct{}),
		}
		c.shapes[s] = fs
	}
	return fs
}

// maxExtend is how far past the end of its open run a Take still extends the
// run with a WANT instead of opening a new one: the seqs between belong to
// sessions whose Takes land out of order, up to a burst of this many, and are
// wanted anyway.
const maxExtend = 256

// ensureCredit makes sure party 1 has asked the dealer, on the current
// connection, for seq `need` of the shape plus headroom.
//
// Inside the shape's open run (or within maxExtend past its end) the run is
// extended: when fewer than half of Depth (rounded up, so depth 1 still asks
// one ahead) credits remain beyond `need` it tops them up to Depth in one
// WANT. Otherwise — first use, first need since a reconnect, a Take far out of
// order — it opens a run at `need` with a RESUME. Moving the dealer's cursor
// strands nobody: the dealer ships each ctl frame's credit in full before it
// reads the next, so whatever was asked on this connection is already on the
// wire. A run that ends close above `need` keeps its end, so the waiters just
// above are covered by this one RESUME instead of one each. floor, the lowest
// seq not yet consumed, is where a stream re-opens after a reconnect.
//
// Caller holds c.mu, and the write happens without dropping it, while readLoop
// needs c.mu to bank each FEED frame and the dealer reads no ctl frame before
// it has shipped the last one's credit. That cannot wedge, because the write
// cannot block: a call writes at most one ctl frame per connection, and a
// shape's next frame is due only once a Take lands in the upper half of the
// last one's credit, so what lies unread in the socket is at most one frame of
// 29 bytes per call in flight plus a couple per shape from calls that returned
// — under 3 KB at 80 sessions, inside any socket buffer. A write that fails is
// the connection's failure, not the feed's: readLoop replaces the connection,
// and the next incarnation makes this call ask again.
func (c *DealerClient) ensureCredit(s shape, fs *feedShape, need uint64) {
	var frame []byte
	target := need + 1 + uint64(c.depth)
	if fs.gen == c.gen && need >= fs.from && need <= fs.covered+maxExtend {
		if fs.covered >= need+1+uint64((c.depth+1)/2) {
			return // at least half the headroom left
		}
		frame = encodeWant(s, int(target-fs.covered))
		fs.covered = target
	} else {
		from := need
		if fs.gen != c.gen && need-fs.floor <= maxExtend {
			// The incarnation's first ask: open at the consumption floor, at or
			// below every waiting Take, so the ones that ask next all land inside
			// this run instead of each moving it down again.
			from = fs.floor
		}
		if target < fs.covered && fs.covered <= need+maxExtend {
			target = fs.covered
		}
		frame = encodeResume(s, from, int(target-from))
		fs.gen, fs.from, fs.covered = c.gen, from, target
	}
	if c.conn.WriteFrame(frame) != nil {
		c.conn.Close() // readLoop's read fails with it
	} else if frame[0] == ctlResume {
		feedResumes.Add(1)
	}
}

// Next implements mpc.TripletFeed: pop this party's share of the next
// unconsumed triplet in s's stream — on party 1, waiting for the dealer if
// its correction has not arrived yet.
func (c *DealerClient) Next(m, k, n int) (uint64, mpc.TripletShares, error) {
	s := shape{M: m, K: k, N: n}
	span := feedWaits.Start()
	defer span.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.shape(s)
	seq := fs.next
	fs.next++
	t, err := c.waitLocked(s, fs, seq)
	return seq, t, err
}

// Take implements mpc.TripletFeed: the share of triplet seq of s's
// stream, waiting for delivery.
func (c *DealerClient) Take(m, k, n int, seq uint64) (mpc.TripletShares, error) {
	s := shape{M: m, K: k, N: n}
	span := feedWaits.Start()
	defer span.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.shape(s)
	if seq >= fs.next {
		fs.next = seq + 1
	}
	return c.waitLocked(s, fs, seq)
}

// waitLocked pops triplet seq of shape s, first making sure it is on its way.
// Party 1 asks the dealer for it — once per connection: a reconnect
// mid-wait makes it ask again, a run that moved elsewhere does not — and
// blocks until the correction arrives. Party 0 nudges deriveLoop and, when the
// half is not there, derives it here with the lock dropped — it never blocks.
// A seq that was already consumed — before the call or by a concurrent one
// meanwhile — fails with mpc.ErrTripletConsumed: a half is handed out once,
// and readLoop drops a re-delivery as a duplicate, so waiting for it would
// never end. A feed failure is sticky (c.err) and fails every caller.
func (c *DealerClient) waitLocked(s shape, fs *feedShape, seq uint64) (mpc.TripletShares, error) {
	var asked uint64 // the incarnation this call asked on; 0 is none
	for {
		if c.err != nil {
			return mpc.TripletShares{}, c.err
		}
		if fs.consumed(seq) {
			return mpc.TripletShares{}, fmt.Errorf("tripletpool: %dx%dx%d seq %d: %w", s.M, s.K, s.N, seq, mpc.ErrTripletConsumed)
		}
		if c.party == 0 {
			if fs.covered < seq {
				fs.covered = seq // a Take far ahead: the seqs skipped are derived when taken
			}
			// Wake deriveLoop when less than half of Depth (rounded up) is left
			// ahead, as party 1 tops its credit up: one draw in several pays
			// the wake-up, not every one.
			if !fs.queued && fs.covered < fs.next+uint64((c.depth+1)/2) {
				c.behind, fs.queued = append(c.behind, s), true
				c.cond.Broadcast()
			}
		} else if asked != c.gen {
			c.ensureCredit(s, fs, seq)
			asked = c.gen
		}
		if t, ok := fs.buf[seq]; ok {
			delete(fs.buf, seq)
			feedBuffered.Add(-1)
			fs.consume(seq)
			return t, nil
		}
		if c.party == 0 {
			c.mu.Unlock()
			t := deriveHalf(c.key, 0, s, seq)
			c.mu.Lock()
			c.holdLocked(fs, seq, t)
			continue
		}
		c.cond.Wait()
	}
}
