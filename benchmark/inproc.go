package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fleet"
	"parsecureml/internal/hw"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
)

// The traced fleet: the same topology as the multi-process one, put
// together in this process from the constructors the cmd/ mains call,
// with a decorator from trace.go at every boundary between two layers.
// It exists only for the traced run; end-to-end numbers never come from
// it.

// inprocFleet is a running in-process fleet and its trace logs.
type inprocFleet struct {
	faces  [2]string
	ctx    context.Context // cancelled by stop
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closer []func()

	listeners [2]*tracedListener
	peers     [2]*tracedPeer
	feeds     [2]*tracedFeed
	// dealerConns are the raw connections the DealerClients dialed; their
	// byte counters are the feed's traffic.
	dealerMu    sync.Mutex
	dealerConns []*comm.Conn

	errMu sync.Mutex
	err   error
}

func (f *inprocFleet) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

func (f *inprocFleet) firstErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// serverConfig translates a workload's psml-server flags into the
// ServeConfig cmd/psml-server would build from them.
func serverConfig(flags []string) (mpc.ServeConfig, int, error) {
	cfg := mpc.ServeConfig{
		MaxSessions:   64,
		ClientTimeout: 30 * time.Second,
		PeerTimeout:   10 * time.Second,
	}
	feedDepth := 8
	var chunkRows int
	var pipeline, planner bool
	codec := "raw"
	for i := 0; i < len(flags); i++ {
		flag := flags[i]
		var err error
		switch flag {
		case "-wire-pipeline":
			pipeline = true
			continue
		case "-planner":
			planner = true
			continue
		}
		if i++; i == len(flags) {
			return cfg, 0, fmt.Errorf("inproc: psml-server flag %s needs a value", flag)
		}
		switch flag {
		case "-wire-chunk-rows":
			chunkRows, err = strconv.Atoi(flags[i])
		case "-wire-codec":
			codec = flags[i]
		case "-triplet-feed-depth":
			feedDepth, err = strconv.Atoi(flags[i])
		default:
			err = fmt.Errorf("no in-process translation")
		}
		if err != nil {
			return cfg, 0, fmt.Errorf("inproc: psml-server flag %s: %w", flag, err)
		}
	}
	if pipeline {
		cfg.Wire = &mpc.WireConfig{ChunkRows: chunkRows}
		set, err := mpc.ParseWireCodecName(codec)
		if err != nil {
			return cfg, 0, err
		}
		if set != 0 {
			cfg.Wire.Codec = &mpc.WireCodec{Enabled: set, HW: hw.Paper(), Negotiate: true}
		}
	}
	if planner {
		cfg.Batch = &mpc.BatchConfig{Planner: mpc.NewPlanner(hw.Paper())}
	}
	return cfg, feedDepth, nil
}

// startInproc assembles and starts the traced fleet for spec.
func startInproc(spec fleetSpec) (_ *inprocFleet, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &inprocFleet{ctx: ctx, cancel: cancel}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	listen := func() (net.Listener, error) { return comm.Listen("127.0.0.1:0") }
	serve := func(name string, fn func() error) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := fn(); err != nil && ctx.Err() == nil {
				f.fail(fmt.Errorf("inproc %s: %w", name, err))
			}
		}()
	}
	sup := comm.SupervisorConfig{HeartbeatInterval: 100 * time.Millisecond}

	var dealerAddr string
	if spec.dealerFed {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		dealerAddr = ln.Addr().String()
		d := tripletpool.NewDealer(tripletpool.DealerConfig{Seed: spec.dealerSeed, MaxInflight: 64})
		serve("dealer", func() error { return d.Serve(ctx, ln) })
	}

	var healthAddr string
	var reg *fleet.Registry
	if spec.routed {
		reg = fleet.NewRegistry(fleet.DefaultVnodes)
		health := fleet.NewHealthServer(reg, fleet.HealthConfig{
			Sup: comm.SupervisorConfig{HeartbeatInterval: 100 * time.Millisecond, ReconnectAttempts: 3},
		})
		hln, err := listen()
		if err != nil {
			return nil, err
		}
		healthAddr = hln.Addr().String()
		router := fleet.NewRouter(fleet.RouterConfig{
			Registry:       reg,
			ClientTimeout:  30 * time.Second,
			BackendTimeout: 20 * time.Second,
		})
		serve("health", func() error { return health.Serve(ctx, hln) })
		for face := 0; face < 2; face++ {
			ln, err := listen()
			if err != nil {
				return nil, err
			}
			f.faces[face] = ln.Addr().String()
			face := face
			serve("router face", func() error { return router.ServeFace(ctx, ln, face) })
		}
	}

	cfg, feedDepth, err := serverConfig(spec.serverFlags)
	if err != nil {
		return nil, err
	}
	peerLn, err := listen()
	if err != nil {
		return nil, err
	}
	f.closer = append(f.closer, func() { peerLn.Close() })
	var partyAddr [2]string
	var clientLn [2]net.Listener
	for p := 0; p < 2; p++ {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		clientLn[p] = ln
		partyAddr[p] = ln.Addr().String()
	}
	if !spec.routed {
		f.faces = partyAddr
	}

	// The two parties link up concurrently: one accepts, one dials.
	var links [2]*comm.SupervisedLink
	var linkErr [2]error
	var lwg sync.WaitGroup
	for p := 0; p < 2; p++ {
		lwg.Add(1)
		go func(p int) {
			defer lwg.Done()
			connect := func() (*comm.Conn, error) {
				var c *comm.Conn
				var err error
				if p == 0 {
					c, err = comm.Accept(peerLn)
				} else {
					c, err = comm.Dial(peerLn.Addr().String())
				}
				if err != nil {
					return nil, err
				}
				c.SetTimeouts(0, cfg.PeerTimeout)
				return c, nil
			}
			links[p], linkErr[p] = mpc.SupervisePeer(p, connect, sup)
		}(p)
	}
	lwg.Wait()
	for p := 0; p < 2; p++ {
		if linkErr[p] != nil {
			return nil, fmt.Errorf("inproc: peer link party %d: %w", p, linkErr[p])
		}
		link := links[p]
		f.closer = append(f.closer, func() { link.Close() })
	}

	for p := 0; p < 2; p++ {
		pcfg := cfg
		if cfg.Wire != nil { // each party owns its wire state, as each process would
			w := *cfg.Wire
			if w.Codec != nil {
				c := mpc.WireCodec{Enabled: w.Codec.Enabled, HW: w.Codec.HW, Negotiate: true}
				w.Codec = &c
			}
			pcfg.Wire = &w
		}
		if cfg.Batch != nil {
			pcfg.Batch = &mpc.BatchConfig{Planner: mpc.NewPlanner(hw.Paper())}
		}
		if spec.dealerFed {
			dc, err := tripletpool.NewDealerClient(func() (*comm.Conn, error) {
				c, err := comm.Dial(dealerAddr)
				if err != nil {
					return nil, err
				}
				c.SetTimeouts(0, 10*time.Second)
				f.dealerMu.Lock()
				f.dealerConns = append(f.dealerConns, c)
				f.dealerMu.Unlock()
				return c, nil
			}, p, 1, tripletpool.FeedConfig{Depth: feedDepth})
			if err != nil {
				return nil, fmt.Errorf("inproc: dealer feed party %d: %w", p, err)
			}
			f.closer = append(f.closer, dc.Close)
			f.feeds[p] = &tracedFeed{inner: dc}
			pcfg.Feed = f.feeds[p]
		}
		f.listeners[p] = &tracedListener{Listener: clientLn[p]}
		f.peers[p] = &tracedPeer{inner: links[p]}
		p := p
		serve(fmt.Sprintf("party %d", p), func() error {
			return mpc.ServeClients(ctx, p, f.listeners[p], f.peers[p], pcfg)
		})
	}
	if spec.routed {
		agent, err := fleet.StartAgent(ctx, healthAddr, fleet.Replica{Name: "pair-a", Addr: partyAddr}, sup, nil)
		if err != nil {
			return nil, fmt.Errorf("inproc: router register: %w", err)
		}
		f.closer = append(f.closer, func() { agent.Close() })
		// The pair must be on the ring before any session starts: the
		// router does not queue.
		for deadline := time.Now().Add(readyTimeout); reg.Size() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("inproc: replica never joined the router")
			}
		}
	}
	return f, nil
}

// stop cancels every serving loop, closes what they do not own and
// waits for them.
func (f *inprocFleet) stop() {
	f.cancel()
	for i := len(f.closer) - 1; i >= 0; i-- {
		f.closer[i]()
	}
	f.wg.Wait()
}

// dealerBytes is the traffic on the dealer links so far, both
// directions, both parties.
func (f *inprocFleet) dealerBytes() int64 {
	f.dealerMu.Lock()
	defer f.dealerMu.Unlock()
	var n int64
	for _, c := range f.dealerConns {
		st := c.Stats()
		n += st.BytesIn + st.BytesOut
	}
	return n
}
