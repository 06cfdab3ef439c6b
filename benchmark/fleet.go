package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fleet supervisor: stands up the real multi-process topology the way
// scripts/fleet_drill.sh does — psml-dealer, psml-router and one
// psml-server pair, every one its own process — on kernel-allocated
// loopback ports, and guarantees none of them outlives the benchmark.

// fleetBinaries are the programs a fleet runs, built from ./cmd/<name>.
var fleetBinaries = []string{"psml-server", "psml-router", "psml-dealer"}

// buildBinaries compiles the fleet's programs from the module at root
// into binDir. It is one `go build`, so a warm build cache makes it a
// staleness check.
func buildBinaries(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, b := range fleetBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// fleetSpec is what a workload asks of the supervisor.
type fleetSpec struct {
	routed      bool     // clients reach the pair through psml-router
	dealerFed   bool     // a psml-dealer feeds the pair's triplet streams
	dealerSeed  uint64   // the dealer's -seed (derived from the run seed)
	serverFlags []string // engine flags, identical on both parties
}

// child is one supervised process.
type child struct {
	name   string // dealer, router, party0, party1
	cmd    *exec.Cmd
	debug  string // its -debug-addr
	log    string // path of its combined stdout+stderr
	exited chan struct{}
}

// procFleet is a running multi-process fleet.
type procFleet struct {
	children []*child
	faces    [2]string // where a client dials party 0 / party 1 legs
	spawned  time.Time // when the first process was started

	// ctx is cancelled the moment any child exits without being told to:
	// the run is then void and every loop driving the fleet stops.
	ctx      context.Context
	cancel   context.CancelFunc
	mu       sync.Mutex
	stopping bool
	deathErr error
}

// liveFleets lets the signal handler and main's exit path kill whatever
// is still running, whichever goroutine started it.
var (
	liveMu     sync.Mutex
	liveFleets = map[*procFleet]struct{}{}
)

func killAllFleets() {
	liveMu.Lock()
	fleets := make([]*procFleet, 0, len(liveFleets))
	for f := range liveFleets {
		fleets = append(fleets, f)
	}
	liveMu.Unlock()
	for _, f := range fleets {
		f.stop()
	}
}

// freePorts returns n distinct free loopback addresses. All n listeners
// are held open until every port is known (scripts/freeport's trick), so
// the kernel cannot hand the same port out twice.
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, "127.0.0.1:"+strconv.Itoa(ln.Addr().(*net.TCPAddr).Port))
	}
	return addrs, nil
}

// readyTimeout bounds the wait for the fleet to come up.
const readyTimeout = 20 * time.Second

// startFleet spawns the fleet in dependency order, waits until it can
// serve (both parties serving and, when routed, the pair on the router's
// ring) and returns it. On any failure everything already spawned is
// killed.
func startFleet(spec fleetSpec, binDir, logDir string) (_ *procFleet, err error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	p, err := freePorts(11)
	if err != nil {
		return nil, err
	}
	dealer, face0, face1, health := p[0], p[1], p[2], p[3]
	a0, a1, peer := p[4], p[5], p[6]
	dbgDealer, dbgRouter, dbg0, dbg1 := p[7], p[8], p[9], p[10]

	f := &procFleet{faces: [2]string{a0, a1}}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	liveMu.Lock()
	liveFleets[f] = struct{}{}
	liveMu.Unlock()
	defer func() {
		if err != nil {
			f.stop()
		}
	}()

	// Each program is started only once the one it dials is listening, so
	// no connection attempt is ever refused and retried after a back-off:
	// set-up time then measures the programs, not who won a start-up race.
	bin := func(name string) string { return filepath.Join(binDir, name) }
	if spec.dealerFed {
		if err := f.spawn("dealer", logDir, dbgDealer, "serving triplet streams on", bin("psml-dealer"),
			"-listen", dealer, "-seed", strconv.FormatUint(spec.dealerSeed, 10)); err != nil {
			return nil, err
		}
	}
	if spec.routed {
		f.faces = [2]string{face0, face1}
		if err := f.spawn("router", logDir, dbgRouter, "replica registration on", bin("psml-router"),
			"-listen0", face0, "-listen1", face1, "-health-listen", health,
			"-health-heartbeat", "100ms", "-backend-timeout", "20s"); err != nil {
			return nil, err
		}
	}
	for party, listen := range []string{a0, a1} {
		args := []string{"-party", strconv.Itoa(party), "-listen", listen,
			"-peer-heartbeat", "100ms", "-max-sessions", "64"}
		// Party 0 listens for its peer before anything else and serves
		// clients only once linked; party 1 is up when it serves clients.
		ready := "waiting for peer on"
		if party == 0 {
			args = append(args, "-peer-listen", peer)
		} else {
			args = append(args, "-peer-dial", peer)
			ready = "serving clients on"
		}
		if spec.dealerFed {
			args = append(args, "-dealer-dial", dealer, "-pair-id", "1")
		}
		if spec.routed && party == 0 {
			args = append(args, "-router-register", health, "-replica-name", "pair-a",
				"-advertise-party0", a0, "-advertise-party1", a1)
		}
		args = append(args, spec.serverFlags...)
		if err := f.spawn("party"+strconv.Itoa(party), logDir, []string{dbg0, dbg1}[party], ready,
			bin("psml-server"), args...); err != nil {
			return nil, err
		}
	}
	// Both parties must be serving — and, when routed, the pair on the
	// ring — before the first session: the router evicts a replica whose
	// address refuses a dial, and it does not queue.
	if err := f.await("party0", "serving clients on"); err != nil {
		return nil, err
	}
	if spec.routed {
		if err := f.await("router", "replica_joined replica=pair-a"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// await blocks until the named child's log holds marker, the child (or
// any other) dies, or readyTimeout passes.
func (f *procFleet) await(name, marker string) error {
	var c *child
	for _, x := range f.children {
		if x.name == name {
			c = x
		}
	}
	deadline := time.Now().Add(readyTimeout)
	for {
		if b, err := os.ReadFile(c.log); err == nil && strings.Contains(string(b), marker) {
			return nil
		}
		if err := f.err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %s not ready after %v: no %q in %s", name, readyTimeout, marker, c.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawn starts one child in its own process group, its output going to
// logDir/<name>.log, watches for it exiting early, and waits until its
// log holds the ready marker.
func (f *procFleet) spawn(name, logDir, debug, ready, path string, args ...string) error {
	logPath := filepath.Join(logDir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(path, append(args, "-debug-addr", debug)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Own process group, so a kill reaches anything the child spawns; and
	// SIGKILL from the kernel if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if f.spawned.IsZero() {
		f.spawned = time.Now()
	}
	err = cmd.Start()
	lf.Close() // the child holds its own descriptor
	if err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, debug: debug, log: logPath, exited: make(chan struct{})}
	f.children = append(f.children, c)
	go func() {
		werr := cmd.Wait()
		f.mu.Lock()
		if !f.stopping && f.deathErr == nil {
			f.deathErr = fmt.Errorf("fleet: %s (pid %d) exited early: %v (log %s)", name, cmd.Process.Pid, werr, logPath)
			f.cancel()
		}
		f.mu.Unlock()
		close(c.exited)
	}()
	return f.await(name, ready)
}

// err reports a child that exited without being stopped.
func (f *procFleet) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deathErr
}

// stop kills every child's process group and waits until each has been
// reaped. Safe to call more than once and from any goroutine.
func (f *procFleet) stop() {
	f.mu.Lock()
	f.stopping = true
	f.mu.Unlock()
	for _, c := range f.children {
		// Negative pid: the whole group. ESRCH for an already-dead child
		// is the outcome we want anyway.
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, c := range f.children {
		<-c.exited
	}
	f.cancel()
	liveMu.Lock()
	delete(liveFleets, f)
	liveMu.Unlock()
}

// fleetSnapshot is one reading of every child's CPU clock and metrics.
type fleetSnapshot struct {
	cpuMs map[string]float64
	prom  map[string]promSample
}

func (f *procFleet) snapshot() (fleetSnapshot, error) {
	s := fleetSnapshot{cpuMs: map[string]float64{}, prom: map[string]promSample{}}
	for _, c := range f.children {
		cpu, err := procCPUms(c.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.name, err)
		}
		s.cpuMs[c.name] = cpu
		p, err := scrape(c.debug)
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.name, err)
		}
		s.prom[c.name] = p
	}
	return s, nil
}

// peakRSSMiB sums the children's resident-set high-water marks.
func (f *procFleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, c := range f.children {
		v, err := procPeakRSSMiB(c.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += v
	}
	return total, nil
}
