package live

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"radar/internal/routing"
	"radar/internal/sim"
	"radar/internal/topology"
)

// Fleet runs every node of one configuration in-process, each behind its
// own loopback HTTP listener on an ephemeral port, together with the
// mode's load driver — the one handle on a running fleet that the
// integration tests, the facade's live mode, radar-load's default mode,
// and the chaos controller (Fleet satisfies chaos.Target) all use.
//
// Kill closes a node's listener and in-flight connections and stops the
// node's own goroutines (tickers, pending completions, in-flight client
// retries): to the rest of the fleet the node is indistinguishable from a
// crashed process — connections refused, no further control traffic.
// Restart brings a killed node back on its original address as a fresh
// incarnation booted from the seed image, the way a crashed process
// restarts from disk.
type Fleet struct {
	cfg    Config
	routes *routing.Table
	epoch  time.Time
	urls   []string
	client *http.Client // chaos control posts: marks and peer rewrites

	// Exactly one is non-nil, keyed by Config.FreeRunning.
	driver *Driver
	free   *FreeDriver

	mu        sync.Mutex
	nodes     []*Node
	servers   []*http.Server
	listeners []net.Listener
	serveDone []chan struct{}
	killed    []bool
}

// readyTimeout bounds how long NewFleet and Restart wait for the fleet to
// answer its readiness probes.
const readyTimeout = 10 * time.Second

// NewFleet builds and starts one node per topology member on 127.0.0.1:0
// listeners, waits until every node reports ready, and attaches the
// mode's driver. The caller owns Close.
func NewFleet(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	routes := routing.New(cfg.Sim.Topo)
	n := routes.NumNodes()
	f := &Fleet{
		cfg:       cfg,
		routes:    routes,
		epoch:     time.Now(),
		nodes:     make([]*Node, n),
		urls:      make([]string, n),
		client:    &http.Client{Timeout: 2 * time.Second},
		servers:   make([]*http.Server, n),
		listeners: make([]net.Listener, n),
		serveDone: make([]chan struct{}, n),
		killed:    make([]bool, n),
	}
	// Listeners first: every node needs the full URL manifest.
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("live: listening for node %d: %w", i, err)
		}
		f.listeners[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		nd, err := NewNode(cfg, topology.NodeID(i), f.urls, routes)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.startNode(topology.NodeID(i), nd, f.listeners[i], false)
	}
	err := waitReady(f.urls, f.Killed, readyTimeout)
	if err == nil {
		if cfg.FreeRunning {
			f.free, err = NewFreeDriver(cfg, f.urls)
		} else {
			f.driver, err = NewDriver(cfg, f.urls)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// startNode installs a node behind a listener and boots it. Callers either
// own f exclusively (NewFleet) or hold f.mu (Restart).
func (f *Fleet) startNode(i topology.NodeID, nd *Node, ln net.Listener, recovered bool) {
	f.nodes[i] = nd
	f.listeners[i] = ln
	srv := &http.Server{Handler: nd.Handler()}
	f.servers[i] = srv
	done := make(chan struct{})
	f.serveDone[i] = done
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	nd.Start(f.epoch, recovered)
}

// Run replays the configured workload against the fleet and returns the
// run's results in the simulator's schema: Driver.Run in driver-paced
// mode, FreeDriver.Run (load for Sim.Duration of wall time, then a final
// census) in free-running mode. A second call returns
// sim.ErrScheduleStarted.
func (f *Fleet) Run(ctx context.Context) (*sim.Results, error) {
	if f.free != nil {
		return f.free.Run(ctx)
	}
	return f.driver.Run(ctx)
}

// Driver returns the driver-paced driver (nil in free-running mode), for
// scheduling mid-replay hooks and reading the decision sequence.
func (f *Fleet) Driver() *Driver { return f.driver }

// FreeDriver returns the free-running load generator (nil in driver-paced
// mode), for its request totals and failure times.
func (f *Fleet) FreeDriver() *FreeDriver { return f.free }

// NumNodes returns the fleet size.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// URLs returns the node base URLs, indexed by node ID.
func (f *Fleet) URLs() []string { return append([]string(nil), f.urls...) }

// URL returns one node's base URL.
func (f *Fleet) URL(i topology.NodeID) string { return f.urls[i] }

// Routes returns the shared routing table.
func (f *Fleet) Routes() *routing.Table { return f.routes }

// Config returns the normalized fleet configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Kill crashes a node and tells the survivors, the live analog of the
// simulator's crash detection: its listener closes, open connections are
// torn down, and the node's goroutines (tickers, timers, client retries)
// are reaped, so every subsequent request to it fails at the transport
// and nothing of the node keeps running. The surviving nodes then get the
// down mark, so their redirectors stop choosing its replicas; in
// driver-paced mode the driver records the crash and sends the mark, and
// Kill must then run inside a Driver.At hook, on the driver's goroutine.
// The node's memory (host, server, redirector) is retained.
func (f *Fleet) Kill(i topology.NodeID) error {
	if err := f.crash(i); err != nil {
		return err
	}
	if f.driver != nil {
		f.driver.markDown(i)
	} else {
		broadcastMark(f.client, f.urls, i, true, f.Killed)
	}
	return nil
}

func (f *Fleet) crash(i topology.NodeID) error {
	f.mu.Lock()
	if f.killed[i] {
		f.mu.Unlock()
		return nil
	}
	f.killed[i] = true
	srv, nd, done := f.servers[i], f.nodes[i], f.serveDone[i]
	f.mu.Unlock()
	if nd != nil {
		nd.Stop()
	}
	if srv == nil {
		return nil
	}
	err := srv.Close()
	if done != nil {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("live: node %d server did not stop", i)
		}
	}
	return err
}

// Restart brings a killed node back on its original address as a fresh
// incarnation — cold state rebuilt from the configuration (the seed image
// a real process reloads from disk), a new boot ID, and re-registration of
// its held replicas with the fleet's redirectors — waits until the fleet
// reports ready, so a follow-up action cannot race the recovery, and then
// clears the survivors' down marks. Restart is free-running only: the
// driver-paced driver never takes a node back once it marked it down.
func (f *Fleet) Restart(i topology.NodeID) error {
	if f.driver != nil {
		return fmt.Errorf("live: restarting node %d in driver-paced mode, whose driver never marks a node up", i)
	}
	if err := f.revive(i); err != nil {
		return err
	}
	if err := waitReady(f.urls, f.Killed, readyTimeout); err != nil {
		return err
	}
	broadcastMark(f.client, f.urls, i, false, f.Killed)
	return nil
}

func (f *Fleet) revive(i topology.NodeID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.killed[i] {
		return fmt.Errorf("live: restarting node %d, which is not killed", i)
	}
	addr := f.listeners[i].Addr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: relistening node %d on %s: %w", i, addr, err)
	}
	nd, err := NewNode(f.cfg, i, f.urls, f.routes)
	if err != nil {
		ln.Close()
		return err
	}
	f.killed[i] = false
	f.startNode(i, nd, ln, true)
	return nil
}

// Killed reports whether a node has been killed.
func (f *Fleet) Killed(i topology.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed[i]
}

// SetPartition cuts (or heals) the control plane between a and b by
// poisoning (or restoring) each side's peer-URL entry for the other. Only
// the control plane is cut — the serve-URL manifest behind client 302s is
// immutable by design.
func (f *Fleet) SetPartition(a, b topology.NodeID, cut bool) error {
	if err := f.setPeer(a, b, cut); err != nil {
		return err
	}
	return f.setPeer(b, a, cut)
}

func (f *Fleet) setPeer(on, peer topology.NodeID, cut bool) error {
	if f.Killed(on) {
		return nil // a dead node has no peer table to poison
	}
	url := PoisonURL
	if !cut {
		url = f.urls[peer]
	}
	msg := PeersMsg{Peer: int(peer), URL: url}
	res, err := f.client.Post(f.urls[on]+PathPeers, "application/json", bytes.NewReader(Encode(&msg)))
	if err != nil {
		return err
	}
	return readReply(res, f.urls[on], PathPeers, nil)
}

// SetLatency sets the free-running generator's client-hop delay, injected
// before every request.
func (f *Fleet) SetLatency(d time.Duration) error {
	if f.free == nil {
		return fmt.Errorf("live: latency injection needs free-running mode")
	}
	f.free.SetLatency(d)
	return nil
}

// Close tears the whole fleet down, reaping every node's goroutines and
// releasing the driver's and the fleet's own connections.
func (f *Fleet) Close() {
	f.mu.Lock()
	var wait []chan struct{}
	for i, srv := range f.servers {
		if f.nodes[i] != nil {
			f.nodes[i].Stop()
		}
		if srv != nil && !f.killed[i] {
			_ = srv.Close()
			f.killed[i] = true
			if f.serveDone[i] != nil {
				wait = append(wait, f.serveDone[i])
			}
		}
	}
	for _, ln := range f.listeners {
		if ln != nil {
			_ = ln.Close() // idempotent; srv.Close already closed started ones
		}
	}
	f.mu.Unlock()
	for _, done := range wait {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	if f.driver != nil {
		f.driver.Close()
	}
	f.client.CloseIdleConnections()
}

// broadcastMark posts a reachability mark for host to every node skip does
// not exclude, best-effort: a node that misses the mark rediscovers
// reachability through its own RPC failures.
func broadcastMark(client *http.Client, urls []string, host topology.NodeID, down bool, skip func(topology.NodeID) bool) {
	body := Encode(&MarkMsg{Host: int(host), Down: down})
	for j, u := range urls {
		if skip(topology.NodeID(j)) {
			continue
		}
		if res, err := client.Post(u+PathMark, "application/json", bytes.NewReader(body)); err == nil {
			_, _ = io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
	}
}

// waitReady polls the readiness endpoint of every node skip does not
// exclude — the one that requires the node to have booted (tickers
// running, recovery re-registration done) — until each answers 200 or the
// timeout passes. Every probe is bounded by the time left, so a node that
// accepts connections but never answers cannot stall the wait.
func waitReady(urls []string, skip func(topology.NodeID) bool, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i, u := range urls {
		if skip(topology.NodeID(i)) {
			continue
		}
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+PathReady, nil)
			if err != nil {
				return err
			}
			if res, err := client.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("live: node %d not answering %s after %v", i, PathReady, timeout)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}
