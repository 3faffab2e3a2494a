package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"radar/internal/live"
	"radar/internal/routing"
	"radar/internal/scenario"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// liveScenario is the corpus scenario both live workloads serve.
const liveScenario = "steady-state-baseline"

// liveConfig resolves the scenario with the workload's seed.
func liveConfig(seed int64) (live.Config, error) {
	sc, ok := scenario.ByName(liveScenario)
	if !ok {
		return live.Config{}, fmt.Errorf("scenario %q not in the corpus", liveScenario)
	}
	simCfg, err := sc.Config()
	if err != nil {
		return live.Config{}, err
	}
	simCfg.Seed = seed
	return live.Config{Sim: simCfg}, nil
}

// benchFleet is a loopback fleet assembled from the program's public node
// API — one live.Node per topology member behind its own listener — so
// the benchmark can wrap each node's Handler for server-side timing.
type benchFleet struct {
	nodes   []*live.Node
	lns     []net.Listener
	servers []*http.Server
	done    []chan struct{}
	urls    []string
	redLocs []topology.NodeID
}

// readyTimeout bounds how long a fresh fleet may take to report ready.
const readyTimeout = 30 * time.Second

// startFleet listens on one loopback port per node, boots every node and
// returns once each answers its readiness probe. eps, when non-nil, times
// every request each node serves.
func startFleet(cfg live.Config, eps *endpointStats) (*benchFleet, error) {
	cfg = cfg.Normalized()
	routes := routing.New(cfg.Sim.Topo)
	n := routes.NumNodes()
	f := &benchFleet{
		nodes:   make([]*live.Node, n),
		lns:     make([]net.Listener, n),
		servers: make([]*http.Server, n),
		done:    make([]chan struct{}, n),
		urls:    make([]string, n),
		redLocs: live.RedirectorLocations(routes, cfg.Sim.NumRedirectors),
	}
	for i := range f.lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listening for node %d: %w", i, err)
		}
		f.lns[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	epoch := time.Now()
	for i := range f.nodes {
		nd, err := live.NewNode(cfg, topology.NodeID(i), f.urls, routes)
		if err != nil {
			f.close()
			return nil, err
		}
		h := nd.Handler()
		if eps != nil {
			h = eps.wrap(h)
		}
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			_ = srv.Serve(ln)
		}(f.lns[i])
		f.nodes[i], f.servers[i], f.done[i] = nd, srv, done
		nd.Start(epoch, false)
	}
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setupFleet starts a fleet and times it; a non-nil tr wires per-endpoint
// timing into every node and records the set-up span.
func setupFleet(cfg live.Config, tr *tracer) (*benchFleet, *endpointStats, setupTimes, error) {
	var eps *endpointStats
	if tr != nil {
		eps = newEndpointStats(tr)
	}
	start := time.Now()
	f, err := startFleet(cfg, eps)
	end := time.Now()
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	if tr != nil {
		tr.record(span{ID: tr.newID(), Name: "setup", Start: tr.at(start), End: tr.at(end)})
	}
	return f, eps, setupTimes{total: end.Sub(start)}, nil
}

func (f *benchFleet) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	for i, u := range f.urls {
		for {
			res, err := client.Get(u + live.PathReady)
			if err == nil {
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d not ready after %v", i, readyTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops every node and server and waits for each server to exit.
func (f *benchFleet) close() {
	for i := range f.nodes {
		if f.nodes[i] != nil {
			f.nodes[i].Stop()
		}
		if f.servers[i] != nil {
			_ = f.servers[i].Close() // also closes the listener
		} else if f.lns[i] != nil {
			_ = f.lns[i].Close()
		}
	}
	for _, done := range f.done {
		if done != nil {
			<-done
		}
	}
}

// nodeTotals are the fleet-wide sums of the /ctl/stats counters the
// per-layer metrics report.
type nodeTotals struct {
	RPCAttempts, RPCRetries, RPCLost, CreateExecutions int64
	Moves, Refusals                                    int64
}

func (f *benchFleet) stats(client *http.Client) (nodeTotals, error) {
	var t nodeTotals
	for i, u := range f.urls {
		var rep live.StatsReply
		if err := getJSON(client, u+live.PathStats, &rep); err != nil {
			return t, fmt.Errorf("stats of node %d: %w", i, err)
		}
		h := rep.Host
		t.RPCAttempts += rep.RPCAttempts
		t.RPCRetries += rep.RPCRetries
		t.RPCLost += rep.RPCLost
		t.CreateExecutions += rep.CreateExecutions
		t.Moves += h.GeoMigrations + h.GeoReplications + h.LoadMigrations + h.LoadReplications +
			h.RepairReplications + h.Drops
		t.Refusals += h.RefusalsSent
	}
	return t, nil
}

func (t nodeTotals) sub(o nodeTotals) nodeTotals {
	return nodeTotals{
		RPCAttempts: t.RPCAttempts - o.RPCAttempts, RPCRetries: t.RPCRetries - o.RPCRetries,
		RPCLost: t.RPCLost - o.RPCLost, CreateExecutions: t.CreateExecutions - o.CreateExecutions,
		Moves: t.Moves - o.Moves, Refusals: t.Refusals - o.Refusals,
	}
}

func (t nodeTotals) addTo(m map[string]float64) {
	m["live.rpc_attempts"] += float64(t.RPCAttempts)
	m["live.rpc_retries"] += float64(t.RPCRetries)
	m["live.rpc_lost"] += float64(t.RPCLost)
	m["live.create_executions"] += float64(t.CreateExecutions)
}

// zeroReplicaObjects sums the objects the redirectors' censuses record
// with no replica at all.
func (f *benchFleet) zeroReplicaObjects(client *http.Client) (int, error) {
	zero := 0
	for _, loc := range f.redLocs {
		var rep live.CensusReply
		if err := getJSON(client, f.urls[loc]+live.PathCensus, &rep); err != nil {
			return 0, fmt.Errorf("census of node %d: %w", loc, err)
		}
		zero += rep.Zero
	}
	return zero, nil
}

func getJSON(client *http.Client, url string, v any) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, res.Status)
	}
	return json.Unmarshal(data, v)
}

// ---- live-open ------------------------------------------------------------

// Open-loop levels: lo is Table 1's 40 req/s per gateway over the 53
// UUNET gateways, hi twice that.
var openLevels = []struct {
	name string
	rate float64
}{
	{"lo", 2120},
	{"hi", 4240},
}

// openGrace is how long past a level's last due time unsent requests may
// still be issued before the level counts them as never offered.
const openGrace = time.Second

// openRequestTimeout bounds one request end to end.
const openRequestTimeout = 5 * time.Second

// openWorkload serves open-loop Poisson arrivals against a free-running
// fleet whose control intervals are long enough that no placement pass
// falls inside a unit.
type openWorkload struct {
	seed     int64
	cfg      live.Config
	inflight int
	scheds   [][]arrival // per level
	objBytes int

	redInit layerInputs // layer inputs: the fleet's initial placement
}

func newLiveOpen(seed int64, seconds int) (*openWorkload, error) {
	cfg, err := liveConfig(seed)
	if err != nil {
		return nil, err
	}
	cfg.FreeRunning = true
	cfg = cfg.Normalized()
	w := &openWorkload{seed: seed, cfg: cfg, inflight: runtime.NumCPU(), objBytes: cfg.Sim.Universe.SizeBytes}
	// Each level runs a fifth of the measured time, so two units (a
	// traced run's untraced and traced one) fit in it.
	length := time.Duration(seconds) * time.Second / 5
	n := cfg.Sim.Topo.NumNodes()
	gen := cfg.Sim.Workload
	for li, lv := range openLevels {
		stream := uint64(li+1) << 36
		w.scheds = append(w.scheds, poissonSchedule(lv.rate, length, n,
			func(g int) *rand.Rand { return workload.Stream(seed, stream|uint64(g)) },
			func(g int, rng *rand.Rand) int { return int(gen.Next(topology.NodeID(g), rng)) }))
	}
	return w, nil
}

func (w *openWorkload) prepare() error {
	s, err := sim.New(w.cfg.Sim)
	if err != nil {
		return err
	}
	w.redInit = layerInputs{
		routes:    routing.New(w.cfg.Sim.Topo),
		gen:       w.cfg.Sim.Workload,
		seed:      w.seed,
		red:       s.Redirectors()[0],
		serverCfg: w.cfg.Sim.Server,
	}
	return nil
}

func (w *openWorkload) layerInputs() (layerInputs, error) { return w.redInit, nil }

type openSystem struct {
	w     *openWorkload
	fleet *benchFleet
	eps   *endpointStats
}

func (w *openWorkload) setup(tr *tracer) (system, setupTimes, error) {
	f, eps, st, err := setupFleet(w.cfg, tr)
	if err != nil {
		return nil, st, err
	}
	return &openSystem{w: w, fleet: f, eps: eps}, st, nil
}

func (s *openSystem) close() { s.fleet.close() }

// openClient walks each request the way a browser would: GET /obj at the
// object's redirector, then the 302's Location on the chosen replica.
type openClient struct {
	client   *http.Client
	fleet    *benchFleet
	objBytes int
	bufs     []bytes.Buffer // one per in-flight slot
	tr       *tracer
}

func (c *openClient) send(ctx context.Context, worker, _ int, a arrival, start time.Time, rec *reqRecord) {
	var reqID uint64
	if c.tr != nil {
		reqID = c.tr.newID()
		defer func() {
			sent, objDone, done := start.Add(rec.Sent), start.Add(rec.ObjDone), time.Now()
			c.tr.record(span{ID: reqID, Req: reqID, Name: "request", Start: c.tr.at(start.Add(a.Due)), End: c.tr.at(done)})
			c.tr.record(span{ID: c.tr.newID(), Parent: reqID, Req: reqID, Name: "hop.obj", Start: c.tr.at(sent), End: c.tr.at(objDone)})
			if rec.Out == outServed {
				c.tr.record(span{ID: c.tr.newID(), Parent: reqID, Req: reqID, Name: "hop.serve", Start: c.tr.at(objDone), End: c.tr.at(done)})
			}
		}()
	}
	loc := c.fleet.redLocs[int(a.Obj)%len(c.fleet.redLocs)]
	u := c.fleet.urls[loc] + live.PathObj + strconv.Itoa(int(a.Obj)) + "?g=" + strconv.Itoa(int(a.G)) + "&now=0"
	res, err := c.get(ctx, u, reqID)
	if err != nil {
		rec.ObjDone = time.Since(start)
		rec.Out = classify(err)
		return
	}
	next := res.Header.Get("Location")
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	rec.ObjDone = time.Since(start)
	if res.StatusCode != http.StatusFound || next == "" {
		rec.Out = outFailed
		return
	}
	res, err = c.get(ctx, next, reqID)
	if err != nil {
		rec.Out = classify(err)
		return
	}
	buf := &c.bufs[worker]
	buf.Reset()
	_, err = buf.ReadFrom(res.Body)
	res.Body.Close()
	switch {
	case err != nil:
		rec.Out = classify(err)
	case res.StatusCode == http.StatusServiceUnavailable && res.Header.Get(live.HeaderTimeout) != "":
		rec.Out = outTimedOut
	case res.StatusCode != http.StatusOK || buf.Len() != c.objBytes:
		rec.Out = outFailed
	default:
		rec.Out = outServed
	}
}

func (c *openClient) get(ctx context.Context, url string, reqID uint64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if reqID != 0 {
		req.Header.Set(headerReq, strconv.FormatUint(reqID, 10))
	}
	return c.client.Do(req)
}

func classify(err error) outcome {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return outTimedOut
	}
	return outFailed
}

func (s *openSystem) run(ctx context.Context, tr *tracer) (unitResult, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: s.w.inflight}
	defer transport.CloseIdleConnections()
	ctlClient := &http.Client{Timeout: openRequestTimeout}
	defer ctlClient.CloseIdleConnections()
	c := &openClient{
		client: &http.Client{
			Transport: transport,
			Timeout:   openRequestTimeout,
			// The 302 is followed by hand, so each hop is timed on its own.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		fleet:    s.fleet,
		objBytes: s.w.objBytes,
		bufs:     make([]bytes.Buffer, s.w.inflight),
		tr:       tr,
	}
	u := unitResult{Layer: map[string]float64{}, levels: map[string]*levelResult{}}
	var before nodeTotals
	if tr != nil {
		var err error
		if before, err = s.fleet.stats(ctlClient); err != nil {
			return u, err
		}
	}
	for li, lv := range openLevels {
		res := runOpenLoop(ctx, s.w.scheds[li], s.w.inflight, openGrace, c.send)
		u.levels[lv.name] = &res
		u.Wall += res.Wall
		u.Served += res.Served
		u.Attempted += res.Offered
		u.Failed += res.Offered - res.Served
		if res.Issued < res.Offered {
			u.gate("level %s: issued %d of %d offered requests", lv.name, res.Issued, res.Offered)
		}
		if res.Failed+res.TimedOut > 0 {
			u.gate("level %s: %d failed, %d timed out (want 0)", lv.name, res.Failed, res.TimedOut)
		}
		if grow, q := res.latenessGrowing(); grow {
			u.gate("level %s: generator lateness kept growing: quarter medians %.3f ms", lv.name, q)
		}
	}
	zero, err := s.fleet.zeroReplicaObjects(ctlClient)
	if err != nil {
		return u, err
	}
	if zero > 0 {
		u.gate("final census: %d objects with zero replicas", zero)
	}
	if tr != nil {
		after, err := s.fleet.stats(ctlClient)
		if err != nil {
			return u, err
		}
		d := after.sub(before)
		d.addTo(u.Layer)
		u.Layer["protocol.moves"] = float64(d.Moves)
		u.Layer["protocol.refusals"] = float64(d.Refusals)
		s.eps.metrics(u.Layer)
	}
	return u, nil
}

// ---- live-replay ----------------------------------------------------------

// Replay scale: five virtual minutes span three placement passes (100 s
// interval); the per-gateway rate keeps one replay near ten seconds of
// wall time on a two-core host, so two fit in a run.
const (
	replayDuration = 5 * time.Minute
	replayRPS      = 2.5
)

// replayWorkload replays the simulator's exact schedule against a
// driver-paced fleet and checks the outcome against the simulator's.
type replayWorkload struct {
	seed int64
	cfg  live.Config
	ref  *sim.Results
	refS *sim.Simulation
}

func newLiveReplay(seed int64) (*replayWorkload, error) {
	cfg, err := liveConfig(seed)
	if err != nil {
		return nil, err
	}
	cfg.Sim.Duration = replayDuration
	cfg.Sim.NodeRequestRPS = replayRPS
	return &replayWorkload{seed: seed, cfg: cfg.Normalized()}, nil
}

// prepare runs the simulator on the same configuration: the reference
// every replay must reproduce.
func (w *replayWorkload) prepare() error {
	s, err := sim.New(w.cfg.Sim)
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	w.ref, w.refS = res, s
	return nil
}

func (w *replayWorkload) layerInputs() (layerInputs, error) {
	return layerInputs{
		routes:    routing.New(w.cfg.Sim.Topo),
		gen:       w.cfg.Sim.Workload,
		seed:      w.seed,
		red:       w.refS.Redirectors()[0],
		serverCfg: w.cfg.Sim.Server,
	}, nil
}

type replaySystem struct {
	w     *replayWorkload
	fleet *benchFleet
	eps   *endpointStats
}

func (w *replayWorkload) setup(tr *tracer) (system, setupTimes, error) {
	f, eps, st, err := setupFleet(w.cfg, tr)
	if err != nil {
		return nil, st, err
	}
	return &replaySystem{w: w, fleet: f, eps: eps}, st, nil
}

func (s *replaySystem) close() { s.fleet.close() }

func (s *replaySystem) run(ctx context.Context, tr *tracer) (unitResult, error) {
	ctlClient := &http.Client{Timeout: openRequestTimeout}
	defer ctlClient.CloseIdleConnections()
	var before nodeTotals
	if tr != nil {
		var err error
		if before, err = s.fleet.stats(ctlClient); err != nil {
			return unitResult{}, err
		}
	}
	d, err := live.NewDriver(s.w.cfg, s.fleet.urls)
	if err != nil {
		return unitResult{}, err
	}
	var res *sim.Results
	start := time.Now()
	tr.timed("replay", 0, func() { res, err = d.Run(ctx) })
	wall := time.Since(start)
	d.Close()
	if err != nil {
		return unitResult{}, err
	}
	u := unitResult{Wall: wall, Layer: map[string]float64{}}
	u.Served = res.TotalServed
	u.Failed = res.FailedRequests + res.TimedOutRequests
	u.Attempted = u.Served + u.Failed
	u.Layer["protocol.moves"] = moves(res.Counters)
	u.Layer["protocol.refusals"] = float64(res.Counters.Refusals)
	u.Layer["gen.offered"] = float64(u.Attempted)
	u.Layer["gen.issued"] = float64(u.Attempted)
	u.Layer["gen.served"] = float64(u.Served)
	u.Layer["gen.failed"] = float64(res.FailedRequests)
	u.Layer["gen.timed_out"] = float64(res.TimedOutRequests)

	ref := s.w.ref
	if res.TotalServed != ref.TotalServed {
		u.gate("replay served %d requests, simulator %d", res.TotalServed, ref.TotalServed)
	}
	if !reflect.DeepEqual(res.Counters, ref.Counters) {
		u.gate("replay counters %+v, simulator %+v", res.Counters, ref.Counters)
	}
	if res.AvgReplicas != ref.AvgReplicas {
		u.gate("replay average replicas %v, simulator %v", res.AvgReplicas, ref.AvgReplicas)
	}
	if u.Failed != 0 || res.DroppedChoices != 0 {
		u.gate("%d failed or timed out, %d dropped choices (want 0)", u.Failed, res.DroppedChoices)
	}
	if tr != nil {
		after, err := s.fleet.stats(ctlClient)
		if err != nil {
			return u, err
		}
		after.sub(before).addTo(u.Layer)
		s.eps.metrics(u.Layer)
	}
	return u, nil
}
