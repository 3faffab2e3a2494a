package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/sim"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/topology"
)

// Driver runs the simulator's run schedule (sim.Schedule) against a live
// fleet: it is the sim.Cluster the schedule drives, over HTTP. The
// schedule's generators, measurement, placement, and census ticks become
// redirector GETs and /ctl/measure, /ctl/place, and /ctl/census calls, all
// paced by a discrete-event engine. Virtual time is the driver's; the
// clock-less nodes only learn it from request parameters. Because the
// schedule is the simulator's own — the same events at the same times with
// the same tie-breaking sequence numbers — a fleet driven over loopback
// reproduces the simulation's decision sequence and metrics, which is what
// the equivalence test pins.
//
// The driver is single-threaded: every control operation in the fleet is
// one engine event, executed serially. That is also what makes the nodes'
// cross-node RPCs deadlock-free (no two placement passes overlap).
//
// Network accounting (byte-hops, latencies, control overhead) runs on the
// driver's own simnet.Network and metrics.Collector through sim.Accounting
// — the live transport carries the real bytes, the model prices them,
// exactly as the simulator prices its virtual transfers.
type Driver struct {
	cfg     Config
	urls    []string
	routes  *routing.Table
	n       int
	redLocs []topology.NodeID

	engine *simevent.Engine
	net    *simnet.Network
	col    *metrics.Collector
	sched  *sim.Schedule
	acct   *sim.Accounting
	client *http.Client

	down      []bool
	decisions []Event
	err       error // first malformed node event; stops the run

	droppedChoices int64
	timedOut       int64
	failures       int64
	faultsSeen     bool

	hooks []hook
}

// hook is a test-scheduled engine event (see At).
type hook struct {
	at time.Duration
	fn func()
}

// driverHTTPTimeout bounds every driver request as a backstop; loopback
// requests answer in microseconds and killed listeners refuse immediately,
// so the limit only matters if a node wedges entirely.
const driverHTTPTimeout = 30 * time.Second

// NewDriver builds a driver for a fleet reachable at urls (base URL per
// node ID, matching the configured topology).
func NewDriver(cfg Config, urls []string) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	routes := routing.New(cfg.Sim.Topo)
	n := routes.NumNodes()
	if len(urls) != n {
		return nil, fmt.Errorf("live: %d node URLs for %d nodes", len(urls), n)
	}
	col, err := metrics.New(cfg.Sim.MetricsBucket)
	if err != nil {
		return nil, err
	}
	col.Reserve(cfg.Sim.Duration)
	network, err := simnet.New(cfg.Sim.Net, n, col)
	if err != nil {
		return nil, err
	}
	engine := simevent.New()
	d := &Driver{
		cfg:     cfg,
		urls:    append([]string(nil), urls...),
		routes:  routes,
		n:       n,
		redLocs: sim.RedirectorLocations(routes, cfg.Sim.NumRedirectors),
		engine:  engine,
		net:     network,
		col:     col,
		sched:   sim.NewSchedule(cfg.Sim, engine, engine, col),
		down:    make([]bool, n),
		client: &http.Client{
			Timeout: driverHTTPTimeout,
			// 302s are scheduled, not followed: the redirect's arrival at the
			// chosen host is a separate engine event at its virtual time.
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
	d.acct = sim.NewAccounting(cfg.Sim, routes, network, col, d.redirectorAt)
	return d, nil
}

// At schedules fn to run as an engine event at virtual time at, before Run
// is called. Tests use it to inject mid-replay actions — killing a node,
// marking it down — at a deterministic point of the schedule without
// racing the single-threaded driver.
func (d *Driver) At(at time.Duration, fn func()) {
	d.hooks = append(d.hooks, hook{at: at, fn: fn})
}

// MarkDown records a node as crashed and broadcasts the mark to the
// remaining fleet, so redirectors fail subsequent choices over. Tests call
// it right after Fleet.Kill; the driver also calls it itself when a
// request to the node fails at the transport.
func (d *Driver) MarkDown(i topology.NodeID) { d.markDown(i) }

// Close releases the driver's idle HTTP connections; their keep-alive
// goroutines would otherwise outlive the run and trip the goroutine-leak
// check the integration harness runs at teardown.
func (d *Driver) Close() { d.client.CloseIdleConnections() }

// Decisions returns the replayed placement decision sequence (migrate,
// replicate, drop, refuse, defer — copies excluded), in the order the
// fleet's placement passes produced them. The equivalence test compares
// this against the simulator's observer sequence.
func (d *Driver) Decisions() []Event {
	return append([]Event(nil), d.decisions...)
}

// Run replays the full schedule for cfg.Sim.Duration of virtual time and
// assembles the same results schema the simulator produces. A node event
// the driver cannot account for (unknown move kind or method, a node or
// object outside the run) ends the run with a *WireError. A second call
// returns sim.ErrScheduleStarted.
func (d *Driver) Run(ctx context.Context) (*sim.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.sched.Start(d, nil); err != nil {
		return nil, err
	}
	for _, h := range d.hooks {
		h := h
		if err := d.engine.Schedule(h.at, func(time.Duration) { h.fn() }); err != nil {
			return nil, fmt.Errorf("live: scheduling hook at %v: %w", h.at, err)
		}
	}
	if err := d.sched.Run(ctx, nil); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	return d.results()
}

// redirectorAt locates the redirector responsible for object id.
func (d *Driver) redirectorAt(id object.ID) topology.NodeID {
	return d.redLocs[int(id)%len(d.redLocs)]
}

// Dispatch implements sim.Cluster: one request's redirector hop. It GETs
// the object from its redirector at virtual time t1 (gateway -> redirector
// control latency) and schedules the 302's arrival at the chosen host. The
// redirector mutates its distribution state (request counts, choice
// rotation) during this call — at dispatch time, exactly when the
// simulator calls ChooseReplica.
func (d *Driver) Dispatch(t0, _ time.Duration, g topology.NodeID, id object.ID) {
	loc := d.redirectorAt(id)
	t1 := d.net.ControlLatency(t0, d.routes.Distance(g, loc))
	if d.down[loc] {
		d.col.RecordFailedRequest(t1) // redirector crashed: request lost
		return
	}
	u := fmt.Sprintf("%s%s%d?g=%d&now=%d", d.urls[loc], PathObj, int64(id), int(g), int64(t1))
	res, err := d.client.Get(u)
	if err != nil {
		d.markDown(loc)
		d.col.RecordFailedRequest(t1)
		return
	}
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode == http.StatusNotFound {
		// No choosable replica (every copy on crashed hosts): the request
		// fails at the redirector, as in the simulator.
		d.droppedChoices++
		d.col.RecordFailedRequest(t1)
		return
	}
	host, err1 := strconv.Atoi(res.Header.Get(HeaderHost))
	arrive, err2 := strconv.ParseInt(res.Header.Get(HeaderArrive), 10, 64)
	serveURL := res.Header.Get("Location")
	if res.StatusCode != http.StatusFound || err1 != nil || err2 != nil ||
		host < 0 || host >= d.n || serveURL == "" {
		// A malformed answer from a half-dead node: treat like a transport
		// failure.
		d.markDown(loc)
		d.col.RecordFailedRequest(t1)
		return
	}
	h := topology.NodeID(host)
	_ = d.engine.Schedule(time.Duration(arrive), func(now time.Duration) {
		d.arrive(now, g, h, id, t0, serveURL)
	})
}

// arrive runs a request's arrival at the chosen host: admission into the
// FCFS queue (or client-timeout refusal) over the serve endpoint, then the
// completion scheduled at the returned service time. The completion's
// engine sequence number is reserved here, at admission — the simulator
// reserves it at the same point, which is what keeps same-instant
// completions ordered identically.
func (d *Driver) arrive(now time.Duration, g, h topology.NodeID, id object.ID, t0 time.Duration, serveURL string) {
	if d.down[h] {
		d.droppedChoices++ // chosen replica crashed in flight
		d.col.RecordFailedRequest(now)
		return
	}
	res, err := d.client.Get(serveURL)
	if err != nil {
		d.markDown(h)
		d.droppedChoices++
		d.col.RecordFailedRequest(now)
		return
	}
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode == http.StatusServiceUnavailable && res.Header.Get(HeaderTimeout) != "" {
		d.timedOut++ // abandoned by the client-timeout model; not a failure
		return
	}
	doneNS, perr := strconv.ParseInt(res.Header.Get(HeaderDone), 10, 64)
	if res.StatusCode != http.StatusOK || perr != nil {
		d.markDown(h)
		d.droppedChoices++
		d.col.RecordFailedRequest(now)
		return
	}
	seq := d.engine.ReserveSeq()
	_ = d.engine.ScheduleHandlerReserved(time.Duration(doneNS), seq, &completion{
		d: d, g: g, h: h, id: id, t0: t0,
	})
}

// completion is the scheduled FCFS service completion of one admitted
// request: report it to the host (access counts, load measurement), then
// price the response bytes home and record the end-to-end latency.
type completion struct {
	d    *Driver
	g, h topology.NodeID
	id   object.ID
	t0   time.Duration
}

// Fire implements simevent.Handler.
func (c *completion) Fire(now time.Duration) {
	d := c.d
	if d.down[c.h] {
		// Host crashed while the request sat in its queue.
		d.col.RecordFailedRequest(now)
		return
	}
	msg := CompleteMsg{Object: int64(c.id), Gateway: int(c.g), Now: int64(now)}
	if err := d.post(d.urls[c.h], PathComplete, &msg, nil); err != nil {
		d.markDown(c.h)
		d.col.RecordFailedRequest(now)
		return
	}
	deliver := d.net.Transfer(now, d.routes.PreferencePath(c.h, c.g),
		int64(d.cfg.Sim.Universe.SizeBytes), simnet.Payload)
	d.col.RecordLatency(deliver, deliver-c.t0)
}

// Measure implements sim.Cluster: it closes every live node's
// measurement interval over the wire. A tracked host that is down reports
// zero load.
func (d *Driver) Measure(now time.Duration) (float64, metrics.HostLoadSample) {
	msg := TickMsg{Now: int64(now)}
	maxLoad := 0.0
	var tracked metrics.HostLoadSample
	for i := 0; i < d.n; i++ {
		if d.down[i] {
			continue
		}
		var rep MeasureReply
		if err := d.post(d.urls[i], PathMeasure, &msg, &rep); err != nil {
			d.markDown(topology.NodeID(i))
			continue
		}
		maxLoad = max(maxLoad, rep.Load)
		if topology.NodeID(i) == d.cfg.Sim.TrackedHost {
			tracked = metrics.HostLoadSample{Actual: rep.Load, Lower: rep.Lower, Upper: rep.Upper}
		}
	}
	return maxLoad, tracked
}

// Place implements sim.Cluster: node h's placement pass over the wire,
// with its drained event log applied to the driver's accounting.
func (d *Driver) Place(now time.Duration, h topology.NodeID) {
	if d.down[h] {
		return
	}
	var rep PlaceReply
	msg := TickMsg{Now: int64(now)}
	if err := d.post(d.urls[h], PathPlace, &msg, &rep); err != nil {
		d.nodeFailed(h, err)
		return
	}
	d.applyEvents(rep.Events)
}

// Census implements sim.Cluster by summing each live redirector node's
// census of its own objects; the nodes count below their configured floor.
func (d *Driver) Census(time.Duration, int) (total, below int) {
	for _, loc := range d.redLocs {
		if d.down[loc] {
			continue
		}
		var rep CensusReply
		if err := d.get(d.urls[loc], PathCensus, &rep); err != nil {
			d.markDown(loc)
			continue
		}
		total += rep.TotalReplicas
		below += rep.BelowFloor
	}
	return total, below
}

// nodeFailed handles a failed call to node i that carries its event log:
// a malformed reply fails the run, anything else marks the node down.
func (d *Driver) nodeFailed(i topology.NodeID, err error) {
	var we *WireError
	if errors.As(err, &we) {
		d.fail(err)
		return
	}
	d.markDown(i)
}

// fail records the run's first malformed node event and stops the engine.
func (d *Driver) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.engine.Stop()
}

// applyEvents decodes a drained node event log into calls on the shared
// sim.Accounting — the simulator's protocol.Observer — and records the
// placement decisions. Charges are bucketed sums, so replaying them when
// the log drains rather than at the instant they happened changes nothing.
// Application stops at the first event naming a node or object outside the
// run.
func (d *Driver) applyEvents(evs []Event) {
	for _, e := range evs {
		if err := d.checkEvent(&e); err != nil {
			d.fail(err)
			return
		}
		at := time.Duration(e.At)
		id := object.ID(e.Object)
		from := topology.NodeID(e.From)
		to := topology.NodeID(e.To)
		// checkEvent accepted the Move and Method the kind carries.
		kind, _ := ParseMoveKind(e.Move)
		method, _ := ParseMethod(e.Method)
		switch e.Kind {
		case EventMigrate:
			d.acct.OnMigrate(at, id, from, to, kind)
		case EventReplicate:
			d.acct.OnReplicate(at, id, from, to, kind)
		case EventDrop:
			d.acct.OnDrop(at, id, from)
		case EventRefuse:
			d.acct.OnRefuse(at, id, from, to, method)
		case EventDefer:
			d.acct.OnDefer(at, id, from, to, method)
		case EventCopy:
			d.acct.Copy(at, from, to, id)
			continue
		}
		d.decisions = append(d.decisions, e)
	}
}

// checkEvent validates e and adds what Event.Validate cannot know: nodes
// beyond the fleet and objects beyond the universe are rejected.
func (d *Driver) checkEvent(e *Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if e.From >= d.n {
		return &WireError{Field: "from", Reason: fmt.Sprintf("node %d outside the %d-node fleet", e.From, d.n)}
	}
	if e.To >= d.n {
		return &WireError{Field: "to", Reason: fmt.Sprintf("node %d outside the %d-node fleet", e.To, d.n)}
	}
	if e.Object >= int64(d.cfg.Sim.Universe.Count) {
		return &WireError{Field: "object", Reason: fmt.Sprintf("object %d outside the %d-object universe", e.Object, d.cfg.Sim.Universe.Count)}
	}
	return nil
}

// markDown records a crashed node and broadcasts the mark to the live
// fleet, best-effort, so redirectors stop choosing its replicas.
func (d *Driver) markDown(i topology.NodeID) {
	if d.down[i] {
		return
	}
	d.down[i] = true
	d.faultsSeen = true
	d.failures++
	msg := MarkMsg{Host: int(i), Down: true}
	for j := 0; j < d.n; j++ {
		if d.down[j] {
			continue
		}
		_ = d.post(d.urls[j], PathMark, &msg, nil)
	}
}

// post issues one un-retried POST: the driver's control ops (measure,
// place, complete) are not idempotent, so a failure marks the node down
// instead of retrying. The retried, idempotent RPC discipline lives in the
// nodes' own client.
func (d *Driver) post(base, path string, req, resp any) error {
	res, err := d.client.Post(base+path, "application/json", bytes.NewReader(Encode(req)))
	if err != nil {
		return err
	}
	return readReply(res, base, path, resp)
}

// get issues one un-retried GET.
func (d *Driver) get(base, path string, resp any) error {
	res, err := d.client.Get(base + path)
	if err != nil {
		return err
	}
	return readReply(res, base, path, resp)
}

func readReply(res *http.Response, base, path string, resp any) error {
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("live: %s%s: status %d: %s", base, path, res.StatusCode, data)
	}
	if resp == nil {
		return nil
	}
	if v, ok := resp.(validator); ok {
		return Decode(data, v)
	}
	return jsonUnmarshal(data, resp)
}

// results assembles the run's outputs in the simulator's schema. Live-only
// gaps are documented divergences: the invariants check needs in-process
// state (nil here), and the storage-layer aggregation has no live
// counterpart.
func (d *Driver) results() (*sim.Results, error) {
	// Final drain: events recorded since each node's last placement pass
	// (typically CreateObj copies on accepting nodes).
	for i := 0; i < d.n; i++ {
		if d.down[i] {
			continue
		}
		var rep EventsReply
		if err := d.get(d.urls[i], PathEvents, &rep); err != nil {
			d.nodeFailed(topology.NodeID(i), err)
			continue
		}
		d.applyEvents(rep.Events)
	}
	if d.err != nil {
		return nil, d.err
	}
	total, _ := d.Census(d.cfg.Sim.Duration, 0)
	r := sim.NewResults(d.cfg.Sim, d.col, float64(total)/float64(d.cfg.Sim.Universe.Count))
	r.DroppedChoices = d.droppedChoices
	r.TimedOutRequests = d.timedOut
	r.Failures = d.failures
	r.FaultsEnabled = d.faultsSeen
	r.RepairByteHops = d.acct.RepairByteHops
	r.HostStats = make([]protocol.HostStats, d.n)
	for i := 0; i < d.n; i++ {
		if d.down[i] {
			continue
		}
		var rep StatsReply
		if err := d.get(d.urls[i], PathStats, &rep); err != nil {
			continue
		}
		r.HostStats[i] = rep.Host
		r.MaxQueueLen = max(r.MaxQueueLen, rep.MaxQueueLen)
		r.TotalServed += rep.TotalServed
	}
	return r, nil
}
