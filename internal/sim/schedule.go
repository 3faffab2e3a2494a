package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Cluster is the fleet a Schedule drives: the hosts and redirectors of one
// run, whether in process (the simulator) or over HTTP (the live driver).
// Every method runs inside an engine event, at virtual time now.
type Cluster interface {
	// Dispatch starts one request for object id at gateway g at time t0.
	// schedAt is the instant the generator event that issued it was
	// scheduled; sharded simulations stamp it onto the delivery as the
	// tie-break (see shards.go), everyone else ignores it.
	Dispatch(t0, schedAt time.Duration, g topology.NodeID, id object.ID)
	// Measure closes every host's measurement interval (paper §2.1) and
	// reports the largest host load and the tracked host's load with its
	// estimate bounds (the sample's T is ignored).
	Measure(now time.Duration) (maxLoad float64, tracked metrics.HostLoadSample)
	// Place runs host h's placement pass, unless h is down.
	Place(now time.Duration, h topology.NodeID)
	// Census counts the recorded replicas over all objects, and the objects
	// holding fewer than floor of them.
	Census(now time.Duration, floor int) (total, below int)
}

// Schedule is the run schedule shared by the simulator and the
// driver-paced live fleet (paper §6): one request stream per gateway, the
// periodic load measurement, each host's staggered placement pass, the
// replica census, and the optional workload switch, all as events on a
// discrete-event engine. Sequence numbers are assigned when an event is
// scheduled, so the order Start schedules in decides how events at the
// same instant break ties; both implementations share it, which is what
// makes a live replay reproduce the simulation decision for decision.
type Schedule struct {
	cfg    Config
	engine *simevent.Engine // the global plane: ticks, switch, extras
	disp   *simevent.Engine // the generators: engine, unless sharded
	col    *metrics.Collector
	gen    workload.Generator
	rngs   []*rand.Rand // one request stream per gateway

	started bool
}

// ErrScheduleStarted is returned by a second Start: a run executes once.
var ErrScheduleStarted = errors.New("sim: run schedule already started")

// NewSchedule prepares cfg's run schedule. Generators go on disp, every
// other event on engine; the two are the same engine except in sharded
// simulations. Measurement and census samples are recorded on col.
func NewSchedule(cfg Config, engine, disp *simevent.Engine, col *metrics.Collector) *Schedule {
	n := cfg.Topo.NumNodes()
	sc := &Schedule{cfg: cfg, engine: engine, disp: disp, col: col, gen: cfg.Workload, rngs: make([]*rand.Rand, n)}
	for i := range sc.rngs {
		sc.rngs[i] = workload.Stream(cfg.Seed, uint64(i))
	}
	return sc
}

// Start schedules the whole run against c, in a fixed order: generators,
// measurement, placement (when dynamic), census, then whatever extra
// schedules (nil for none), then the workload switch. Events a caller
// schedules after Start come last among same-instant ties. Start may be
// called once.
func (sc *Schedule) Start(c Cluster, extra func() error) error {
	if sc.started {
		return ErrScheduleStarted
	}
	sc.started = true
	if err := sc.scheduleGenerators(c); err != nil {
		return err
	}
	sc.scheduleMeasurement(c)
	if sc.cfg.DynamicPlacement {
		sc.schedulePlacement(c)
	}
	sc.scheduleCensus(c)
	if extra != nil {
		if err := extra(); err != nil {
			return err
		}
	}
	if sw := sc.cfg.WorkloadSwitch; sw.To != nil {
		if err := sc.engine.Schedule(sw.At, func(time.Duration) { sc.gen = sw.To }); err != nil {
			return fmt.Errorf("sim: scheduling workload switch: %w", err)
		}
	}
	return nil
}

// Run executes the started schedule to the horizon: through run when it is
// non-nil (the sharded window loop), otherwise on the serial engine. Both
// engines poll ctx every few thousand events; a canceled run returns
// ctx.Err(). The poll does not perturb the event stream.
func (sc *Schedule) Run(ctx context.Context, run func(context.Context) error) error {
	if done := ctx.Done(); done != nil {
		poll := func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
		sc.engine.SetInterrupt(0, poll)
		defer sc.engine.SetInterrupt(0, nil)
		if sc.disp != sc.engine {
			sc.disp.SetInterrupt(0, poll)
			defer sc.disp.SetInterrupt(0, nil)
		}
	}
	if run != nil {
		if err := run(ctx); err != nil {
			return err
		}
	} else {
		sc.engine.Run(sc.cfg.Duration)
	}
	return ctx.Err()
}

// scheduleGenerators starts one request stream per gateway. Every backbone
// node is a gateway (paper §6.1). Streams are phase-offset so the fleet
// does not fire in lockstep.
func (sc *Schedule) scheduleGenerators(c Cluster) error {
	n := len(sc.rngs)
	for i := 0; i < n; i++ {
		g := topology.NodeID(i)
		rate := sc.cfg.NodeRequestRPS
		if sc.cfg.NodeRates != nil {
			rate = sc.cfg.NodeRates[i]
		}
		if rate == 0 {
			continue
		}
		spacing := time.Duration(float64(time.Second) / rate)
		phase := spacing * time.Duration(i) / time.Duration(n)
		rng := sc.rngs[i]
		// schedAt tracks when this emit was (re)scheduled — the instant its
		// serial sequence number was assigned.
		schedAt := time.Duration(0)
		var emit simevent.Event
		emit = func(now time.Duration) {
			c.Dispatch(now, schedAt, g, sc.gen.Next(g, rng))
			next := spacing
			if sc.cfg.PoissonArrivals {
				next = time.Duration(rng.ExpFloat64() * float64(spacing))
				if next <= 0 {
					next = time.Nanosecond
				}
			}
			if now+next <= sc.cfg.Duration {
				schedAt = now
				// Rescheduling forward in time cannot fail.
				_ = sc.disp.Schedule(now+next, emit)
			}
		}
		if err := sc.disp.Schedule(phase, emit); err != nil {
			return fmt.Errorf("sim: scheduling generator %d: %w", i, err)
		}
	}
	return nil
}

// every schedules tick at first and then every interval up to the horizon.
// The first instant is never in the past at Start, so scheduling cannot fail.
func (sc *Schedule) every(first, interval time.Duration, tick func(time.Duration)) {
	var ev simevent.Event
	ev = func(now time.Duration) {
		tick(now)
		if now+interval <= sc.cfg.Duration {
			_ = sc.engine.Schedule(now+interval, ev)
		}
	}
	_ = sc.engine.Schedule(first, ev)
}

// scheduleMeasurement drives the periodic load measurement (paper §2.1)
// and samples the Figure 8a/8b series.
func (sc *Schedule) scheduleMeasurement(c Cluster) {
	interval := sc.cfg.Server.MeasurementInterval
	sc.every(interval, interval, func(now time.Duration) {
		maxLoad, tr := c.Measure(now)
		sc.col.RecordMaxLoad(now, maxLoad)
		sc.col.RecordHostLoad(now, tr.Actual, tr.Lower, tr.Upper)
	})
}

// schedulePlacement drives each host's periodic placement pass. Hosts are
// staggered across the placement interval unless PlacementSynchronized.
func (sc *Schedule) schedulePlacement(c Cluster) {
	n := len(sc.rngs)
	interval := sc.cfg.PlacementInterval
	for i := 0; i < n; i++ {
		h := topology.NodeID(i)
		offset := time.Duration(0)
		if !sc.cfg.PlacementSynchronized {
			offset = interval * time.Duration(i) / time.Duration(n)
		}
		sc.every(interval+offset, interval, func(now time.Duration) { c.Place(now, h) })
	}
}

// scheduleCensus samples the average replica count per object once per
// placement interval (Table 2's replica metric) and, under a replica floor,
// the below-floor census; below-floor object-seconds integrate count ×
// interval.
func (sc *Schedule) scheduleCensus(c Cluster) {
	interval := sc.cfg.PlacementInterval
	floor := sc.cfg.Protocol.ReplicaFloor
	sc.every(interval, interval, func(now time.Duration) {
		total, below := c.Census(now, floor)
		sc.col.RecordReplicaCensus(now, float64(total)/float64(sc.cfg.Universe.Count))
		if floor > 1 {
			sc.col.RecordBelowFloor(now, below, float64(below)*interval.Seconds())
		}
	})
}

// NewResults assembles the part of a run's Results both implementations
// share: run identity, the series (trimmed to full buckets), the
// collector's counters and availability figures, and the aggregates
// derived from the series. avgReplicas is the final census. The caller
// fills in what only it knows: host statistics, server volumes, request
// failures at the redirector, fault and control-plane counters.
func NewResults(cfg Config, col *metrics.Collector, avgReplicas float64) *Results {
	full := int(cfg.Duration / cfg.MetricsBucket)
	if full < 1 {
		full = 1
	}
	// Drop the trailing partial bucket: deliveries completing just past the
	// horizon land there and would skew per-second rates.
	trim := func(points []metrics.Point) []metrics.Point {
		if len(points) > full {
			return points[:full]
		}
		return points
	}
	r := &Results{
		WorkloadName:      cfg.Workload.Name(),
		Policy:            cfg.Policy,
		Dynamic:           cfg.DynamicPlacement,
		Duration:          cfg.Duration,
		Seed:              cfg.Seed,
		Bandwidth:         trim(col.BandwidthSeries()),
		Latency:           trim(col.LatencySeries()),
		LatencyP99:        trim(col.LatencyQuantileSeries(0.99)),
		OverheadPct:       trim(col.OverheadPercentSeries()),
		MaxLoad:           col.MaxLoadSeries(),
		HostLoad:          col.HostLoadSeries(),
		Replicas:          col.ReplicaSeries(),
		Counters:          col.Counters(),
		OverheadPercent:   col.OverheadPercent(),
		AvgReplicas:       avgReplicas,
		FailedRequests:    col.Counters().FailedRequests,
		FailedSeries:      trim(col.FailedRequestSeries()),
		Outages:           col.Outages(),
		UnavailObjSecs:    col.UnavailableObjectSeconds(),
		BelowFloor:        col.BelowFloorSeries(),
		BelowFloorObjSecs: col.BelowFloorObjectSeconds(),
		TrackedHost:       cfg.TrackedHost,
		HighWatermark:     cfg.Protocol.HighWatermark,
		SandwichSlackRPS:  1e-9,
		StoreEnabled:      !cfg.Store.IsDefault(),
		StoreSpec:         cfg.Store.String(),
	}
	r.BandwidthStats = metrics.Summarize(r.Bandwidth, 2)
	if math.IsNaN(r.BandwidthStats.ReductionPercent) {
		r.BandwidthStats.ReductionPercent = 0
	}
	r.LatencyStats = metrics.Summarize(r.Latency, 2)
	r.AdjustmentTime, r.Adjusted = metrics.AdjustmentTime(r.Bandwidth, 1.10)
	r.MaxLoadPeak = metrics.MaxValue(r.MaxLoad)
	if len(r.MaxLoad) > 0 {
		r.MaxLoadSettled = metrics.MaxValue(r.MaxLoad[len(r.MaxLoad)*3/4:])
	}
	r.SandwichViolations = metrics.SandwichViolations(r.HostLoad, r.SandwichSlackRPS)
	return r
}

// Accounting prices a run's placement events on the network model and
// counts them on the collector: every CreateObj handshake (migrate,
// replicate, refuse) as a request/response control-message pair, every
// replica change (migrate, replicate, drop) as a notification to the
// object's redirector, every object copy as protocol overhead, and repair
// copies' bytes over their paths. It implements protocol.Observer and
// protocol.DeferralObserver.
type Accounting struct {
	routes       *routing.Table
	net          *simnet.Network
	col          *metrics.Collector
	redirectorAt func(object.ID) topology.NodeID
	msgBytes     int64 // zero charges no control messages
	objBytes     int64

	// RepairByteHops totals the repair copies' bytes × hops.
	RepairByteHops int64
}

// NewAccounting returns the accounting for cfg's run, charging on net and
// counting on col; redirectorAt locates each object's redirector.
func NewAccounting(cfg Config, routes *routing.Table, net *simnet.Network, col *metrics.Collector, redirectorAt func(object.ID) topology.NodeID) *Accounting {
	return &Accounting{
		routes:       routes,
		net:          net,
		col:          col,
		redirectorAt: redirectorAt,
		msgBytes:     cfg.ControlMsgBytes,
		objBytes:     int64(cfg.Universe.SizeBytes),
	}
}

// handshake charges a request/response control message pair.
func (a *Accounting) handshake(now time.Duration, from, to topology.NodeID) {
	if a.msgBytes == 0 {
		return
	}
	a.net.ControlMessage(now, a.routes.Path(from, to), a.msgBytes)
	a.net.ControlMessage(now, a.routes.Path(to, from), a.msgBytes)
}

// notify charges a one-way notification from a host to the object's
// redirector.
func (a *Accounting) notify(now time.Duration, from topology.NodeID, id object.ID) {
	if a.msgBytes == 0 {
		return
	}
	a.net.ControlMessage(now, a.routes.Path(from, a.redirectorAt(id)), a.msgBytes)
}

// Copy charges an inter-host object transfer as protocol overhead; it has
// the shape of protocol.Env.CopyObject.
func (a *Accounting) Copy(now time.Duration, from, to topology.NodeID, _ object.ID) {
	a.net.Transfer(now, a.routes.Path(from, to), a.objBytes, simnet.Overhead)
}

// OnMigrate implements protocol.Observer.
func (a *Accounting) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	a.handshake(now, from, to)
	a.notify(now, to, id)
	a.col.OnMigrate(now, id, from, to, kind)
}

// OnReplicate implements protocol.Observer.
func (a *Accounting) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	a.handshake(now, from, to)
	a.notify(now, to, id)
	if kind == protocol.RepairMove {
		a.RepairByteHops += a.objBytes * int64(a.routes.Distance(from, to))
	}
	a.col.OnReplicate(now, id, from, to, kind)
}

// OnDrop implements protocol.Observer.
func (a *Accounting) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	a.notify(now, host, id)
	a.col.OnDrop(now, id, host)
}

// OnRefuse implements protocol.Observer.
func (a *Accounting) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	a.handshake(now, from, to)
	a.col.OnRefuse(now, id, from, to, method)
}

// OnDefer implements protocol.DeferralObserver.
func (a *Accounting) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	a.col.OnDefer(now, id, from, to, method)
}

// RedirectorLocations places k redirectors on the nodes with the smallest
// average hop distance (paper §6.1), selected by (avg, id): stable and
// deterministic, so every fleet member computes the same list from the
// shared routing table and the object → redirector partition needs no
// coordination.
func RedirectorLocations(routes *routing.Table, k int) []topology.NodeID {
	n := routes.NumNodes()
	k = min(k, n)
	ids := make([]topology.NodeID, n)
	avg := make([]float64, n)
	for i := range ids {
		ids[i] = topology.NodeID(i)
		avg[i] = routes.AvgDistance(ids[i])
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if avg[j] < avg[best] || (avg[j] == avg[best] && ids[j] < ids[best]) {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
		avg[i], avg[best] = avg[best], avg[i]
	}
	return ids[:k]
}
