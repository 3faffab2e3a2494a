package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/server"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/store"
	"radar/internal/substrate"
	"radar/internal/topology"
)

// Simulation is one configured run. Build with New, execute with Run.
type Simulation struct {
	cfg    Config
	topo   *topology.Topology
	routes *routing.Table
	engine *simevent.Engine
	net    *simnet.Network
	col    *metrics.Collector

	servers []*server.Server
	hosts   []*protocol.Host
	stores  []store.ReplicaStore // one backend stack per host

	redirectors []*protocol.Redirector
	svcQueue    []reqFIFO // deferred FCFS completions, one FIFO per server

	sched *Schedule
	acct  *Accounting

	// Sharded-engine state (see shards.go). laneOf maps every node to its
	// execution lane; serial runs point every node at the single main lane,
	// whose sinks alias col/net above, so the per-request code is the same
	// in both modes. dispEng carries the generator/redirector dispatch
	// plane: the main engine when serial, a dedicated serial engine when
	// sharded.
	sharded   bool
	lanes     []*lane
	laneOf    []*lane
	disp      *lane
	dispEng   *simevent.Engine
	dispSeq   uint64
	shardOf   []int
	lookahead time.Duration

	droppedChoices    int64
	timedOut          int64
	updatesInjected   int64
	updatesPropagated int64

	down       []bool
	failures   int64
	recoveries int64

	// ctrl is the armed unreliable control plane; nil unless the fault
	// spec carries message-fault terms, so reliable runs keep the exact
	// inline control paths (bit-identical output).
	ctrl *ctrlState

	// Fault-injection state. haveLinkFaults arms the per-request severed-
	// path checks; it stays false in fault-free runs so the hot path is
	// bit-identical to a build without the fault subsystem.
	haveLinkFaults bool
	linkFailures   int64
	linkRecoveries int64
	// outageStart[id] is when object id lost its last recorded replica;
	// windows close on recovery (or at the horizon, in results).
	outageStart map[object.ID]time.Duration
}

// New builds a simulation from cfg. A nil cfg.Topo selects the
// reconstructed UUNET backbone. The topology and routing table come from
// the shared substrate cache (internal/substrate): every simulation over a
// structurally identical topology — including concurrent runs in an
// experiment suite — reads the same frozen instances instead of rebuilding
// its own.
func New(cfg Config) (*Simulation, error) {
	var sub *substrate.Substrate
	if cfg.Topo == nil {
		sub = substrate.UUNET()
		cfg.Topo = sub.Topo
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sub == nil {
		sub = substrate.Shared(cfg.Topo)
	}
	s := &Simulation{
		cfg:    cfg,
		topo:   cfg.Topo,
		engine: simevent.New(),
	}
	s.routes = sub.Routes
	col, err := metrics.New(cfg.MetricsBucket)
	if err != nil {
		return nil, err
	}
	col.Reserve(cfg.Duration)
	s.col = col
	s.net, err = simnet.New(cfg.Net, s.topo.NumNodes(), col)
	if err != nil {
		return nil, err
	}
	if err := s.buildRedirectors(); err != nil {
		return nil, err
	}
	if f := cfg.Protocol.ReplicaFloor; f > 1 {
		for _, red := range s.redirectors {
			red.SetReplicaFloor(f)
		}
	}
	if err := s.armCtrlPlane(); err != nil {
		return nil, err
	}
	s.acct = NewAccounting(cfg, s.routes, s.net, col, func(id object.ID) topology.NodeID {
		return s.redirectorFor(id).Location
	})
	if s.ctrl != nil {
		// The unreliable plane charges every message leg itself (retries
		// and duplicates included) at its true send time.
		s.acct.msgBytes = 0
	}
	s.stores, err = cfg.Store.BuildAll(s.topo.NumNodes(), store.Params{
		Seed:     cfg.Seed,
		Horizon:  cfg.Duration,
		ObjBytes: int64(cfg.Universe.SizeBytes),
	})
	if err != nil {
		return nil, err
	}
	if err := s.buildHosts(); err != nil {
		return nil, err
	}
	s.seedPlacement()
	n := s.topo.NumNodes()
	s.down = make([]bool, n)
	s.svcQueue = make([]reqFIFO, n)
	if err := s.initLanes(); err != nil {
		return nil, err
	}
	s.sched = NewSchedule(cfg, s.engine, s.dispEng, s.col)
	return s, nil
}

// buildRedirectors places cfg.NumRedirectors redirectors (see
// RedirectorLocations) and hash-partitions the object namespace among
// them.
func (s *Simulation) buildRedirectors() error {
	n := s.topo.NumNodes()
	if s.cfg.RedirectorAtHome {
		// One redirector per node; objects map to their home node's.
		s.redirectors = make([]*protocol.Redirector, n)
		for i := 0; i < n; i++ {
			r, err := protocol.NewRedirector(topology.NodeID(i), s.routes, s.cfg.Policy, s.cfg.Protocol.DistConstant)
			if err != nil {
				return err
			}
			s.redirectors[i] = r
		}
		return nil
	}
	locs := RedirectorLocations(s.routes, s.cfg.NumRedirectors)
	s.redirectors = make([]*protocol.Redirector, len(locs))
	for i, loc := range locs {
		r, err := protocol.NewRedirector(loc, s.routes, s.cfg.Policy, s.cfg.Protocol.DistConstant)
		if err != nil {
			return err
		}
		s.redirectors[i] = r
	}
	return nil
}

// redirectorFor maps an object to its responsible redirector: its home
// node's under RedirectorAtHome, otherwise by hash partition.
func (s *Simulation) redirectorFor(id object.ID) *protocol.Redirector {
	if s.cfg.RedirectorAtHome {
		return s.redirectors[s.cfg.Universe.HomeNode(id, len(s.redirectors))]
	}
	return s.redirectors[int(id)%len(s.redirectors)]
}

func (s *Simulation) buildHosts() error {
	n := s.topo.NumNodes()
	s.servers = make([]*server.Server, n)
	s.hosts = make([]*protocol.Host, n)
	obs := &chargingObserver{s: s}
	var canReplicate func(object.ID, int) bool
	if s.cfg.Consistency != nil {
		canReplicate = s.cfg.Consistency.CanReplicate
	}
	for i := 0; i < n; i++ {
		weight := 1.0
		if s.cfg.HostWeights != nil {
			weight = s.cfg.HostWeights[i]
		}
		srvCfg := s.cfg.Server
		srvCfg.CapacityRPS *= weight
		srv, err := server.New(topology.NodeID(i), srvCfg)
		if err != nil {
			return err
		}
		s.servers[i] = srv
		env := protocol.Env{
			Routes: s.routes,
			RedirectorFor: func(id object.ID) protocol.RedirectorControl {
				if s.ctrl != nil {
					return s.lossyRedirectorFor(id)
				}
				return s.redirectorFor(id)
			},
			Peer: func(p topology.NodeID) *protocol.Host {
				if s.down[p] {
					return nil // failed hosts accept nothing
				}
				return s.hosts[p]
			},
			FindRecipient:    s.findRecipient,
			CopyObject:       s.acct.Copy,
			CanReplicate:     canReplicate,
			FindRepairTarget: s.findRepairTarget,
			Store:            s.stores[i],
			Observer:         obs,
		}
		if s.ctrl != nil {
			env.SendCreateObj = s.sendCreateObj
		}
		h, err := protocol.NewHost(topology.NodeID(i), s.cfg.Protocol.Weighted(weight), env, srv)
		if err != nil {
			return err
		}
		s.hosts[i] = h
	}
	return nil
}

// seedPlacement installs the paper's round-robin initial assignment
// (object i on node i mod N), or a full replica set everywhere for the
// full-replication ablation.
func (s *Simulation) seedPlacement() {
	n := s.topo.NumNodes()
	for i := 0; i < s.cfg.Universe.Count; i++ {
		id := object.ID(i)
		switch {
		case s.cfg.ReplicateEverywhere:
			for h := 0; h < n; h++ {
				s.hosts[h].SeedObject(id)
				s.stores[h].Create(0, id)
				s.redirectorFor(id).NotifyReplicaChange(id, topology.NodeID(h), 1)
			}
		case s.cfg.InitialPlacement != nil:
			for _, h := range s.cfg.InitialPlacement[i] {
				s.hosts[h].SeedObject(id)
				s.stores[h].Create(0, id)
				s.redirectorFor(id).NotifyReplicaChange(id, h, 1)
			}
		default:
			home := s.cfg.Universe.HomeNode(id, n)
			s.hosts[home].SeedObject(id)
			s.stores[home].Create(0, id)
			s.redirectorFor(id).NotifyReplicaChange(id, home, 1)
		}
	}
}

// findRecipient implements the offload-recipient lookup backed by the
// periodic load-report exchange of §4.2.2: the host with the least
// accept-side load strictly below the low watermark.
func (s *Simulation) findRecipient(exclude topology.NodeID) (topology.NodeID, bool) {
	best, bestLoad, found := topology.NodeID(0), 0.0, false
	for i := range s.hosts {
		id := topology.NodeID(i)
		if id == exclude || s.down[i] {
			continue
		}
		l := s.hosts[i].Estimator().LoadForAccept(s.servers[i].Load())
		// Compare against each host's own (weight-scaled) watermark, and
		// prefer the most relative headroom so strong hosts absorb more.
		lw := s.hosts[i].Params().LowWatermark
		rel := l / lw
		if l < lw && (!found || rel < bestLoad) {
			best, bestLoad, found = id, rel, true
		}
	}
	return best, found
}

// findRepairTarget locates a host for a replica-floor repair copy: the
// live host with the most relative headroom below its accept watermark
// that does not already hold the object. With the availability-aware
// objective armed (Params.AvailabilityWeight = w > 0) selection becomes
// refusal-aware in two ways that mirror the Repair accept path: the
// watermark is relaxed from lw toward hw by w (floor restoration may
// consume load-balancing headroom in proportion to the knob), and hosts
// whose acquisition-halt guard is active are skipped — their load
// estimate is stale-low, so the pure-headroom rule keeps electing them
// pass after pass and every such election is a guaranteed refusal that
// costs the object a full placement interval of single-copy exposure.
// Weight zero keeps the legacy selection byte-for-byte, halted electees
// and all.
func (s *Simulation) findRepairTarget(now time.Duration, id object.ID, from topology.NodeID) (topology.NodeID, bool) {
	w := s.cfg.Protocol.AvailabilityWeight
	best, bestRel, found := topology.NodeID(0), 0.0, false
	for i := range s.hosts {
		nid := topology.NodeID(i)
		if nid == from || s.down[i] || s.hosts[i].Has(id) {
			continue
		}
		if w > 0 && s.hosts[i].AcquisitionHalted(now) {
			continue
		}
		l := s.hosts[i].Estimator().LoadForAccept(s.servers[i].Load())
		p := s.hosts[i].Params()
		ceiling := p.LowWatermark + w*(p.HighWatermark-p.LowWatermark)
		rel := l / ceiling
		if l < ceiling && (!found || rel < bestRel) {
			best, bestRel, found = nid, rel, true
		}
	}
	return best, found
}

// chargingObserver is the simulation's protocol.Observer: the shared
// Accounting, plus the consistency manager's primary tracking and the
// configured ExtraObserver.
type chargingObserver struct {
	s *Simulation
}

func (o *chargingObserver) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	o.s.acct.OnMigrate(now, id, from, to, kind)
	if o.s.cfg.Consistency != nil {
		o.s.cfg.Consistency.OnMigrate(id, from, to)
	}
	if o.s.cfg.ExtraObserver != nil {
		o.s.cfg.ExtraObserver.OnMigrate(now, id, from, to, kind)
	}
}

func (o *chargingObserver) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	o.s.acct.OnReplicate(now, id, from, to, kind)
	if o.s.cfg.ExtraObserver != nil {
		o.s.cfg.ExtraObserver.OnReplicate(now, id, from, to, kind)
	}
}

func (o *chargingObserver) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	o.s.acct.OnDrop(now, id, host)
	if o.s.cfg.Consistency != nil {
		reps := o.s.redirectorFor(id).Replicas(id)
		if len(reps) > 0 {
			o.s.cfg.Consistency.OnDrop(id, host, reps[0].Host)
		}
	}
	if o.s.cfg.ExtraObserver != nil {
		o.s.cfg.ExtraObserver.OnDrop(now, id, host)
	}
}

func (o *chargingObserver) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	o.s.acct.OnRefuse(now, id, from, to, method)
	if o.s.cfg.ExtraObserver != nil {
		o.s.cfg.ExtraObserver.OnRefuse(now, id, from, to, method)
	}
}

func (o *chargingObserver) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	o.s.acct.OnDefer(now, id, from, to, method)
	if d, ok := o.s.cfg.ExtraObserver.(protocol.DeferralObserver); ok {
		d.OnDefer(now, id, from, to, method)
	}
}

// Run executes the simulation for cfg.Duration of virtual time and
// returns its results. A simulation runs once: a second call returns
// ErrScheduleStarted.
func (s *Simulation) Run() (*Results, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the engine polls ctx every few
// thousand events (microseconds of wall time), so canceling a long run
// returns promptly with ctx.Err() and no results. The poll does not
// perturb the event stream — a run that is never canceled is bit-identical
// to Run.
func (s *Simulation) RunContext(ctx context.Context) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The simulator-only events — §5 updates, faults, anti-entropy — go
	// between the census and the workload switch.
	err := s.sched.Start(cluster{s}, func() error {
		if err := s.scheduleUpdates(); err != nil {
			return err
		}
		if err := s.scheduleFaults(); err != nil {
			return err
		}
		return s.scheduleReconcile()
	})
	if err != nil {
		return nil, err
	}
	var run func(context.Context) error
	if s.sharded {
		run = s.runSharded
	}
	if err := s.sched.Run(ctx, run); err != nil {
		return nil, err
	}
	return s.results(), nil
}

// cluster is the simulation as the Cluster its run schedule drives.
type cluster struct{ *Simulation }

// Dispatch runs one request through the paper's pipeline: gateway ->
// redirector (UDP, latency only) -> chosen host (UDP) -> FCFS service ->
// response along the preference path back to the gateway. schedAt is the
// instant the calling emit event was scheduled; serial runs ignore it,
// sharded runs fold it into the delivery's ordering stamp.
func (s cluster) Dispatch(t0, schedAt time.Duration, g topology.NodeID, id object.ID) {
	red := s.redirectorFor(id)
	if s.haveLinkFaults && !s.net.PathUp(s.routes.Path(g, red.Location)) {
		s.col.RecordFailedRequest(t0) // redirector unreachable: request lost
		return
	}
	t1 := s.net.ControlLatency(t0, s.routes.Distance(g, red.Location))
	h, err := red.ChooseReplica(g, id)
	if err != nil {
		// No replica to serve from: every copy was purged by crashes, or
		// the reachability filter excluded them all. Only faults produce
		// this, so the failed-request metric stays zero in fault-free runs.
		s.droppedChoices++
		s.col.RecordFailedRequest(t1)
		return
	}
	t2 := s.net.ControlLatency(t1, s.routes.Distance(red.Location, h))
	r := s.disp.newRequest()
	*r = request{s: s.Simulation, g: g, h: h, id: id, t0: t0, phase: reqArrive}
	if !s.sharded {
		// Scheduling forward in time cannot fail.
		_ = s.engine.ScheduleHandler(t2, r)
		return
	}
	// Deliver into the chosen host's shard wheel. The stamp reconstructs
	// the serial engine's tie-breaking order: dispatch runs serially, so
	// dispSeq is exactly the order arrivals would have drawn sequence
	// numbers, and (t0, schedAt) resolves ties against shard-local events
	// stamped elsewhere. The wheel asserts t2 is outside the shard's
	// committed window — the lookahead invariant.
	s.dispSeq++
	s.laneOf[r.h].wheel.Push(t2, simevent.Stamp{
		SchedAt:  t0,
		ParentAt: schedAt,
		Plane:    simevent.PlaneDelivery,
		Seq:      s.dispSeq,
	}, r)
}

// Measure closes every server's measurement interval and retires the
// hosts' estimates.
func (s cluster) Measure(now time.Duration) (float64, metrics.HostLoadSample) {
	maxLoad := 0.0
	for i := range s.servers {
		start := s.servers[i].CloseInterval(now)
		s.hosts[i].OnMeasurementIntervalClose(start)
		if l := s.servers[i].Load(); l > maxLoad {
			maxLoad = l
		}
	}
	tracked := s.cfg.TrackedHost
	actual := s.servers[tracked].Load()
	lower, upper := s.hosts[tracked].Estimator().Bounds(actual)
	return maxLoad, metrics.HostLoadSample{Actual: actual, Lower: lower, Upper: upper}
}

// Place runs host h's DecidePlacement unless it is down.
func (s cluster) Place(now time.Duration, h topology.NodeID) {
	if !s.down[h] {
		s.hosts[h].DecidePlacement(now)
	}
}

// Census counts the replicas the redirectors record.
func (s cluster) Census(_ time.Duration, floor int) (total, below int) {
	for i := 0; i < s.cfg.Universe.Count; i++ {
		c := s.redirectorFor(object.ID(i)).ReplicaCount(object.ID(i))
		total += c
		if c < floor {
			below++
		}
	}
	return total, below
}

// Hosts exposes the protocol hosts (read-only use by tests and tools).
func (s *Simulation) Hosts() []*protocol.Host { return s.hosts }

// Servers exposes the server models (read-only use by tests and tools).
func (s *Simulation) Servers() []*server.Server { return s.servers }

// Redirectors exposes the redirectors (read-only use by tests and tools).
func (s *Simulation) Redirectors() []*protocol.Redirector { return s.redirectors }

// Network exposes the network model (read-only use by tests and tools).
func (s *Simulation) Network() *simnet.Network { return s.net }

// CheckInvariants verifies cross-component invariants: the redirector's
// replica sets are subsets of what hosts actually hold with matching
// affinities, and every object retains at least one replica.
func (s *Simulation) CheckInvariants() error {
	for i := 0; i < s.cfg.Universe.Count; i++ {
		id := object.ID(i)
		reps := s.redirectorFor(id).Replicas(id)
		if len(reps) == 0 {
			// With faults configured an object whose only replica lived
			// on a downed host is legitimately unavailable.
			if s.faultsEnabled() {
				continue
			}
			return fmt.Errorf("sim: object %d has no replicas recorded", id)
		}
		for _, rep := range reps {
			if !s.hosts[rep.Host].Has(id) {
				return fmt.Errorf("sim: redirector lists replica of %d on host %d which lacks it", id, rep.Host)
			}
			if got := s.hosts[rep.Host].Affinity(id); got != rep.Aff {
				return fmt.Errorf("sim: object %d host %d affinity mismatch: redirector %d host %d", id, rep.Host, rep.Aff, got)
			}
		}
	}
	return nil
}

// results assembles the run's outputs.
func (s *Simulation) results() *Results {
	// Fold shard lanes' commutative accumulators into the main sinks
	// before anything below reads them (no-op for serial runs).
	s.mergeLanes()
	// A final anti-entropy pass closes the run: any orphan or stale record
	// left by notifications lost since the last tick is healed before the
	// invariant check, mirroring what the next periodic pass would do.
	if s.ctrl != nil {
		s.reconcile(s.cfg.Duration)
	}
	// Close outage windows still open at the horizon so object-seconds of
	// unavailability are complete — in sorted object order, because the
	// windows accumulate into a floating-point sum and map iteration
	// order would otherwise leak into the result's low bits.
	if len(s.outageStart) > 0 {
		open := make([]object.ID, 0, len(s.outageStart))
		for id := range s.outageStart {
			open = append(open, id)
		}
		sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
		for _, id := range open {
			s.col.RecordOutageWindow(s.outageStart[id], s.cfg.Duration)
			delete(s.outageStart, id)
		}
	}
	total, _ := cluster{s}.Census(s.cfg.Duration, 0)
	r := NewResults(s.cfg, s.col, float64(total)/float64(s.cfg.Universe.Count))
	r.DroppedChoices = s.droppedChoices
	r.TimedOutRequests = s.timedOut
	r.UpdatesInjected = s.updatesInjected
	r.UpdatesPropagated = s.updatesPropagated
	r.Failures = s.failures
	r.Recoveries = s.recoveries
	r.FaultsEnabled = s.faultsEnabled()
	r.LinkFailures = s.linkFailures
	r.LinkRecoveries = s.linkRecoveries
	r.RepairByteHops = s.acct.RepairByteHops
	r.InvariantsError = s.CheckInvariants()
	r.HostStats = make([]protocol.HostStats, len(s.hosts))
	for i, h := range s.hosts {
		r.HostStats[i] = h.Stats
	}
	if s.ctrl != nil {
		r.CtrlEnabled = true
		r.CtrlStats = s.ctrl.plane.Stats()
		r.OrphansHealed = s.ctrl.orphansHealed
		r.StaleAffinityRepaired = s.ctrl.staleAffinity
		r.GhostsRemoved = s.ctrl.ghostsRemoved
		r.ReconcileRuns = s.ctrl.reconcileRuns
		r.ReconcileByteHops = s.ctrl.reconcileByteHops
	}
	r.StoreLayers = store.Aggregate(s.stores)
	maxQ := 0
	var totalServed int64
	for _, srv := range s.servers {
		if srv.MaxQueueLen() > maxQ {
			maxQ = srv.MaxQueueLen()
		}
		totalServed += srv.TotalServed()
	}
	r.MaxQueueLen = maxQ
	r.TotalServed = totalServed
	return r
}
