package live_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/live/livetest"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// decisionRecorder mirrors the live nodes' event log on the simulator
// side: every placement decision the protocol announces is recorded in
// the wire Event shape, so the two sequences compare field for field.
type decisionRecorder struct {
	events []live.Event
}

func (r *decisionRecorder) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	r.events = append(r.events, live.Event{At: int64(now), Kind: live.EventMigrate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (r *decisionRecorder) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	r.events = append(r.events, live.Event{At: int64(now), Kind: live.EventReplicate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (r *decisionRecorder) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	r.events = append(r.events, live.Event{At: int64(now), Kind: live.EventDrop, Object: int64(id), From: int(host)})
}

func (r *decisionRecorder) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	r.events = append(r.events, live.Event{At: int64(now), Kind: live.EventRefuse, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}

func (r *decisionRecorder) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	r.events = append(r.events, live.Event{At: int64(now), Kind: live.EventDefer, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}

// TestSimLiveEquivalence is the headline test pinning live mode to the
// simulator: each configuration drives both the deterministic simulation
// and a 3-node loopback fleet of real HTTP servers, and the sequence of
// placement decisions — every migration, replication, drop, and refusal,
// in order, with virtual timestamps — must be identical, and so must the
// whole Results but for the fields with no live counterpart. The cases
// cover every branch of the shared run schedule. The simulator is the
// executable spec; any divergence on the live side is a bug in the
// transport lift.
func TestSimLiveEquivalence(t *testing.T) {
	base := func(t *testing.T) live.Config {
		return liveConfig(t, topology.Line(3), 24, 20, 3*time.Minute)
	}
	for _, tc := range []struct {
		name string
		cfg  func(*testing.T) live.Config
	}{
		{"base", base},
		{"poisson", func(t *testing.T) live.Config {
			cfg := base(t)
			cfg.Sim.PoissonArrivals = true
			return cfg
		}},
		{"synchronized", func(t *testing.T) live.Config {
			cfg := base(t)
			cfg.Sim.PlacementSynchronized = true
			return cfg
		}},
		{"floor2", func(t *testing.T) live.Config {
			cfg := base(t)
			cfg.Sim.Protocol.ReplicaFloor = 2
			return cfg
		}},
		{"switch", func(t *testing.T) live.Config {
			cfg := base(t)
			to, err := workload.NewHotPages(cfg.Sim.Universe, 0.1, 0.9, 11)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sim.WorkloadSwitch.At = 90 * time.Second
			cfg.Sim.WorkloadSwitch.To = to
			return cfg
		}},
		{"noderates", func(t *testing.T) live.Config {
			cfg := base(t)
			cfg.Sim.NodeRates = []float64{30, 0, 10}
			return cfg
		}},
		{"redirectors2", func(t *testing.T) live.Config {
			cfg := base(t)
			cfg.Sim.NumRedirectors = 2
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name != "base" {
				t.Skip("one case under -short")
			}
			checkSimLiveEquivalent(t, tc.cfg(t))
		})
	}
}

func checkSimLiveEquivalent(t *testing.T, cfg live.Config) {
	simCfg := cfg.Sim
	rec := &decisionRecorder{}
	simCfg.ExtraObserver = rec
	s, err := sim.New(simCfg)
	if err != nil {
		t.Fatalf("building simulation: %v", err)
	}
	simRes, err := s.Run()
	if err != nil {
		t.Fatalf("running simulation: %v", err)
	}

	f := livetest.Start(t, cfg)
	liveRes, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("running live fleet: %v", err)
	}

	liveDecisions := f.Driver().Decisions()
	if len(rec.events) == 0 {
		t.Fatal("simulation made no placement decisions; the workload is too small to pin anything")
	}
	if len(liveDecisions) != len(rec.events) {
		t.Fatalf("decision count: live %d, sim %d", len(liveDecisions), len(rec.events))
	}
	for i := range rec.events {
		if liveDecisions[i] != rec.events[i] {
			t.Fatalf("decision %d diverges:\n  live: %+v\n  sim:  %+v", i, liveDecisions[i], rec.events[i])
		}
	}

	// Everything else must agree too, field for field: series, counters,
	// aggregates, host statistics. The invariants check needs in-process
	// state and storage layers have no live counterpart.
	if simRes.InvariantsError != nil {
		t.Fatalf("simulation invariants: %v", simRes.InvariantsError)
	}
	simRes.InvariantsError, simRes.StoreLayers = nil, nil
	liveRes.InvariantsError, liveRes.StoreLayers = nil, nil
	if !reflect.DeepEqual(liveRes, simRes) {
		lv, sv := reflect.ValueOf(liveRes).Elem(), reflect.ValueOf(simRes).Elem()
		for i := 0; i < sv.NumField(); i++ {
			if !reflect.DeepEqual(lv.Field(i).Interface(), sv.Field(i).Interface()) {
				t.Errorf("Results.%s:\n  live: %+v\n  sim:  %+v", sv.Type().Field(i).Name, lv.Field(i).Interface(), sv.Field(i).Interface())
			}
		}
	}
	if liveRes.FailedRequests != 0 || liveRes.Failures != 0 {
		t.Errorf("healthy fleet reported %d failed requests, %d crashes", liveRes.FailedRequests, liveRes.Failures)
	}
}
