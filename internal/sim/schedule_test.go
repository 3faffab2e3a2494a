package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/simevent"
	"radar/internal/topology"
	"radar/internal/workload"
)

// recordingCluster is a Cluster that logs every call as "<time> <call>".
type recordingCluster struct {
	calls []string
}

func (c *recordingCluster) log(now time.Duration, format string, args ...any) {
	c.calls = append(c.calls, fmt.Sprintf("%v ", now)+fmt.Sprintf(format, args...))
}

func (c *recordingCluster) Dispatch(t0, _ time.Duration, g topology.NodeID, _ object.ID) {
	c.log(t0, "dispatch g%d", g)
}

func (c *recordingCluster) Measure(now time.Duration) (float64, metrics.HostLoadSample) {
	c.log(now, "measure")
	return 0, metrics.HostLoadSample{}
}

func (c *recordingCluster) Place(now time.Duration, h topology.NodeID) {
	c.log(now, "place h%d", h)
}

func (c *recordingCluster) Census(now time.Duration, floor int) (int, int) {
	c.log(now, "census floor=%d", floor)
	return 0, 0
}

// scheduleConfig is a tiny run on an n-node line with no request streams.
func scheduleConfig(t *testing.T, n int, dur time.Duration) Config {
	t.Helper()
	u := object.Universe{Count: 10, SizeBytes: 1 << 10}
	gen, err := workload.NewUniform(u)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, 1)
	cfg.Topo = topology.Line(n)
	cfg.Universe = u
	cfg.NodeRates = make([]float64, n)
	cfg.Duration = dur
	return cfg
}

func newTestSchedule(t *testing.T, cfg Config) (*Schedule, *simevent.Engine) {
	t.Helper()
	col, err := metrics.New(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng := simevent.New()
	return NewSchedule(cfg, eng, eng, col), eng
}

// TestScheduleSameInstantOrder pins how events due at the same instant
// break ties: generators, measurement, placement, census, the caller's
// extra events, the workload switch, and last whatever the caller
// schedules after Start. Engine sequence numbers follow this order, and
// the simulator and the live driver must agree on it.
func TestScheduleSameInstantOrder(t *testing.T) {
	cfg := scheduleConfig(t, 2, time.Second)
	// Gateway 1 at 0.5 req/s: spacing 2s, phase 2s×1/2 = 1s — the instant
	// every tick below first fires.
	cfg.NodeRates[1] = 0.5
	cfg.Server.MeasurementInterval = time.Second
	cfg.PlacementInterval = time.Second
	cfg.PlacementSynchronized = true
	cfg.Protocol.ReplicaFloor = 2
	switched, err := workload.NewUniform(cfg.Universe)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkloadSwitch.At = time.Second
	cfg.WorkloadSwitch.To = switched

	sc, eng := newTestSchedule(t, cfg)
	c := &recordingCluster{}
	genAt := func(now time.Duration, who string) {
		if sc.gen == switched {
			c.log(now, "%s after switch", who)
		} else {
			c.log(now, "%s before switch", who)
		}
	}
	err = sc.Start(c, func() error {
		return eng.Schedule(time.Second, func(now time.Duration) { genAt(now, "extra") })
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(time.Second, func(now time.Duration) { genAt(now, "hook") }); err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1s dispatch g1",
		"1s measure",
		"1s place h0",
		"1s place h1",
		"1s census floor=2",
		"1s extra before switch",
		"1s hook after switch",
	}
	if !reflect.DeepEqual(c.calls, want) {
		t.Fatalf("same-instant call order:\n got  %q\n want %q", c.calls, want)
	}
}

// TestSchedulePlacementStagger pins the placement offsets: host i of n
// first runs at interval + interval×i/n and then every interval, unless
// PlacementSynchronized puts every host on interval, interval×2, ...
func TestSchedulePlacementStagger(t *testing.T) {
	for _, tc := range []struct {
		sync bool
		want []string
	}{
		{false, []string{
			"40s place h0", "50s place h1", "1m0s place h2", "1m10s place h3",
			"1m20s place h0", "1m30s place h1", "1m40s place h2",
		}},
		{true, []string{
			"40s place h0", "40s place h1", "40s place h2", "40s place h3",
			"1m20s place h0", "1m20s place h1", "1m20s place h2", "1m20s place h3",
		}},
	} {
		cfg := scheduleConfig(t, 4, 100*time.Second)
		cfg.PlacementInterval = 40 * time.Second
		cfg.Server.MeasurementInterval = time.Hour // out of the way
		cfg.PlacementSynchronized = tc.sync
		sc, _ := newTestSchedule(t, cfg)
		c := &recordingCluster{}
		if err := sc.Start(c, nil); err != nil {
			t.Fatal(err)
		}
		if err := sc.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, call := range c.calls {
			if strings.Contains(call, "place") {
				got = append(got, call)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("PlacementSynchronized=%v placement calls:\n got  %q\n want %q", tc.sync, got, tc.want)
		}
	}
}

// TestScheduleStartsOnce checks that a schedule runs once: a second Start
// — and so a second Simulation.Run, serial or sharded — fails with
// ErrScheduleStarted instead of scheduling into the engine's past.
func TestScheduleStartsOnce(t *testing.T) {
	sc, _ := newTestSchedule(t, scheduleConfig(t, 2, time.Minute))
	c := &recordingCluster{}
	if err := sc.Start(c, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.Start(c, nil); !errors.Is(err, ErrScheduleStarted) {
		t.Fatalf("second Start: got %v, want ErrScheduleStarted", err)
	}

	// Sharded runs keep the generators on a dispatch engine of their own.
	for _, shards := range []int{0, 2} {
		cfg := scheduleConfig(t, 3, time.Minute)
		cfg.NodeRates = nil
		cfg.NodeRequestRPS = 5
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 0 && s.ShardCount() != shards {
			t.Fatalf("ShardCount = %d, want %d", s.ShardCount(), shards)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); !errors.Is(err, ErrScheduleStarted) {
			t.Fatalf("Shards=%d: second Simulation.Run: got %v, want ErrScheduleStarted", shards, err)
		}
	}
}
