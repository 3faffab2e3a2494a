package live_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/live"
	"radar/internal/live/chaos"
	"radar/internal/live/check"
	"radar/internal/live/livetest"
	"radar/internal/sim"
	"radar/internal/topology"
)

// freeRunConfig compresses a scenario to wall-clock scale: sub-second
// self-scheduled ticks and a fast RPC retry schedule, so a free-running
// integration test finishes in seconds.
func freeRunConfig(t *testing.T, topo *topology.Topology, wall time.Duration) live.Config {
	t.Helper()
	cfg := liveConfig(t, topo, 16, 20, wall)
	cfg.Sim.Protocol.ReplicaFloor = 2
	cfg.FreeRunning = true
	cfg.FreeRun = live.FreeRun{
		Measurement: 200 * time.Millisecond,
		Placement:   400 * time.Millisecond,
		Census:      400 * time.Millisecond,
	}
	cfg.RPC = ctrlplane.Params{
		Timeout:     time.Second,
		Retries:     3,
		BackoffBase: 20 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
	}
	return cfg
}

// The fleet satisfies the chaos controller's target interface itself.
var _ chaos.Target = (*live.Fleet)(nil)

// startFreeRun starts a free-running fleet, waits for its initial floor
// repair (objects seed with one replica; the floor demands more — under
// -race the repair can outlast any reasonable convergence budget, and the
// checker judges steady-state maintenance), and wires an invariant checker
// to it; the returned stop function halts scraping.
func startFreeRun(t *testing.T, cfg live.Config, convergence time.Duration) (*live.Fleet, *check.Checker, func()) {
	t.Helper()
	f := livetest.Start(t, cfg)
	redirectors := live.RedirectorLocations(f.Routes(), f.Config().Sim.NumRedirectors)
	if err := check.AwaitFloor(context.Background(), f.URLs(), redirectors, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	checker := check.New(check.Config{
		URLs:        f.URLs(),
		Redirectors: redirectors,
		Interval:    100 * time.Millisecond,
		Convergence: convergence,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		checker.Run(ctx)
	}()
	return f, checker, func() { cancel(); <-done }
}

// TestFreeRunningServes: a free-running fleet with no chaos serves load on
// its own clock — tickers advance, requests succeed, and the invariant
// checker stays silent.
func TestFreeRunningServes(t *testing.T) {
	const wall = 3 * time.Second
	f, checker, stopCheck := startFreeRun(t, freeRunConfig(t, topology.Star(4), wall), 2*time.Second)

	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("free run: %v", err)
	}
	stopCheck()
	checker.CheckFailures(f.FreeDriver().Failures())

	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations on a healthy fleet:\n%s", rep)
	} else if rep.Scrapes == 0 {
		t.Fatal("checker never scraped")
	}
	if res.TotalServed == 0 {
		t.Fatal("no requests served")
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d failed requests on a healthy fleet", res.FailedRequests)
	}
	if res.AvgReplicas < 2 {
		t.Fatalf("final census %.2f replicas per object, below the floor of 2", res.AvgReplicas)
	}
	if _, err := f.Run(context.Background()); !errors.Is(err, sim.ErrScheduleStarted) {
		t.Fatalf("second Run: %v, want sim.ErrScheduleStarted", err)
	}
	for i := 0; i < f.NumNodes(); i++ {
		st := nodeStats(t, f.URL(topology.NodeID(i)))
		if st.MeasureTicks == 0 {
			t.Errorf("node %d never ran a measurement tick", i)
		}
		if st.PlaceTicks == 0 {
			t.Errorf("node %d never ran a placement tick", i)
		}
	}
}

// TestChaosKillRestartInvariants is the headline free-running test: a
// scheduled chaos plan kills a leaf node mid-run (in process: listener
// closed, goroutines reaped) and restarts it, the
// fleet keeps serving on its own clocks, and the invariant checker
// reports zero violations — the floor is repaired, no object is lost,
// counters stay monotone per boot, and every failed request falls inside
// the crash window.
func TestChaosKillRestartInvariants(t *testing.T) {
	const (
		wall        = 9 * time.Second
		convergence = 3 * time.Second
		victim      = topology.NodeID(3) // Star(4) leaf; node 0 is the redirector
	)
	f, checker, stopCheck := startFreeRun(t, freeRunConfig(t, topology.Star(4), wall), convergence)

	// The same DSL clause the simulator takes: kill node 3 at T+2s,
	// restart it 2s later.
	plan, err := chaos.Plan("crash:3@2s+2s", f.Config().Sim.Topo, wall, nil)
	if err != nil {
		t.Fatalf("planning chaos: %v", err)
	}
	ctl := chaos.NewController(f, plan, checker)

	bootBefore := nodeStats(t, f.URL(victim)).BootID

	ctx, cancel := context.WithTimeout(context.Background(), wall+30*time.Second)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()

	res, err := f.Run(ctx)
	if err != nil {
		t.Fatalf("free run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos controller: %v", err)
	}
	stopCheck()
	checker.CheckFailures(f.FreeDriver().Failures())

	if got := len(ctl.Applied()); got != 2 {
		t.Fatalf("chaos applied %d actions %v, want kill+restart", got, ctl.Applied())
	}
	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations:\n%s", rep)
	} else if rep.Scrapes < 10 {
		t.Fatalf("checker only scraped %d times over %v", rep.Scrapes, wall)
	}
	if res.TotalServed == 0 {
		t.Fatal("no requests served")
	}
	// The victim came back as a fresh incarnation and is serving again.
	if f.Killed(victim) {
		t.Fatal("victim still marked killed after its scheduled restart")
	}
	st := nodeStats(t, f.URL(victim))
	if st.BootID == bootBefore {
		t.Fatalf("victim's boot ID %d unchanged across kill+restart", st.BootID)
	}
	if st.MeasureTicks == 0 {
		t.Fatal("restarted victim never ticked")
	}
}

// TestChaosPartitionHeals: cutting the control plane between the hub and
// a leaf (poisoned peer tables, both directions) and healing it leaves no
// lasting damage: the checker stays silent and requests keep being
// served. Partitions cut control RPCs only — the data plane (client 302s)
// is deliberately untouched.
func TestChaosPartitionHeals(t *testing.T) {
	const wall = 4 * time.Second
	f, checker, stopCheck := startFreeRun(t, freeRunConfig(t, topology.Star(4), wall), 2*time.Second)

	plan, err := chaos.Plan("link:0-2@1s+1500ms", f.Config().Sim.Topo, wall, nil)
	if err != nil {
		t.Fatalf("planning chaos: %v", err)
	}
	ctl := chaos.NewController(f, plan, checker)

	ctx, cancel := context.WithTimeout(context.Background(), wall+30*time.Second)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatalf("free run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos controller: %v", err)
	}
	stopCheck()
	checker.CheckFailures(f.FreeDriver().Failures())

	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations after partition+heal:\n%s", rep)
	}
	if res.TotalServed == 0 {
		t.Fatal("no requests served")
	}
	// Both sides survived the partition with RPCs refused at the client;
	// at least one should have recorded unreachable-peer fast-failures if
	// any control traffic crossed the cut, and none may have crashed.
	for i := 0; i < f.NumNodes(); i++ {
		if f.Killed(topology.NodeID(i)) {
			t.Fatalf("node %d died during a control-plane partition", i)
		}
	}
}

// TestFreeRunCensusFailsOnUnreachableRedirector: a redirector that does not
// answer the final census fails the census and the run, instead of
// counting its objects as holding no replica. Of two concurrent Runs, one
// runs and the other returns sim.ErrScheduleStarted.
func TestFreeRunCensusFailsOnUnreachableRedirector(t *testing.T) {
	f := livetest.Start(t, freeRunConfig(t, topology.Star(4), 300*time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	urls := f.URLs()
	urls[live.RedirectorLocations(f.Routes(), f.Config().Sim.NumRedirectors)[0]] = closed
	d, err := live.NewFreeDriver(f.Config(), urls)
	if err != nil {
		t.Fatal(err)
	}
	if avg, err := d.Census(); err == nil {
		t.Fatalf("census with an unreachable redirector = %v, want an error", avg)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := d.Run(context.Background())
			errs <- err
		}()
	}
	started, failed := 0, 0
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case errors.Is(err, sim.ErrScheduleStarted):
			started++
		case err != nil:
			failed++
		}
	}
	if started != 1 || failed != 1 {
		t.Fatalf("two concurrent runs: %d returned ErrScheduleStarted and %d failed, want 1 and 1", started, failed)
	}
}
