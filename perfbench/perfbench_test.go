package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// evenSchedule returns n arrivals every gap, starting at gap.
func evenSchedule(n int, gap time.Duration) []arrival {
	s := make([]arrival, n)
	for i := range s {
		s[i] = arrival{Due: time.Duration(i+1) * gap}
	}
	return s
}

// stubSender sends each request to url and marks 200s served.
func stubSender(url string) sendFunc {
	client := &http.Client{}
	return func(ctx context.Context, _, _ int, _ arrival, start time.Time, rec *reqRecord) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			rec.Out = outFailed
			return
		}
		res, err := client.Do(req)
		if err != nil {
			rec.Out = outFailed
			return
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		rec.ObjDone = time.Since(start)
		rec.Out = outServed
		if res.StatusCode != http.StatusOK {
			rec.Out = outFailed
		}
	}
}

// A server that stalls holds every request arriving during the stall until
// it ends. An open-loop generator must charge that stall to every request
// due during it — including those it could not even send, because every
// in-flight slot was stuck — and must still issue every request.
func TestOpenLoopChargesStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		n       = 300
		stallAt = 200 * time.Millisecond
		stall   = 150 * time.Millisecond
	)
	stallEnd := stallAt + stall
	// The stub reads the level's clock, which the first send publishes.
	var levelStart atomic.Pointer[time.Time]
	var publish sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if start := levelStart.Load(); start != nil {
			if since := time.Since(*start); since >= stallAt && since < stallEnd {
				time.Sleep(stallEnd - since)
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	send := stubSender(srv.URL)
	res := runOpenLoop(context.Background(), evenSchedule(n, gap), 2, time.Second,
		func(ctx context.Context, w, i int, a arrival, start time.Time, rec *reqRecord) {
			publish.Do(func() { levelStart.Store(&start) })
			send(ctx, w, i, a, start, rec)
		})

	if res.Offered != n || res.Issued != n || res.Served != n {
		t.Fatalf("offered %d, issued %d, served %d; want all %d", res.Offered, res.Issued, res.Served, n)
	}
	charged, waitedForSlot := 0, 0
	for i, rec := range res.Recs {
		due := res.Sched[i].Due
		if due < stallAt || due >= stallEnd {
			continue
		}
		charged++
		if lat := rec.Done - due; lat < stallEnd-due {
			t.Errorf("request %d due %v: latency %v, want at least the %v left of the stall", i, due, lat, stallEnd-due)
		}
		if rec.Sent >= stallEnd {
			waitedForSlot++
		}
	}
	if charged == 0 || waitedForSlot == 0 {
		t.Fatalf("%d requests due during the stall, %d sent only after it; want both nonzero", charged, waitedForSlot)
	}
}

// A server slower than the offered rate makes the generator fall further
// behind every quarter: the level reports it.
func TestOpenLoopDetectsGrowingLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(4 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	// 1000 req/s offered against two slots of 4 ms each: 500 req/s served.
	res := runOpenLoop(context.Background(), evenSchedule(400, time.Millisecond), 2, 5*time.Second, stubSender(srv.URL))
	if grow, q := res.latenessGrowing(); !grow {
		t.Errorf("lateness by quarter %.2f ms not reported as growing", q)
	}

	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer fast.Close()
	res = runOpenLoop(context.Background(), evenSchedule(200, 2*time.Millisecond), 2, time.Second, stubSender(fast.URL))
	if grow, q := res.latenessGrowing(); grow || res.Issued != res.Offered {
		t.Errorf("fast server: growing %v (%.2f ms by quarter), issued %d of %d", grow, q, res.Issued, res.Offered)
	}
}

// Requests still unsent when the grace runs out are not issued, and the
// level says so instead of quietly offering less load.
func TestOpenLoopCountsUnissued(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	res := runOpenLoop(context.Background(), evenSchedule(100, time.Millisecond), 1, 50*time.Millisecond, stubSender(srv.URL))
	if res.Issued >= res.Offered || res.Served != res.Issued {
		t.Errorf("offered %d, issued %d, served %d: want a shortfall, every issued one served", res.Offered, res.Issued, res.Served)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	mk := func(seed int64) []arrival {
		return poissonSchedule(1000, time.Second, 4,
			func(g int) *rand.Rand { return rand.New(rand.NewSource(seed*100 + int64(g))) },
			func(_ int, rng *rand.Rand) int { return rng.Intn(50) })
	}
	a, b, c := mk(1), mk(1), mk(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) < 900 || len(a) > 1100 {
		t.Errorf("%d arrivals in one second at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "radar/internal/simevent.(*Engine).pop", "radar/internal/sim.(*Simulation).Run"}, "simevent"},
		{[]string{"radar/internal/live/check.(*Checker).Run"}, "live"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "radar/internal/protocol.(*Redirector).entry"}, "gc"},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, "net_http"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// The metric names and units the program reports are the ones
// BENCHMARK.json declares, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadNames[i])
		}
	}
}
