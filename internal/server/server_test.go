package server

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"radar/internal/object"
)

func newServer(t *testing.T, capacity float64) *Server {
	t.Helper()
	s, err := New(3, Config{CapacityRPS: capacity, MeasurementInterval: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFCFSQueueing(t *testing.T) {
	s := newServer(t, 200) // 5ms service time
	d1 := s.Enqueue(0, 0)
	if d1 != 5*time.Millisecond {
		t.Fatalf("first completion = %v, want 5ms", d1)
	}
	d2 := s.Enqueue(time.Millisecond, 0) // arrives while busy
	if d2 != 10*time.Millisecond {
		t.Fatalf("second completion = %v, want 10ms (queued)", d2)
	}
	d3 := s.Enqueue(time.Second, 0) // arrives idle
	if d3 != time.Second+5*time.Millisecond {
		t.Fatalf("third completion = %v, want 1.005s", d3)
	}
}

func TestQueueDelayAndLength(t *testing.T) {
	s := newServer(t, 100) // 10ms
	s.Enqueue(0, 0)
	s.Enqueue(0, 0)
	if got := s.QueueDelay(0); got != 20*time.Millisecond {
		t.Fatalf("QueueDelay = %v, want 20ms", got)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	s.OnServed(1)
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("QueueLen after completion = %d, want 1", got)
	}
	if got := s.MaxQueueLen(); got != 2 {
		t.Fatalf("MaxQueueLen = %d, want 2", got)
	}
	if got := s.QueueDelay(time.Hour); got != 0 {
		t.Fatalf("idle QueueDelay = %v, want 0", got)
	}
}

func TestLoadMeasurement(t *testing.T) {
	s := newServer(t, 200)
	for i := 0; i < 100; i++ {
		s.OnServed(object.ID(i % 2))
	}
	if got := s.Load(); got != 0 {
		t.Fatalf("load before first interval close = %v, want 0", got)
	}
	start := s.CloseInterval(20 * time.Second)
	if start != 0 {
		t.Fatalf("closed interval start = %v, want 0", start)
	}
	if got := s.Load(); got != 5 { // 100 served / 20s
		t.Fatalf("measured load = %v, want 5 req/s", got)
	}
	// Per-object attribution: both objects served 50 times.
	if got := s.ObjectLoad(0); got != 2.5 {
		t.Fatalf("ObjectLoad(0) = %v, want 2.5", got)
	}
	if got := s.ObjectLoad(1); got != 2.5 {
		t.Fatalf("ObjectLoad(1) = %v, want 2.5", got)
	}
	if got := s.ObjectLoad(99); got != 0 {
		t.Fatalf("ObjectLoad(unknown) = %v, want 0", got)
	}
	// Next interval with no service: load drops to 0, old object loads gone.
	if start := s.CloseInterval(40 * time.Second); start != 20*time.Second {
		t.Fatalf("second closed start = %v, want 20s", start)
	}
	if got := s.Load(); got != 0 {
		t.Fatalf("empty interval load = %v, want 0", got)
	}
	if got := s.ObjectLoad(0); got != 0 {
		t.Fatalf("stale ObjectLoad = %v, want 0", got)
	}
}

func TestLoadReflectsCapacityUnderOverload(t *testing.T) {
	// Offered 400 req/s to a 200 req/s server: measured load must cap at
	// the service rate, not the offered rate (load is *serviced* requests).
	s := newServer(t, 200)
	now := time.Duration(0)
	served := 0
	for i := 0; i < 8000; i++ { // 400/s for 20s
		done := s.Enqueue(now, 0)
		if done <= 20*time.Second {
			s.OnServed(0)
			served++
		}
		now += 2500 * time.Microsecond
	}
	s.CloseInterval(20 * time.Second)
	if got := s.Load(); got < 195 || got > 200 {
		t.Fatalf("overloaded measured load = %v, want ~200 (capacity)", got)
	}
}

func TestCloseIntervalZeroLength(t *testing.T) {
	s := newServer(t, 200)
	s.OnServed(1)
	s.CloseInterval(0) // zero-length: keep previous measurement
	if got := s.Load(); got != 0 {
		t.Fatalf("load = %v, want unchanged 0", got)
	}
}

func TestTotalServed(t *testing.T) {
	s := newServer(t, 200)
	for i := 0; i < 7; i++ {
		s.OnServed(0)
	}
	s.CloseInterval(20 * time.Second)
	for i := 0; i < 3; i++ {
		s.OnServed(0)
	}
	if got := s.TotalServed(); got != 10 {
		t.Fatalf("TotalServed = %d, want 10 across intervals", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, Config{CapacityRPS: 0, MeasurementInterval: time.Second}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(0, Config{CapacityRPS: 1, MeasurementInterval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CapacityRPS != 200 {
		t.Errorf("capacity = %v, want 200 req/s", cfg.CapacityRPS)
	}
	if cfg.MeasurementInterval != 20*time.Second {
		t.Errorf("measurement interval = %v, want 20s", cfg.MeasurementInterval)
	}
	s, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ServiceTime() != 5*time.Millisecond {
		t.Errorf("service time = %v, want 5ms", s.ServiceTime())
	}
}

// TestQueueInvariantsProperty drives random arrival sequences and checks
// FCFS invariants: completion times are strictly increasing by service
// time, and the queue never goes negative.
func TestQueueInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newServer(t, 100) // 10ms service
		now := time.Duration(0)
		var prevDone time.Duration
		var pending []time.Duration
		for i := 0; i < 300; i++ {
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			// Complete any services that finished by now.
			for len(pending) > 0 && pending[0] <= now {
				s.OnServed(object.ID(rng.Intn(5)))
				pending = pending[1:]
			}
			done := s.Enqueue(now, 0)
			if done < now+s.ServiceTime() {
				t.Fatalf("seed %d: completion %v before arrival+service", seed, done)
			}
			if done < prevDone+s.ServiceTime() {
				t.Fatalf("seed %d: FCFS violated: %v after %v", seed, done, prevDone)
			}
			prevDone = done
			pending = append(pending, done)
			if s.QueueLen() < 0 {
				t.Fatalf("seed %d: negative queue", seed)
			}
		}
	}
}

// TestLoadAttributionSumsToTotal: per-object loads sum to the total
// measured load.
func TestLoadAttributionSumsToTotal(t *testing.T) {
	s := newServer(t, 200)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		s.OnServed(object.ID(rng.Intn(17)))
	}
	s.CloseInterval(20 * time.Second)
	sum := 0.0
	for id := 0; id < 17; id++ {
		sum += s.ObjectLoad(object.ID(id))
	}
	if diff := sum - s.Load(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("object loads sum %v != total %v", sum, s.Load())
	}
}

// TestEnqueueStorageCost: a storage cost extends the request's occupancy
// of the server, backing up the FCFS queue like slow service.
func TestEnqueueStorageCost(t *testing.T) {
	s := newServer(t, 200) // 5ms service time
	d1 := s.Enqueue(0, 5*time.Millisecond)
	if d1 != 10*time.Millisecond {
		t.Fatalf("first completion = %v, want 10ms (5ms service + 5ms storage)", d1)
	}
	d2 := s.Enqueue(0, 0)
	if d2 != 15*time.Millisecond {
		t.Fatalf("second completion = %v, want 15ms (queued behind storage)", d2)
	}
}

// denseRef is the reference model of a server's load measurement: dense
// per-object counters indexed by ID over a small universe, with each
// closed interval's per-object load computed at close.
type denseRef struct {
	intervalStart time.Duration
	served        int64
	totalServed   int64
	perObj        []int32
	measuredLoad  float64
	objLoad       []float64
}

func newDenseRef(objects int) *denseRef {
	return &denseRef{perObj: make([]int32, objects), objLoad: make([]float64, objects)}
}

func (r *denseRef) onServed(id object.ID) {
	r.served++
	r.totalServed++
	r.perObj[id]++
}

func (r *denseRef) closeInterval(now time.Duration) time.Duration {
	start := r.intervalStart
	secs := (now - r.intervalStart).Seconds()
	if secs <= 0 {
		return start
	}
	r.measuredLoad = float64(r.served) / secs
	for id, n := range r.perObj {
		r.objLoad[id] = float64(n) / secs
		r.perObj[id] = 0
	}
	r.served = 0
	r.intervalStart = now
	return start
}

// TestServerMatchesDenseReference drives random OnServed/Enqueue/
// CloseInterval sequences — including zero-length intervals, reads before
// the first close, and objects served only in older intervals — and
// requires bit-identical loads against the dense reference model.
func TestServerMatchesDenseReference(t *testing.T) {
	const objects = 12
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newServer(t, 200)
		ref := newDenseRef(objects)
		now := time.Duration(0)
		check := func(step int) {
			t.Helper()
			if s.Load() != ref.measuredLoad {
				t.Fatalf("seed %d step %d: Load = %v, reference %v", seed, step, s.Load(), ref.measuredLoad)
			}
			if s.TotalServed() != ref.totalServed {
				t.Fatalf("seed %d step %d: TotalServed = %d, reference %d", seed, step, s.TotalServed(), ref.totalServed)
			}
			for id := 0; id < objects; id++ {
				got, want := s.ObjectLoad(object.ID(id)), ref.objLoad[id]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: ObjectLoad(%d) = %v, reference %v", seed, step, id, got, want)
				}
			}
		}
		check(-1) // before the first close
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 14:
				// Skewed object choice: a few objects go quiet for whole
				// intervals and must read 0 after the next close.
				id := object.ID(rng.Intn(1 + rng.Intn(objects)))
				s.OnServed(id)
				ref.onServed(id)
			case op < 17:
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				s.Enqueue(now, time.Duration(rng.Intn(2))*time.Millisecond)
			case op < 18:
				// Zero-length interval: nothing may change.
				if got, want := s.CloseInterval(now), ref.closeInterval(now); got != want {
					t.Fatalf("seed %d step %d: zero-length close start = %v, reference %v", seed, step, got, want)
				}
			default:
				now += time.Duration(1+rng.Intn(40_000)) * time.Millisecond / 7
				if got, want := s.CloseInterval(now), ref.closeInterval(now); got != want {
					t.Fatalf("seed %d step %d: closed start = %v, reference %v", seed, step, got, want)
				}
			}
			check(step)
		}
	}
}

// TestLoadStateIndependentOfIDSpace: per-object state is keyed by the
// objects served, so IDs at the far end of the ID space cost no more than
// small ones, and recording a request for an already-seen object does not
// allocate once its interval maps are warm.
func TestLoadStateIndependentOfIDSpace(t *testing.T) {
	s := newServer(t, 200)
	big, huge := object.ID(1<<40), object.ID(math.MaxInt)
	for i := 0; i < 3; i++ {
		s.OnServed(big)
	}
	s.OnServed(huge)
	s.CloseInterval(20 * time.Second)
	if got := s.ObjectLoad(big); got != 3.0/20 {
		t.Fatalf("ObjectLoad(1<<40) = %v, want %v", got, 3.0/20)
	}
	if got := s.ObjectLoad(huge); got != 1.0/20 {
		t.Fatalf("ObjectLoad(MaxInt) = %v, want %v", got, 1.0/20)
	}
	if got := s.ObjectLoad(huge - 1); got != 0 {
		t.Fatalf("ObjectLoad(unserved) = %v, want 0", got)
	}

	// Warm both interval maps with the IDs, then count allocations.
	s.OnServed(big)
	s.OnServed(huge)
	s.CloseInterval(40 * time.Second)
	s.OnServed(big)
	s.OnServed(huge)
	if allocs := testing.AllocsPerRun(1000, func() { s.OnServed(big) }); allocs != 0 {
		t.Fatalf("OnServed of a seen object allocates %v times per call, want 0", allocs)
	}
}
