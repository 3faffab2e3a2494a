// Package server models a hosting server (paper §2, §2.1, §6.1): a
// first-come-first-served queue with fixed service rate, and load
// measurement as the rate of serviced requests averaged over a measurement
// interval, attributed per object proportionally to per-object service.
package server

import (
	"fmt"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// Config parameterizes a server.
type Config struct {
	// CapacityRPS is the service rate in requests/sec (Table 1: 200).
	CapacityRPS float64
	// MeasurementInterval is the load averaging window (paper: 20 s).
	MeasurementInterval time.Duration
}

// DefaultConfig returns Table 1 server parameters.
func DefaultConfig() Config {
	return Config{CapacityRPS: 200, MeasurementInterval: 20 * time.Second}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CapacityRPS <= 0 {
		return fmt.Errorf("server: capacity %v must be positive", c.CapacityRPS)
	}
	if c.MeasurementInterval <= 0 {
		return fmt.Errorf("server: measurement interval %v must be positive", c.MeasurementInterval)
	}
	return nil
}

// Server is one hosting server's queueing and load-measurement state.
// It implements protocol.LoadSource.
type Server struct {
	// ID is the node the server runs on.
	ID topology.NodeID

	serviceTime time.Duration
	interval    time.Duration

	busyUntil time.Duration

	// Current (open) interval accumulation. Per-object counts live in
	// maps keyed by object ID, so a host's memory grows with the distinct
	// objects it serves in one interval (at most capacity × interval), not
	// with the object-ID space. int32 is ample for one interval.
	intervalStart time.Duration
	served        int64
	servedPerObj  map[object.ID]int32

	// Last completed interval's measurements: per-object counts and the
	// interval's length, from which ObjectLoad derives the load.
	measuredLoad float64
	lastPerObj   map[object.ID]int32
	lastSecs     float64

	// Lifetime counters.
	totalServed int64
	maxQueueLen int
	queueLen    int
}

// New builds a server on node id.
func New(id topology.NodeID, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		ID:           id,
		serviceTime:  time.Duration(float64(time.Second) / cfg.CapacityRPS),
		interval:     cfg.MeasurementInterval,
		servedPerObj: make(map[object.ID]int32),
		lastPerObj:   make(map[object.ID]int32),
	}, nil
}

// Enqueue admits a request arriving at now into the FCFS queue and returns
// its service completion time. storageCost is the extra service latency
// the replica-storage backend charges for this read (zero for resident
// memory); it extends the request's occupancy of the server, so slow
// tiers back up the FCFS queue exactly like slow service. The caller
// schedules the completion event and calls OnServed there.
func (s *Server) Enqueue(now time.Duration, storageCost time.Duration) time.Duration {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	done := start + s.serviceTime + storageCost
	s.busyUntil = done
	s.queueLen++
	if s.queueLen > s.maxQueueLen {
		s.maxQueueLen = s.queueLen
	}
	return done
}

// OnServed records the completion of a request for id.
func (s *Server) OnServed(id object.ID) {
	s.served++
	s.totalServed++
	s.servedPerObj[id]++
	if s.queueLen > 0 {
		s.queueLen--
	}
}

// CloseInterval completes the measurement interval ending at now: the
// measured load becomes served/intervalSeconds, per-object loads are
// attributed proportionally to per-object service, and a new interval
// opens. It returns the start time of the interval just closed, which the
// protocol layer feeds to its load estimator.
func (s *Server) CloseInterval(now time.Duration) (closedStart time.Duration) {
	closedStart = s.intervalStart
	secs := (now - s.intervalStart).Seconds()
	if secs <= 0 {
		return closedStart
	}
	s.measuredLoad = float64(s.served) / secs
	// Swap and clear rather than reallocate: both maps keep their grown
	// storage, so OnServed stops allocating once they are warm.
	s.lastPerObj, s.servedPerObj = s.servedPerObj, s.lastPerObj
	clear(s.servedPerObj)
	s.lastSecs = secs
	s.served = 0
	s.intervalStart = now
	return closedStart
}

// Load returns the measured total load (requests/sec) of the last
// completed interval. It implements protocol.LoadSource.
func (s *Server) Load() float64 { return s.measuredLoad }

// ObjectLoad returns the measured load attributed to id over the last
// completed interval. It implements protocol.LoadSource.
func (s *Server) ObjectLoad(id object.ID) float64 {
	n := s.lastPerObj[id]
	if n == 0 {
		return 0 // also before the first close, where lastSecs is 0
	}
	return float64(n) / s.lastSecs
}

// QueueDelay returns how long a request arriving at now would wait before
// service begins.
func (s *Server) QueueDelay(now time.Duration) time.Duration {
	if s.busyUntil <= now {
		return 0
	}
	return s.busyUntil - now
}

// QueueLen returns the number of requests admitted but not yet completed.
func (s *Server) QueueLen() int { return s.queueLen }

// MaxQueueLen returns the high-water mark of the queue length.
func (s *Server) MaxQueueLen() int { return s.maxQueueLen }

// TotalServed returns the lifetime number of serviced requests.
func (s *Server) TotalServed() int64 { return s.totalServed }

// ServiceTime returns the fixed per-request service time.
func (s *Server) ServiceTime() time.Duration { return s.serviceTime }
