package main

import (
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/live"
)

// span is one timed interval recorded by the benchmark around a call into
// the program. Spans of one live request share Req; a hop's Parent is the
// request span's ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; later ones are counted, not
// kept, so a long traced run cannot grow without bound.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span (or request) ID.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record keeps one span; a nil tracer records nothing.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// timed runs fn inside a named span and returns its duration.
func (t *tracer) timed(name string, parent uint64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.record(span{ID: t.newID(), Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	}
	return end.Sub(start)
}

// write stores the kept spans as one gzipped JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	err = json.NewEncoder(zw).Encode(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// headerReq carries the benchmark's request ID on both hops of a live
// request, so server-side handler spans join the client's.
const headerReq = "X-Bench-Request"

// endpoints are the node paths timed server-side, by name, matched by
// prefix; requests to other paths (health, census, stats) are not timed.
var endpoints = []struct{ name, path string }{
	{"obj", live.PathObj},
	{"serve", live.PathServe},
	{"complete", live.PathComplete},
	{"place", live.PathPlace},
	{"measure", live.PathMeasure},
	{"createobj", live.PathCreateObj},
	{"load", live.PathLoad},
	{"notify", live.PathNotify},
	{"requestdrop", live.PathRequestDrop},
	{"replicas", live.PathReplicas},
	{"fetch", live.PathFetch},
}

// endpointStats counts and times every request a node handler serves,
// per endpoint. It wraps the node's public Handler, so the program itself
// is untouched.
type endpointStats struct {
	count []atomic.Int64 // indexed like endpoints
	busy  []atomic.Int64 // nanoseconds
	tr    *tracer
}

func newEndpointStats(tr *tracer) *endpointStats {
	return &endpointStats{
		count: make([]atomic.Int64, len(endpoints)),
		busy:  make([]atomic.Int64, len(endpoints)),
		tr:    tr,
	}
}

func endpointIndex(path string) int {
	for i, ep := range endpoints {
		if strings.HasPrefix(path, ep.path) {
			return i
		}
	}
	return -1
}

// wrap returns h with per-endpoint counting, timing and handler spans.
func (s *endpointStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := endpointIndex(r.URL.Path)
		if i < 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s.count[i].Add(1)
		s.busy[i].Add(int64(end.Sub(start)))
		if s.tr != nil {
			req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
			s.tr.record(span{ID: s.tr.newID(), Req: req, Name: "handler." + endpoints[i].name,
				Start: s.tr.at(start), End: s.tr.at(end)})
		}
	})
}

// metrics adds the endpoint totals to m as per-layer metrics.
func (s *endpointStats) metrics(m map[string]float64) {
	for i, ep := range endpoints {
		m["live."+ep.name+".count"] += float64(s.count[i].Load())
		m["live."+ep.name+".busy_s"] += float64(s.busy[i].Load()) / 1e9
	}
}
