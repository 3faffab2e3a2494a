package live_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

// fakeFleet stands up n stub nodes that answer every control call with an
// empty reply, except that node 0's first placement pass reports ev. The
// redirectors know no replicas, so every request fails at the redirector.
func fakeFleet(t *testing.T, n int, ev live.Event) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		var placed atomic.Bool
		placed.Store(i != 0)
		mux := http.NewServeMux()
		reply := func(path string, body func() any) {
			mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write(live.Encode(body()))
			})
		}
		reply(live.PathMeasure, func() any { return &live.MeasureReply{} })
		reply(live.PathCensus, func() any { return &live.CensusReply{} })
		reply(live.PathEvents, func() any { return &live.EventsReply{} })
		reply(live.PathStats, func() any { return &live.StatsReply{} })
		reply(live.PathMark, func() any { return struct{}{} })
		reply(live.PathPlace, func() any {
			rep := &live.PlaceReply{}
			if placed.CompareAndSwap(false, true) {
				rep.Events = []live.Event{ev}
			}
			return rep
		})
		mux.HandleFunc(live.PathObj, func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no replica", http.StatusNotFound)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestDriverRejectsMalformedEvents feeds the driver node events it cannot
// account for: each must end the run with a *WireError on the offending
// field, instead of panicking (a node beyond the fleet indexes past the
// routing table) or being skipped without a trace (an unknown move kind).
func TestDriverRejectsMalformedEvents(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ev    live.Event
		field string
	}{
		{"to beyond fleet", live.Event{Kind: live.EventMigrate, From: 0, To: 3, Move: "geo"}, "to"},
		{"from beyond fleet", live.Event{Kind: live.EventDrop, From: 5}, "from"},
		{"copy beyond fleet", live.Event{Kind: live.EventCopy, From: 1, To: 9}, "to"},
		{"object beyond universe", live.Event{Kind: live.EventReplicate, Object: 24, From: 0, To: 1, Move: "load"}, "object"},
		{"unknown move", live.Event{Kind: live.EventMigrate, From: 0, To: 1, Move: "bogus"}, "move"},
		{"unknown method", live.Event{Kind: live.EventRefuse, From: 0, To: 1, Method: "STEAL"}, "method"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(t, topology.Line(3), 24, 1, 3*time.Minute)
			d, err := live.NewDriver(cfg, fakeFleet(t, 3, tc.ev))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run(context.Background())
			var we *live.WireError
			if !errors.As(err, &we) || we.Field != tc.field {
				t.Fatalf("Run = %v, %v; want *WireError on field %s", res, err, tc.field)
			}
			if len(d.Decisions()) != 0 {
				t.Fatalf("malformed event recorded as a decision: %+v", d.Decisions())
			}
		})
	}
}
