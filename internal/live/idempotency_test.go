package live_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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

// liveConfig builds a small fleet configuration over the given synthetic
// topology, mirroring the simulator tests' scale-down pattern.
func liveConfig(t *testing.T, topo *topology.Topology, objects int, rps float64, dur time.Duration) live.Config {
	t.Helper()
	u := object.Universe{Count: objects, SizeBytes: 4 << 10}
	gen, err := workload.NewHotPages(u, 0.1, 0.9, 3)
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	cfg := sim.DefaultConfig(gen, 7)
	cfg.Topo = topo
	cfg.Universe = u
	cfg.NodeRequestRPS = rps
	cfg.Duration = dur
	cfg.PlacementInterval = 30 * time.Second
	cfg.MetricsBucket = 30 * time.Second
	return live.Config{Sim: cfg}
}

// postCreate POSTs one CreateObj message and returns the response body.
func postCreate(t *testing.T, url string, msg *live.CreateObjMsg) []byte {
	t.Helper()
	res, err := http.Post(url+live.PathCreateObj, "application/json", bytes.NewReader(live.Encode(msg)))
	if err != nil {
		t.Fatalf("POST createobj: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading createobj reply: %v", err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("createobj status %d: %s", res.StatusCode, body)
	}
	return body
}

func nodeStats(t *testing.T, url string) live.StatsReply {
	t.Helper()
	res, err := http.Get(url + live.PathStats)
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading stats: %v", err)
	}
	var rep live.StatsReply
	if err := live.Decode(body, &rep); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return rep
}

// TestCreateObjIdempotent: retries and concurrent duplicates of one
// CreateObj message execute the handshake once and replay the identical
// verdict — the buildbarn-style request deduplication on the live wire.
func TestCreateObjIdempotent(t *testing.T) {
	f := livetest.Start(t, liveConfig(t, topology.Line(3), 9, 1, time.Minute))
	target := f.URL(1)
	msg := &live.CreateObjMsg{
		MsgID: 7001, From: 0, To: 1, Method: protocol.Replicate.String(),
		Object: 0, UnitLoad: 0.5, SrcAff: 2, Now: 0,
	}

	first := postCreate(t, target, msg)
	var rep live.CreateObjReply
	if err := live.Decode(first, &rep); err != nil {
		t.Fatalf("decoding verdict: %v", err)
	}
	if rep.MsgID != msg.MsgID {
		t.Fatalf("verdict msg id %d, want %d", rep.MsgID, msg.MsgID)
	}
	if !rep.Accepted || !rep.Copied {
		t.Fatalf("idle host refused the create: %+v", rep)
	}

	// Sequential retries and concurrent duplicates all replay the verdict.
	var wg sync.WaitGroup
	replies := make([][]byte, 6)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postCreate(t, target, msg)
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if !bytes.Equal(r, first) {
			t.Fatalf("duplicate %d got %s, want %s", i, r, first)
		}
	}

	stats := nodeStats(t, target)
	if stats.CreateExecutions != 1 {
		t.Fatalf("CreateExecutions = %d after 7 copies of one message, want 1", stats.CreateExecutions)
	}
}

// TestCreateObjConcurrencyLimit: distinct CreateObj messages all execute,
// but never more than the configured per-node limit at a time.
func TestCreateObjConcurrencyLimit(t *testing.T) {
	const limit, msgs = 2, 12
	cfg := liveConfig(t, topology.Line(3), 24, 1, time.Minute)
	cfg.MaxInflightCreates = limit
	f := livetest.Start(t, cfg)
	target := f.URL(2)

	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := &live.CreateObjMsg{
				MsgID: uint64(9000 + i), From: 0, To: 2, Method: protocol.Replicate.String(),
				Object: int64(i), UnitLoad: 0.01, SrcAff: 1, Now: 0,
			}
			body := postCreate(t, target, msg)
			var rep live.CreateObjReply
			if err := live.Decode(body, &rep); err != nil {
				t.Errorf("decoding verdict %d: %v", i, err)
				return
			}
			if rep.MsgID != msg.MsgID {
				t.Errorf("verdict %d answered msg id %d", i, rep.MsgID)
			}
		}(i)
	}
	wg.Wait()

	stats := nodeStats(t, target)
	if stats.CreateExecutions != msgs {
		t.Fatalf("CreateExecutions = %d, want %d", stats.CreateExecutions, msgs)
	}
	if stats.CreatePeakConcurrency > limit {
		t.Fatalf("CreatePeakConcurrency = %d, limit %d", stats.CreatePeakConcurrency, limit)
	}
}

// TestMalformedRPCAnswers400: a malformed control-plane body is rejected
// with the typed wire error, not a hang or a panic.
func TestMalformedRPCAnswers400(t *testing.T) {
	f := livetest.Start(t, liveConfig(t, topology.Line(2), 4, 1, time.Minute))
	for _, body := range []string{`{"msg_id":`, `{"msg_id":0}`, `{"msg_id":1,"method":"STEAL","src_aff":1}`} {
		res, err := http.Post(f.URL(0)+live.PathCreateObj, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		reason, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, res.StatusCode)
		}
		if len(reason) == 0 {
			t.Fatalf("body %q: empty rejection reason", body)
		}
	}
	if got := nodeStats(t, f.URL(0)).CreateExecutions; got != 0 {
		t.Fatalf("malformed bodies executed %d creates", got)
	}
}

// TestOutOfRangeIDsAnswer400: every endpoint that takes an object ID
// rejects IDs beyond the object universe with a 400 naming the universe,
// node IDs beyond the fleet are rejected likewise, and the node keeps
// answering afterwards (a handler that panicked under the node lock would
// leave it wedged).
func TestOutOfRangeIDsAnswer400(t *testing.T) {
	cfg := liveConfig(t, topology.Line(2), 4, 1, time.Minute)
	f := livetest.Start(t, cfg)
	node := live.RedirectorLocations(f.Routes(), cfg.Sim.NumRedirectors)[0]
	url := f.URL(node)
	client := &http.Client{Timeout: time.Second}
	post := func(path string, msg any) *http.Request {
		req, _ := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(live.Encode(msg)))
		return req
	}
	get := func(format string, args ...any) *http.Request {
		req, _ := http.NewRequest(http.MethodGet, url+fmt.Sprintf(format, args...), nil)
		return req
	}
	expect400 := func(req *http.Request, want string) {
		t.Helper()
		res, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Method, req.URL, err)
		}
		reason, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest || !strings.Contains(string(reason), want) {
			t.Fatalf("%s %s: status %d %q, want 400 containing %q", req.Method, req.URL, res.StatusCode, reason, want)
		}
		res, err = client.Get(url + live.PathStats)
		if err != nil {
			t.Fatalf("stats after %s %s: %v (node wedged)", req.Method, req.URL, err)
		}
		res.Body.Close()
	}
	for _, obj := range []int64{int64(cfg.Sim.Universe.Count), 1 << 62} {
		for _, req := range []*http.Request{
			post(live.PathComplete, &live.CompleteMsg{Object: obj, Gateway: 0, Now: 1}),
			post(live.PathNotify, &live.NotifyMsg{MsgID: 1, Object: obj, Host: 0, Aff: 1}),
			post(live.PathRequestDrop, &live.DropMsg{MsgID: 1, Object: obj, Host: 0}),
			post(live.PathCreateObj, &live.CreateObjMsg{
				MsgID: 1, From: 0, To: int(node), Method: protocol.Replicate.String(),
				Object: obj, UnitLoad: 1, SrcAff: 1, Now: 1,
			}),
			get("%s%d?g=0&now=1", live.PathObj, obj),
			get("%s%d?g=0&now=1", live.PathServe, obj),
			get("%s%d", live.PathFetch, obj),
			get("%s?obj=%d&now=1", live.PathLoad, obj),
			get("%s?obj=%d", live.PathReplicas, obj),
		} {
			expect400(req, "outside the universe")
		}
	}
	expect400(post(live.PathComplete, &live.CompleteMsg{Object: 0, Gateway: 2, Now: 1}), "gateway 2")
	expect400(post(live.PathNotify, &live.NotifyMsg{MsgID: 2, Object: 0, Host: 2, Aff: 1}), "host 2")
}
