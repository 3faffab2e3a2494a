package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop level: when it is due
// (offset from the level start), which gateway it enters at and which
// object it asks for.
type arrival struct {
	Due time.Duration
	G   int32
	Obj int32
}

// outcome is how one request ended.
type outcome int8

const (
	outNotIssued outcome = iota // still unsent when the level's grace ran out
	outServed
	outFailed
	outTimedOut
)

// reqRecord is one request's timeline, as offsets from the level start.
// Latency is measured from Due, not from Sent: a request that waited for
// a free in-flight slot is charged that wait.
type reqRecord struct {
	Sent    time.Duration
	ObjDone time.Duration // end of the redirect (302) hop
	Done    time.Duration
	Out     outcome
}

// sendFunc issues one request and fills rec.ObjDone and rec.Out. worker
// identifies the calling slot (0..inflight-1) so senders can keep
// per-slot buffers; start is the level's wall-clock zero.
type sendFunc func(ctx context.Context, worker, i int, a arrival, start time.Time, rec *reqRecord)

// levelResult is one open-loop level's accounting.
type levelResult struct {
	Offered, Issued, Served, Failed, TimedOut int64
	Sched                                     []arrival
	Recs                                      []reqRecord
	Wall                                      time.Duration // level start to last answer
}

// poissonSchedule draws an open-loop arrival schedule: every gateway
// sends a Poisson stream at rate/gateways requests per second for length,
// its objects drawn by next; streams are merged by due time. The same
// seed gives the same schedule.
func poissonSchedule(rate float64, length time.Duration, gateways int, rngFor func(g int) *rand.Rand, next func(g int, rng *rand.Rand) int) []arrival {
	per := rate / float64(gateways)
	var out []arrival
	for g := 0; g < gateways; g++ {
		rng := rngFor(g)
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() / per * float64(time.Second))
			if t >= length {
				break
			}
			out = append(out, arrival{Due: t, G: int32(g), Obj: int32(next(g, rng))})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// runOpenLoop plays sched open-loop: send times are fixed by the
// schedule, never by earlier answers. inflight slots take the requests in
// due order; a request due while every slot is busy waits for the next
// free one, and the wait counts toward its latency. Requests still unsent
// grace after the last one was due are not issued at all — the caller
// fails the run on any such shortfall instead of quietly offering less
// load than scheduled.
func runOpenLoop(ctx context.Context, sched []arrival, inflight int, grace time.Duration, send sendFunc) levelResult {
	res := levelResult{Offered: int64(len(sched)), Sched: sched, Recs: make([]reqRecord, len(sched))}
	if len(sched) == 0 {
		return res
	}
	cutoff := sched[len(sched)-1].Due + grace
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				rec := &res.Recs[i]
				if wait := sched[i].Due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				now := time.Since(start)
				if now > cutoff || ctx.Err() != nil {
					rec.Out = outNotIssued
					continue
				}
				rec.Sent = now
				send(ctx, w, i, sched[i], start, rec)
				rec.Done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for i := range res.Recs {
		switch res.Recs[i].Out {
		case outServed:
			res.Served++
		case outFailed:
			res.Failed++
		case outTimedOut:
			res.TimedOut++
		}
		if res.Recs[i].Out != outNotIssued {
			res.Issued++
		}
	}
	return res
}

// latencies returns every request's due-to-answer latency in ms; a
// request that did not end served counts as +Inf, so it misses any limit.
func (r *levelResult) latencies() []float64 {
	out := make([]float64, len(r.Recs))
	for i, rec := range r.Recs {
		if rec.Out != outServed {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = msOf(rec.Done - r.Sched[i].Due)
	}
	return out
}

// lateness returns every issued request's wait from due time to send, in
// ms.
func (r *levelResult) lateness() []float64 {
	out := make([]float64, 0, len(r.Recs))
	for i, rec := range r.Recs {
		if rec.Out != outNotIssued {
			out = append(out, msOf(rec.Sent-r.Sched[i].Due))
		}
	}
	return out
}

// hops returns the client-timed redirect and serve hop durations of the
// served requests, in ms.
func (r *levelResult) hops() (obj, serve []float64) {
	for _, rec := range r.Recs {
		if rec.Out == outServed {
			obj = append(obj, msOf(rec.ObjDone-rec.Sent))
			serve = append(serve, msOf(rec.Done-rec.ObjDone))
		}
	}
	return obj, serve
}

// Backlog growth rule: lateness keeps growing through a level when the
// median lateness of every quarter of the level exceeds the previous
// quarter's and the last exceeds the first by more than growthSlack. An
// offered rate above what the system serves grows lateness steadily, by
// hundreds of milliseconds over a level; a short host stall lifts one
// quarter by a few milliseconds and does not trip it.
const growthSlack = 20 * time.Millisecond

// latenessGrowing reports whether generator lateness kept growing through
// the level — the sign of a backlog that the offered rate outruns — and
// each quarter's median lateness in ms.
func (r *levelResult) latenessGrowing() (bool, [4]float64) {
	var q [4]float64
	n := len(r.Recs)
	if n < 8 {
		return false, q
	}
	for k := range q {
		var xs []float64
		for i := k * n / 4; i < (k+1)*n/4; i++ {
			if r.Recs[i].Out != outNotIssued {
				xs = append(xs, msOf(r.Recs[i].Sent-r.Sched[i].Due))
			}
		}
		q[k] = math.Inf(1) // a quarter never issued is as late as it gets
		if len(xs) > 0 {
			q[k] = median(xs)
		}
	}
	growing := q[3]-q[0] > msOf(growthSlack)
	for k := 1; k < len(q); k++ {
		growing = growing && q[k] > q[k-1]
	}
	return growing, q
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
