package main

import (
	"math/rand"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/server"
	"radar/internal/simevent"
	"radar/internal/topology"
	"radar/internal/workload"
)

// layerInputs are what the per-layer micro-benchmarks are fed: the
// workload's routing table, demand generator and seed, a redirector
// holding the workload's replica sets, and its server model.
type layerInputs struct {
	routes    *routing.Table
	gen       workload.Generator
	seed      int64
	red       *protocol.Redirector
	serverCfg server.Config
}

// Micro-benchmark sizing: each layer runs microBatches batches of
// microOps calls and reports the median batch's nanoseconds per call.
const (
	microOps     = 200_000
	microBatches = 5
)

// sink keeps the compiler from discarding benchmarked calls.
var sink int

// microStream is a workload-generated request stream: gateway and object
// of each request, drawn like the simulator draws them.
type microStream struct {
	g   []topology.NodeID
	obj []object.ID
}

func newMicroStream(in layerInputs) microStream {
	n := in.routes.NumNodes()
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = workload.Stream(in.seed, uint64(i))
	}
	s := microStream{g: make([]topology.NodeID, microOps), obj: make([]object.ID, microOps)}
	for i := range s.g {
		g := topology.NodeID(i % n)
		s.g[i] = g
		s.obj[i] = in.gen.Next(g, rngs[g])
	}
	return s
}

// nsPerOp times fn (which performs microOps calls) microBatches times and
// returns the median nanoseconds per call.
func nsPerOp(fn func()) float64 {
	per := make([]float64, microBatches)
	for b := range per {
		start := time.Now()
		fn()
		per[b] = float64(time.Since(start)) / microOps
	}
	return median(per)
}

// microLayers times each layer's public hot-path functions directly.
func microLayers(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	st := newMicroStream(in)
	n := in.routes.NumNodes()

	// simevent: one Schedule plus one Step per call, in the hold model a
	// running simulation follows — each fired event schedules its
	// successor — with a pending set as deep as four events per host.
	{
		rng := workload.Stream(in.seed, 1<<40)
		gaps := make([]time.Duration, 4096)
		for i := range gaps {
			gaps[i] = time.Duration(rng.ExpFloat64() * float64(10*time.Millisecond))
		}
		e := simevent.New()
		k := 0
		var fire simevent.Event
		fire = func(now time.Duration) {
			_ = e.Schedule(now+gaps[k&4095], fire)
			k++
		}
		for i := 0; i < 4*n; i++ {
			_ = e.Schedule(gaps[i&4095], fire)
		}
		m["simevent.ns_per_event"] = nsPerOp(func() {
			for i := 0; i < microOps; i++ {
				e.Step()
			}
		})
	}

	// protocol: the redirector's replica choice over the workload's
	// gateway/object stream.
	m["protocol.ns_per_choose"] = nsPerOp(func() {
		for i := 0; i < microOps; i++ {
			h, _ := in.red.ChooseReplica(st.g[i], st.obj[i])
			sink += int(h)
		}
	})

	// workload: one demand sample per call, gateways in turn.
	{
		rngs := make([]*rand.Rand, n)
		for i := range rngs {
			rngs[i] = workload.Stream(in.seed, uint64(i))
		}
		m["workload.ns_per_sample"] = nsPerOp(func() {
			for i := 0; i < microOps; i++ {
				g := topology.NodeID(i % n)
				sink += int(in.gen.Next(g, rngs[g]))
			}
		})
	}

	// server: admit a request into the FCFS queue and record its service,
	// arrivals paced at the server's capacity.
	{
		srv, err := server.New(0, in.serverCfg)
		if err == nil {
			spacing := time.Duration(float64(time.Second) / in.serverCfg.CapacityRPS)
			now := time.Duration(0)
			m["server.ns_per_serve"] = nsPerOp(func() {
				for i := 0; i < microOps; i++ {
					now += spacing
					sink += int(srv.Enqueue(now, 0))
					srv.OnServed(st.obj[i])
				}
			})
		}
	}

	// routing: the response path from a host to the gateway and its hop
	// count, for the stream's gateways and seeded random hosts.
	{
		rng := workload.Stream(in.seed, 1<<41)
		src := make([]topology.NodeID, microOps)
		for i := range src {
			src[i] = topology.NodeID(rng.Intn(n))
		}
		m["routing.ns_per_path"] = nsPerOp(func() {
			for i := 0; i < microOps; i++ {
				sink += len(in.routes.PreferencePath(src[i], st.g[i])) + in.routes.Distance(src[i], st.g[i])
			}
		})
	}
	return m
}
