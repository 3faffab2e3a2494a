package main

import "math"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on its last line; they
// apply to every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "req/s"},
	{"cpu_us_per_req", "us"},
	{"peak_heap_mb", "MB"},
}

// profiled modules: each gets a <module>.cpu_s per-layer metric; CPU in
// any other module of the program counts as other.cpu_s.
var profiledModules = []string{
	"simevent", "protocol", "workload", "server", "routing", "simnet", "metrics",
	"sim", "live", bucketGC, bucketNetHTTP,
}

// perLayer are the metrics a traced run reports on its last line, in
// BENCHMARK.json order. A layer that does no work on a workload reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range profiledModules {
		defs = append(defs, metricDef{m + ".cpu_s", "s"})
	}
	defs = append(defs,
		metricDef{"other.cpu_s", "s"},
		metricDef{"trace.cpu_s", "s"},
		metricDef{"trace.profiled_frac", "ratio"},
		metricDef{"trace.overhead.req_per_s", "req/s"},
		metricDef{"trace.overhead.cpu_us_per_req", "us"},
		metricDef{"simevent.ns_per_event", "ns"},
		metricDef{"protocol.ns_per_choose", "ns"},
		metricDef{"workload.ns_per_sample", "ns"},
		metricDef{"server.ns_per_serve", "ns"},
		metricDef{"routing.ns_per_path", "ns"},
		metricDef{"protocol.moves", "count"},
		metricDef{"protocol.refusals", "count"},
		metricDef{"substrate.build_s", "s"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.allocs_per_req", "count"},
		metricDef{"gc.alloc_bytes_per_req", "B"},
		metricDef{"lat_p50_ms.lo", "ms"},
		metricDef{"lat_p99_ms.lo", "ms"},
		metricDef{"lat_p50_ms.hi", "ms"},
		metricDef{"lat_p99_ms.hi", "ms"},
		metricDef{"live.obj.ms_p50", "ms"},
		metricDef{"live.obj.ms_p99", "ms"},
		metricDef{"live.serve.ms_p50", "ms"},
		metricDef{"live.serve.ms_p99", "ms"},
		metricDef{"gen.late_ms_p99", "ms"},
		metricDef{"gen.offered", "count"},
		metricDef{"gen.issued", "count"},
		metricDef{"gen.served", "count"},
		metricDef{"gen.failed", "count"},
		metricDef{"gen.timed_out", "count"},
	)
	for _, ep := range endpoints {
		defs = append(defs, metricDef{"live." + ep.name + ".count", "count"}, metricDef{"live." + ep.name + ".busy_s", "s"})
	}
	defs = append(defs,
		metricDef{"live.rpc_attempts", "count"},
		metricDef{"live.rpc_retries", "count"},
		metricDef{"live.rpc_lost", "count"},
		metricDef{"live.create_executions", "count"},
	)
	return defs
}()

// profileSlack bounds how far the profile's attributed CPU may stray from
// the process CPU the kernel accounted over the same traced unit.
const profileSlack = 0.2

// result summarizes the record into the last output line and fills the
// human-readable report.
func (r *runRecord) result() *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	hashes := map[string]bool{}
	var timedOut int64
	var untraced []*unitResult
	var traced *unitResult
	for i := range r.Units {
		u := &r.Units[i]
		res.Attempted += u.Attempted
		res.Failed += u.Failed
		timedOut += u.TimedOut
		if len(u.Gates) > 0 {
			res.Correct = false
		}
		if u.Hash != "" {
			hashes[u.Hash] = true
		}
		if u.Traced {
			traced = u
		} else {
			untraced = append(untraced, u)
		}
	}
	if len(hashes) > 1 {
		res.Correct = false
		r.Units[0].gate("results differ between units of one seed: %d distinct hashes", len(hashes))
	}

	e2e := map[string]float64{
		"setup_s":        median(r.SetupS),
		"req_per_s":      medianOf(untraced, (*unitResult).reqPerSec),
		"cpu_us_per_req": medianOf(untraced, (*unitResult).cpuUSPerReq),
		"peak_heap_mb": medianOf(untraced, func(u *unitResult) float64 {
			return float64(u.PeakHeap) / 1e6
		}),
	}
	r.Report = map[string]metric{}
	for _, d := range endToEnd {
		r.Report[d.name] = metric{finite(e2e[d.name]), d.unit}
	}
	if res.Attempted > 0 {
		r.Report["fail_frac"] = metric{float64(res.Failed+timedOut) / float64(res.Attempted), "ratio"}
	}
	for k, v := range latencyMetrics(untraced) {
		r.Report[k] = metric{finite(v), "ms"}
	}

	if !r.Trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = r.Report[d.name]
		}
		return res
	}

	layer := map[string]float64{}
	for _, d := range perLayer {
		layer[d.name] = 0
	}
	for k, v := range r.Micro {
		layer[k] = v
	}
	layer["substrate.build_s"] = median(r.SubstrateS)
	for k, v := range latencyMetrics(untraced) {
		layer[k] = v
	}
	if traced != nil {
		for k, v := range traced.Layer {
			layer[k] = v
		}
		listed := map[string]bool{}
		for _, mod := range profiledModules {
			listed[mod] = true
			layer[mod+".cpu_s"] = traced.Profile[mod]
		}
		var profiled float64
		for mod, sec := range traced.Profile {
			profiled += sec
			if !listed[mod] {
				layer["other.cpu_s"] += sec
			}
		}
		cpu := traced.CPU.Seconds()
		layer["trace.cpu_s"] = cpu
		layer["trace.profiled_frac"] = profiled / cpu
		if math.Abs(profiled/cpu-1) > profileSlack {
			res.Correct = false
			traced.gate("profiled CPU %.3f s vs process CPU %.3f s: outside the %.0f%% slack", profiled, cpu, 100*profileSlack)
		}
		if len(untraced) > 0 {
			layer["trace.overhead.req_per_s"] = traced.reqPerSec() - untraced[0].reqPerSec()
			layer["trace.overhead.cpu_us_per_req"] = traced.cpuUSPerReq() - untraced[0].cpuUSPerReq()
		}
		layer["gc.cycles"] = float64(traced.Runtime.GCCycles)
		layer["gc.allocs_per_req"] = float64(traced.Runtime.Allocs) / float64(traced.Served)
		layer["gc.alloc_bytes_per_req"] = float64(traced.Runtime.AllocBytes) / float64(traced.Served)
		if len(traced.levels) > 0 {
			for k, v := range generatorMetrics(traced) {
				layer[k] = v
			}
		}
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{finite(layer[d.name]), d.unit}
		r.Report[d.name] = res.Metrics[d.name]
	}
	return res
}

// finite maps the values JSON cannot carry onto ones it can: NaN (a
// percentile of no samples) to 0, infinities (a percentile reaching a
// failed request) to the largest float of their sign.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

func medianOf(us []*unitResult, f func(*unitResult) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = f(u)
	}
	return median(xs)
}

// latencyMetrics pools the open-loop levels of the given units and
// returns each level's p50, p90 and p99 due-to-answer latency; empty for
// workloads without open-loop levels. p90 is printed beside p99 because
// p99 swings by more than any bound allows from run to run.
func latencyMetrics(us []*unitResult) map[string]float64 {
	out := map[string]float64{}
	for _, lv := range openLevels {
		var lat []float64
		for _, u := range us {
			if l := u.levels[lv.name]; l != nil {
				lat = append(lat, l.latencies()...)
			}
		}
		if len(lat) == 0 {
			continue
		}
		out["lat_p50_ms."+lv.name] = quantile(lat, 0.50)
		out["lat_p90_ms."+lv.name] = quantile(lat, 0.90)
		out["lat_p99_ms."+lv.name] = quantile(lat, 0.99)
	}
	return out
}

// generatorMetrics reports the open-loop generator's counts and the
// client-timed hop percentiles of one unit, pooled over its levels.
func generatorMetrics(u *unitResult) map[string]float64 {
	out := map[string]float64{}
	var obj, serve, late []float64
	for _, l := range u.levels {
		o, s := l.hops()
		obj, serve = append(obj, o...), append(serve, s...)
		late = append(late, l.lateness()...)
		out["gen.offered"] += float64(l.Offered)
		out["gen.issued"] += float64(l.Issued)
		out["gen.served"] += float64(l.Served)
		out["gen.failed"] += float64(l.Failed)
		out["gen.timed_out"] += float64(l.TimedOut)
	}
	out["live.obj.ms_p50"] = quantile(obj, 0.50)
	out["live.obj.ms_p99"] = quantile(obj, 0.99)
	out["live.serve.ms_p50"] = quantile(serve, 0.50)
	out["live.serve.ms_p99"] = quantile(serve, 0.99)
	out["gen.late_ms_p99"] = quantile(late, 0.99)
	return out
}
