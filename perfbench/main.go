// Command perfbench is the repository's benchmark: it runs one workload of
// the RaDaR simulator or live fleet for a fixed time, checks that the
// outputs are correct, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of its output, one
// JSON object. README.md in this directory describes the workloads and
// metrics; run.py builds and runs it.
//
//	go run . -workload sim-zipf -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// system is one set-up instance of a workload, ready to run one unit of
// measured work.
type system interface {
	// run performs the unit; tr is non-nil for the traced unit.
	run(ctx context.Context, tr *tracer) (unitResult, error)
	close()
}

// workloadImpl builds systems for one workload.
type workloadImpl interface {
	// prepare does, once and untimed, the work a fresh process pays for
	// exactly once: reference results, shared caches.
	prepare() error
	// setup builds one system; the harness times it. tr is non-nil when
	// the system will run the traced unit.
	setup(tr *tracer) (system, setupTimes, error)
	// layerInputs feeds the micro-benchmarks; called after the traced unit.
	layerInputs() (layerInputs, error)
}

type setupTimes struct {
	total     time.Duration
	substrate time.Duration // topology + routing build (simulator only)
}

// unitResult is one unit's measurements and gate verdicts.
type unitResult struct {
	Traced    bool               `json:"traced"`
	Wall      time.Duration      `json:"wall_ns"`
	CPU       time.Duration      `json:"cpu_ns"`
	PeakHeap  uint64             `json:"peak_heap_bytes"`
	Runtime   runtimeCounters    `json:"runtime"`
	Served    int64              `json:"served"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	TimedOut  int64              `json:"modeled_timeouts,omitempty"` // simulator only
	Hash      string             `json:"results_hash,omitempty"`
	Gates     []string           `json:"gate_failures,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Profile   map[string]float64 `json:"profile_cpu_s,omitempty"`

	levels map[string]*levelResult // live-open only
}

func (u *unitResult) gate(format string, args ...any) {
	u.Gates = append(u.Gates, fmt.Sprintf(format, args...))
}

func (u *unitResult) reqPerSec() float64 { return float64(u.Served) / u.Wall.Seconds() }

func (u *unitResult) cpuUSPerReq() float64 {
	return float64(u.CPU) / float64(time.Microsecond) / float64(u.Served)
}

var workloadNames = []string{"sim-zipf", "sim-bigrun", "live-open", "live-replay"}

func newWorkload(name string, seed int64, seconds int) (workloadImpl, error) {
	switch name {
	case "sim-zipf":
		return newSimZipf(seed), nil
	case "sim-bigrun":
		return newSimBigrun(seed), nil
	case "live-open":
		return newLiveOpen(seed, seconds)
	case "live-replay":
		return newLiveReplay(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured time in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", "", "directory for the run record and spans (empty: none written)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec := &runRecord{
		Machine: currentMachine(), Workload: *name, Seed: *seed,
		Seconds: *seconds, Trace: *trace == 1,
	}
	res, err := measure(w, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
			os.Exit(1)
		}
	}
	rec.print(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Set-up sampling: at least minSetups set-ups per run, more while they
// stay cheap, so the reported median rests on several samples.
const (
	minSetups      = 3
	maxSetups      = 15
	setupTimeSpend = 1500 * time.Millisecond
)

// measure runs the workload: units until the measured time is spent (at
// least one); in a traced run, exactly one untraced then one traced unit,
// followed by the micro-benchmarks.
func measure(w workloadImpl, rec *runRecord) (*result, error) {
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	budget := time.Duration(rec.Seconds) * time.Second
	var (
		spent  time.Duration
		tr     *tracer
		ctx    = context.Background()
		setups []setupTimes
	)
	if rec.Trace {
		tr = newTracer()
	}
	for i := 0; ; i++ {
		traced := rec.Trace && i == 1
		var unitTr *tracer
		if traced {
			unitTr = tr
		}
		runtime.GC() // earlier units' garbage must not count against this one
		sys, st, err := w.setup(unitTr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
		u, err := runUnit(ctx, sys, unitTr)
		sys.close()
		if err != nil {
			return nil, err
		}
		rec.Units = append(rec.Units, u)
		spent += u.Wall
		if rec.Trace {
			if traced {
				break
			}
			continue
		}
		if spent+u.Wall > budget {
			break
		}
	}
	var setupSpent time.Duration
	for _, s := range setups {
		setupSpent += s.total
	}
	for len(setups) < minSetups || (len(setups) < maxSetups && setupSpent < setupTimeSpend) {
		runtime.GC()
		sys, st, err := w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sys.close()
		setups = append(setups, st)
		setupSpent += st.total
	}
	for _, s := range setups {
		rec.SetupS = append(rec.SetupS, s.total.Seconds())
		rec.SubstrateS = append(rec.SubstrateS, s.substrate.Seconds())
	}
	if rec.Trace {
		in, err := w.layerInputs()
		if err != nil {
			return nil, err
		}
		rec.Micro = microLayers(in)
		rec.tracer = tr
	}
	return rec.result(), nil
}

// runUnit runs one unit, measuring wall, CPU, peak heap and the runtime's
// allocation counters around it, and a CPU profile when traced.
func runUnit(ctx context.Context, sys system, tr *tracer) (unitResult, error) {
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return unitResult{}, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	rc0 := readCounters()
	cpu0 := cpuTime()
	hs := startHeapSampler()
	start := time.Now()
	u, err := sys.run(ctx, tr)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	rc := readCounters().sub(rc0)
	if tr != nil {
		pprof.StopCPUProfile()
	}
	peak := hs.Stop() // after the CPU reading: Stop collects garbage
	if err != nil {
		return u, err
	}
	if u.Wall == 0 {
		u.Wall = wall
	}
	u.Traced = tr != nil
	u.CPU, u.PeakHeap, u.Runtime = cpu, peak, rc
	if u.Served == 0 {
		u.gate("no request served")
	}
	if tr != nil {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return u, err
		}
		u.Profile, _ = p.attribute()
	}
	return u, nil
}

// runRecord is everything one invocation measured, kept whole: the
// machine, every unit's values and every set-up sample, not only the
// summary the last output line carries.
type runRecord struct {
	Machine    machine            `json:"machine"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Units      []unitResult       `json:"units"`
	SetupS     []float64          `json:"setup_s"`
	SubstrateS []float64          `json:"substrate_build_s"`
	Micro      map[string]float64 `json:"micro_ns,omitempty"`
	Report     map[string]metric  `json:"report"`
	Result     *result            `json:"result"`

	tracer *tracer
}

func (r *runRecord) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if r.tracer != nil {
		return r.tracer.write(filepath.Join(dir, base+".spans.json.gz"))
	}
	return nil
}

// print writes the human-readable report: the machine stanza, every
// unit, and every metric by name with its unit.
func (r *runRecord) print(f *os.File) {
	m := r.Machine
	fmt.Fprintf(f, "machine: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch, m.Commit)
	fmt.Fprintf(f, "workload %s seed %d, %d s measured, trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for i, u := range r.Units {
		fmt.Fprintf(f, "unit %d (traced %v): %d served in %v, %.1f req/s, %.2f us CPU/req, peak heap %.1f MB %s\n",
			i, u.Traced, u.Served, u.Wall.Round(time.Millisecond), u.reqPerSec(), u.cpuUSPerReq(),
			float64(u.PeakHeap)/1e6, u.Hash)
		for _, g := range u.Gates {
			fmt.Fprintf(f, "  GATE FAILED: %s\n", g)
		}
	}
	names := make([]string, 0, len(r.Report))
	for n := range r.Report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", n, r.Report[n].Value, r.Report[n].Unit)
	}
}
