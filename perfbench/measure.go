package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// machine is the stanza every result carries, so numbers from different
// hosts or toolchains are never compared by accident.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// commit names the measured source tree: the VCS stamp the Go toolchain
// puts in a binary built inside a git work tree (suffixed -dirty for
// uncommitted changes), else "unknown" (a plain source checkout).
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the Go runtime's cumulative GC and allocation
// counters without stopping the world.
type runtimeCounters struct {
	GCCycles   uint64
	Allocs     uint64
	AllocBytes uint64
}

var counterNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		GCCycles:   s[0].Value.Uint64(),
		Allocs:     s[1].Value.Uint64(),
		AllocBytes: s[2].Value.Uint64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		GCCycles:   a.GCCycles - b.GCCycles,
		Allocs:     a.Allocs - b.Allocs,
		AllocBytes: a.AllocBytes - b.AllocBytes,
	}
}

// liveHeap returns the Go heap's live bytes: what the latest GC cycle
// found reachable. It reads runtime/metrics, which does not stop the
// world, so polling it does not perturb the measured work.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls liveHeap every few milliseconds and keeps the peak.
// Live bytes measure the data the program holds; the garbage between
// cycles, whose peak depends on when the collector happens to run, is
// left to the allocation counters.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := liveHeap()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// Stop ends sampling, waits for the sampler goroutine and returns the
// peak in bytes. The live bytes only change when a GC cycle ends, so Stop
// runs one more cycle: the state the unit built counts even when no
// cycle happened to end after it was built.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); NaN for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
