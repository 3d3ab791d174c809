package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"specglobe/internal/gll"
	"specglobe/internal/perfmodel"
	"specglobe/internal/simd"
)

// envRecord describes the host of a run.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// LLCBytes is the largest cache level's size as the OS reports it
	// (0 when unknown).
	LLCBytes int64 `json:"llc_bytes"`
	// PeakGflops and StreamGBs are perfmodel.MeasureLocalMachine's
	// single-core compute peak and triad bandwidth; StreamArrayBytes is
	// the triad's working set, to hold against LLCBytes.
	PeakGflops       float64 `json:"peak_gflops"`
	StreamGBs        float64 `json:"stream_gbs"`
	StreamArrayBytes int64   `json:"stream_working_set_bytes"`
	// StealS is the CPU time the hypervisor took from this host's
	// CPUs during the run (from /proc/stat; 0 when unavailable): large
	// values explain noisy timings.
	StealS float64 `json:"steal_s"`
	// The simd probe's working sets (traced runs only).
	SimdStreamedBytes int64 `json:"simd_streamed_working_set_bytes,omitempty"`
	SimdHotBytes      int64 `json:"simd_hot_working_set_bytes,omitempty"`
}

// triadBytes is the working set of perfmodel's triad: three arrays of
// 1<<23 float32.
const triadBytes = 3 * (1 << 23) * 4

// measureEnv records the host, including the measured compute peak and
// bandwidth, and then returns the probe's garbage to the OS so it does
// not count toward the workload's heap peak.
func measureEnv() envRecord {
	m := perfmodel.MeasureLocalMachine()
	e := envRecord{
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		LLCBytes:         llcBytes(),
		PeakGflops:       m.PeakGflopsPerCore,
		StreamGBs:        m.MemBWPerCoreGBs,
		StreamArrayBytes: triadBytes,
	}
	debug.FreeOSMemory()
	return e
}

// llcBytes reads the size of the highest cache level of CPU 0 from
// sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var bestLevel, best int64
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.ParseInt(strings.TrimSpace(string(lv)), 10, 64)
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			bestLevel, best = level, n*mult
		}
	}
	return best
}

// stealTicks returns the cumulative steal time of all CPUs in clock
// ticks (USER_HZ, 100 per second on Linux), or 0 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// heapPeak samples the bytes of live and not-yet-swept heap objects
// until stopped and keeps the maximum.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops sampling and returns the peak in MB (1e6 bytes).
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// probeKernels times the default force kernel's public gradient over a
// working set at least four times the last-level cache (streamed from
// memory) and over a cache-resident one, and reports the perfmodel
// measurements taken at start-up.
func probeKernels(r *run, env *envRecord) {
	llc := env.LLCBytes
	if llc <= 0 {
		llc = 32 << 20 // unknown: assume a large server LLC
	}
	const perElem = 4 * simd.PadLen * 4 // u, d1, d2, d3 blocks of float32
	streamed := int(4*llc/perElem) + 1
	hot := 64 // 128 KiB: resident in L2
	env.SimdStreamedBytes = int64(streamed) * perElem
	env.SimdHotBytes = int64(hot) * perElem

	id := r.tr.begin("simd.GradVec4.streamed", "", -1)
	r.set("simd.grad_ns_per_elem.streamed", gradNsPerElem(streamed, 3))
	r.tr.end(id)
	debug.FreeOSMemory()
	id = r.tr.begin("simd.GradVec4.hot", "", -1)
	r.set("simd.grad_ns_per_elem.hot", gradNsPerElem(hot, 2000))
	r.tr.end(id)
	r.set("perfmodel.peak_gflops", env.PeakGflops)
	r.set("perfmodel.stream_gbs", env.StreamGBs)
}

// gradNsPerElem sweeps simd.GradVec4 over n padded element blocks,
// sweeps times after one warm-up sweep, and returns the median ns per
// element over the timed sweeps.
func gradNsPerElem(n, sweeps int) float64 {
	m := simd.MatrixFromF64(gll.New(simd.NGLL).HPrime)
	cols := simd.Columns4(m)
	u := make([]float32, n*simd.PadLen)
	d1 := make([]float32, len(u))
	d2 := make([]float32, len(u))
	d3 := make([]float32, len(u))
	for i := range u {
		u[i] = float32(math.Sin(float64(i) * 0.01))
	}
	sweep := func() {
		for e := 0; e < n; e++ {
			lo, hi := e*simd.PadLen, (e+1)*simd.PadLen
			simd.GradVec4(m, &cols, u[lo:hi], d1[lo:hi], d2[lo:hi], d3[lo:hi])
		}
	}
	sweep()
	ts := make([]float64, sweeps)
	for i := range ts {
		t0 := time.Now()
		sweep()
		ts[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ts)
}
