// Command specbench is the repository's benchmark. It times calls into
// the public functions of the solver stack (service, core, meshfem,
// stations, solver, simd, perfmodel) on three workloads and checks every
// output it times:
//
//   - globe-prem: one-shot PREM globe runs, core.NewSession then
//     Session.Run, single-rate;
//   - globe-lts: the same mesh, event and stations with local time
//     stepping;
//   - daemon-catalog: an in-process service.Daemon fed open-loop Poisson
//     arrivals over one service.Serve connection.
//
// Run it from the repository root through its build script:
//
//	bash specbench/run.sh --workload globe-prem --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also records spans around
// each layer call and reports the per-layer metrics instead. A summary
// goes to standard error, and a run record (environment, metrics and
// sample counts) plus, for traced runs, a trace-event JSON file go to
// the --out directory. metrics.json next to this file defines every
// metric and names the end-to-end metric and workload each per-layer
// metric should move.
//
// --write-refs regenerates the stored reference seismograms of the globe
// workloads (refs/); it takes several minutes. The benchmark's own tests
// run with `go test .` in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wGlobePREM = "globe-prem"
	wGlobeLTS  = "globe-lts"
	wDaemon    = "daemon-catalog"
)

var workloads = []string{wGlobePREM, wGlobeLTS, wDaemon}

// metricDef is a metric name with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_solution_s", "s"},
	{"steps_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_tail_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ok_frac", "1"},
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json
// order.
var perLayer = []metricDef{
	{"meshfem.build_s", "s"},
	{"core.handoff_s", "s"},
	{"stations.locate_ms", "ms"},
	{"solver.ms_per_step.first", "ms"},
	{"solver.ms_per_step.peak", "ms"},
	{"solver.ms_per_step.last", "ms"},
	{"solver.step_cost_ratio", "1"},
	{"solver.flops_per_step", "flop"},
	{"solver.gflops", "Gflop/s"},
	{"solver.bytes_per_step", "B"},
	{"solver.flop_per_byte", "flop/B"},
	{"solver.pool_speedup", "1"},
	{"solver.lts_update_reduction", "1"},
	{"mpi.messages_per_step", "count"},
	{"mpi.bytes_per_step", "B"},
	{"mpi.wait_ms_per_step", "ms"},
	{"simd.grad_ns_per_elem.streamed", "ns"},
	{"simd.grad_ns_per_elem.hot", "ns"},
	{"perfmodel.peak_gflops", "Gflop/s"},
	{"perfmodel.stream_gbs", "GB/s"},
	{"service.first_chunk_s.p50", "s"},
	{"service.batch_size_mean", "count"},
	{"service.batch_src_steps_per_s", "1/s"},
	{"service.cache_hit_ratio", "1"},
	{"service.cache_evictions", "count"},
	{"loadgen.late_ms_max", "ms"},
	{"trace.overhead_s", "s"},
}

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	workers  int
	tr       *tracer // nil when untraced

	attempted, failed int
	values            map[string]float64
	// record holds extra facts for the run record: sample counts,
	// percentile choices, windows, per-layer self times.
	record map[string]any
}

// op counts one operation and its outcome; a non-nil err marks it failed
// and is reported on standard error.
func (r *run) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "specbench: FAILED %s: %v\n", what, err)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func main() {
	var (
		workload  = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 35, "measured seconds")
		trace     = flag.Int("trace", 0, "1 for the traced per-layer run")
		out       = flag.String("out", ".bench_build", "directory for run records and traces")
		writeRefs = flag.String("write-refs", "", "regenerate the globe reference traces into this directory and exit")
	)
	flag.Parse()
	if *writeRefs != "" {
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "specbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, traced bool, out string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
		values:   map[string]float64{},
		record:   map[string]any{},
	}
	if traced {
		r.tr = newTracer()
	}
	steal0 := stealTicks()
	env := measureEnv()
	var err error
	switch workload {
	case wGlobePREM:
		err = runGlobe(r, false)
	case wGlobeLTS:
		err = runGlobe(r, true)
	case wDaemon:
		err = runDaemon(r)
	}
	if err != nil {
		return err
	}
	if traced {
		probeKernels(r, &env)
	}
	env.StealS = float64(stealTicks()-steal0) / 100
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.attempted > 0 && r.failed == 0
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	if err := writeRecord(r, env, res, out); err != nil {
		return err
	}
	summarize(r, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord writes the run record, and for a traced run the trace,
// into out.
func writeRecord(r *run, env envRecord, res result, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, boolInt(r.tr != nil))
	if r.tr != nil {
		self := r.tr.selfTimes()
		r.record["self_s"] = self
		if err := r.tr.write(filepath.Join(out, base+".trace.json"), map[string]any{"env": env, "self_s": self}); err != nil {
			return err
		}
	}
	rec := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(),
		"env": env, "result": res, "details": r.record,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, base+".json"), b, 0o644)
}

// summarize prints the human-readable result on standard error.
func summarize(r *run, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "specbench %s seed=%d: %d/%d operations failed (fail_frac %.4g)\n",
		r.workload, r.seed, r.failed, r.attempted, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if self, ok := r.record["self_s"].(map[string]float64); ok {
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(os.Stderr, "  self time %-24s %10.4f s\n", l, self[l])
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
