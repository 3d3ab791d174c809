package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/meshfem"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// windowSteps is the size of the fixed step windows the traced run
// times through streamed-chunk marks; poolSteps the length of the
// short solve timed at Workers = nproc and Workers = 1.
const (
	windowSteps = 20
	poolSteps   = 20
)

// runGlobe runs globe-prem (lts false) or globe-lts (lts true).
func runGlobe(r *run, lts bool) error {
	sc := globeInputs(r.seed)
	ref, err := reference(r.workload, sc)
	if err != nil {
		return err
	}
	cfg := globeConfig(lts, r.workers)
	r.record["stations"] = sc.Stations
	r.record["steps"] = globeSteps
	if r.tr != nil {
		return traceGlobe(r, cfg, sc, ref)
	}

	heap := startHeapPeak()
	var setups, tts, runs []float64
	// Extra set-ups first, so setup_s is a median of setupRepeats.
	for i := 0; i < setupRepeats-1; i++ {
		t0 := time.Now()
		if _, err := core.NewSession(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	// Solve while the next solve, as long as the last one, still ends
	// within the measured window; always at least once.
	start := time.Now()
	for len(tts) == 0 || time.Since(start)+time.Duration(tts[len(tts)-1]*float64(time.Second)) <= r.seconds {
		t0 := time.Now()
		sess, err := core.NewSession(cfg)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rep, err := sess.Run(sc)
		t2 := time.Now()
		if err == nil {
			err = gateReport(rep, sc, ref)
		}
		r.op(fmt.Sprintf("%s solve %d", r.workload, len(tts)), err)
		setups = append(setups, t1.Sub(t0).Seconds())
		tts = append(tts, t2.Sub(t0).Seconds())
		runs = append(runs, t2.Sub(t1).Seconds())
		runtime.GC()
	}
	r.set("heap_peak_mb", heap.stopMB())
	r.set("setup_s", median(setups))
	r.set("time_to_solution_s", median(tts))
	r.set("steps_per_s", float64(globeSteps)/median(runs))
	// One solve is one job of a globe workload.
	r.set("job_latency_p50_s", median(tts))
	p := tailPercentile(len(tts))
	r.set("job_latency_tail_s", quantile(tts, p/100))
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	r.record["solves"] = len(tts)
	r.record["tail_percentile"] = p
	r.record["time_to_solution_samples_s"] = tts
	r.record["setup_samples_s"] = setups
	return nil
}

// gateReport applies the correctness gate to one globe run.
func gateReport(rep *core.Report, sc core.Scenario, ref traces) error {
	got, err := tracesOf(rep.Result.Seismograms, sc.Stations)
	if err != nil {
		return err
	}
	return checkGlobe(got, ref)
}

// layerRepeats is how many times the traced run times each set-up
// layer; the handoff is a small difference of two medians.
const layerRepeats = 5

// timeLayerSetup times meshfem.Build and core.NewSession of cfg
// layerRepeats times each, and stations.LocateFast of sts on the last
// session's globe, with spans under job. It sets meshfem.build_s,
// core.handoff_s and stations.locate_ms and returns the last session.
func timeLayerSetup(r *run, cfg core.Config, sts []stations.Station, job string) (*core.Session, error) {
	var builds, sessions, locates []float64
	var sess *core.Session
	for i := 0; i < layerRepeats; i++ {
		mcfg := meshfem.Config{NexXi: cfg.NexXi, NProcXi: cfg.NProcXi, Model: cfg.Model, Doublings: cfg.Doublings}
		t0 := time.Now()
		id := r.tr.add("meshfem.Build", job, -1, t0, time.Time{})
		if _, err := meshfem.Build(mcfg); err != nil {
			return nil, err
		}
		r.tr.end(id)
		builds = append(builds, time.Since(t0).Seconds())
		runtime.GC()

		t0 = time.Now()
		id = r.tr.add("core.NewSession", job, -1, t0, time.Time{})
		s, err := core.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		r.tr.end(id)
		sessions = append(sessions, time.Since(t0).Seconds())
		sess = s
		runtime.GC()
	}
	for i := 0; i < layerRepeats; i++ {
		t0 := time.Now()
		id := r.tr.add("stations.LocateFast", job, -1, t0, time.Time{})
		for _, st := range sts {
			if _, err := stations.LocateFast(sess.Globe(), st, false); err != nil {
				return nil, err
			}
		}
		r.tr.end(id)
		locates = append(locates, time.Since(t0).Seconds()*1e3)
	}
	r.set("meshfem.build_s", median(builds))
	r.set("core.handoff_s", median(sessions)-median(builds))
	r.set("stations.locate_ms", median(locates))
	return sess, nil
}

// windows times a streamed solve in fixed windows of recorded samples:
// marks[i] is when chunk i of station name, field 0, arrived.
type windows struct {
	mu    sync.Mutex
	name  string
	marks []time.Time
}

func (w *windows) onChunk(ch core.StreamChunk) {
	if ch.Name != w.name || ch.Field != 0 {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.marks = append(w.marks, now)
	w.mu.Unlock()
}

// msPerStep returns ms per step of each window, the first measured from
// start; the short final chunk (if any) is dropped.
func (w *windows) msPerStep(start time.Time, stepsPerWindow, total int) []float64 {
	var out []float64
	prev := start
	for i, m := range w.marks {
		if (i+1)*stepsPerWindow > total {
			break
		}
		out = append(out, float64(m.Sub(prev).Microseconds())/1e3/float64(stepsPerWindow))
		prev = m
	}
	return out
}

// setSolverLayer reports the solver and mpi per-layer metrics of one
// timed, traced solve.
func setSolverLayer(r *run, res *solver.Result, wall time.Duration, win []float64) {
	steps := float64(res.Steps)
	first, peak, last := win[0], win[0], win[len(win)-1]
	for _, v := range win {
		peak = max(peak, v)
	}
	r.set("solver.ms_per_step.first", first)
	r.set("solver.ms_per_step.peak", peak)
	r.set("solver.ms_per_step.last", last)
	r.set("solver.step_cost_ratio", peak/last)
	r.set("solver.flops_per_step", float64(res.Perf.TotalFlops)/steps)
	r.set("solver.gflops", float64(res.Perf.TotalFlops)/wall.Seconds()/1e9)
	r.set("solver.bytes_per_step", float64(res.Perf.TotalBytes)/steps)
	r.set("solver.flop_per_byte", float64(res.Perf.TotalFlops)/float64(res.Perf.TotalBytes))
	reduction := 1.0
	if res.LTS != nil {
		reduction = res.LTS.UpdateReduction
	}
	r.set("solver.lts_update_reduction", reduction)
	r.set("mpi.messages_per_step", float64(res.MPI.Messages)/steps)
	r.set("mpi.bytes_per_step", float64(res.MPI.BytesSent)/steps)
	r.set("mpi.wait_ms_per_step", res.MPI.CommTime.Seconds()*1e3/(steps*float64(res.Perf.Ranks)))
	r.record["ms_per_step_windows"] = win
}

// poolSpeedup times a poolSteps solve of cfg at Workers = nproc and at
// Workers = 1 and returns the ratio of their Run wall times.
func poolSpeedup(r *run, cfg core.Config, scs []core.Scenario) (float64, error) {
	cfg.Steps = poolSteps
	var walls [2]float64
	for i, w := range []int{r.workers, 1} {
		cfg.Workers = w
		sess, err := core.NewSession(cfg)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		id := r.tr.add(fmt.Sprintf("solver.Run.workers%d", w), "", -1, t0, time.Time{})
		if _, err := sess.RunBatch(scs); err != nil {
			return 0, err
		}
		r.tr.end(id)
		walls[i] = time.Since(t0).Seconds()
	}
	r.record["pool_walls_s"] = walls
	return walls[1] / walls[0], nil
}

// traceGlobe is the traced globe run: layer set-up timings, one
// untraced and one traced solve (their difference is the tracing
// overhead), and the worker-pool speedup.
func traceGlobe(r *run, cfg core.Config, sc core.Scenario, ref traces) error {
	sess, err := timeLayerSetup(r, cfg, sc.Stations, "")
	if err != nil {
		return err
	}

	runtime.GC()
	t0 := time.Now()
	rep, err := sess.Run(sc)
	untraced := time.Since(t0).Seconds()
	if err == nil {
		err = gateReport(rep, sc, ref)
	}
	r.op("untraced solve", err)
	rep = nil
	runtime.GC()

	// Globe solves are issued back to back, so a solve is due when the
	// previous one has been cleaned up; the generator's lateness is the
	// harness's own delay until the call.
	due := time.Now()
	win := &windows{name: sc.Stations[0].Name}
	t0 = time.Now()
	root := r.tr.add("solver.RunBatchStream", "", -1, t0, time.Time{})
	reps, err := sess.RunBatchStream([]core.Scenario{sc}, windowSteps, win.onChunk)
	wall := time.Since(t0)
	r.tr.end(root)
	if err == nil {
		err = gateReport(reps[0], sc, ref)
	}
	r.op("traced solve", err)
	if err != nil {
		return err
	}
	ms := win.msPerStep(t0, windowSteps, globeSteps)
	prev := t0
	for i, m := range win.marks[:len(ms)] {
		r.tr.add(fmt.Sprintf("solver.window%02d", i), "", root, prev, m)
		prev = m
	}
	res := reps[0].Result
	setSolverLayer(r, res, wall, ms)
	r.set("trace.overhead_s", wall.Seconds()-untraced)
	r.set("service.first_chunk_s.p50", win.marks[0].Sub(t0).Seconds())
	r.set("service.batch_size_mean", float64(res.NumFields))
	r.set("service.batch_src_steps_per_s", res.SourceStepsPerSec)
	r.set("service.cache_hit_ratio", 0)
	r.set("service.cache_evictions", 0)
	r.set("loadgen.late_ms_max", float64(t0.Sub(due).Nanoseconds())/1e6)
	reps = nil
	runtime.GC()

	sp, err := poolSpeedup(r, cfg, []core.Scenario{sc})
	if err != nil {
		return err
	}
	r.set("solver.pool_speedup", sp)
	return nil
}
