package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/meshio"
	"specglobe/internal/service"
	"specglobe/internal/solver"
)

// probeWindow is the window, in recorded samples, of the traced run's
// solver probe on the daemon's mesh (jobs are only jobSteps long).
const probeWindow = 1

// runSegments is how many consecutive parts of the schedule, by due
// time, the daemon's per-job figures are taken over; a run reports the
// median of the parts, so a burst of host contention during one part
// does not set the run's figure.
const runSegments = 3

// drainGrace bounds how long after the last arrival the daemon may take
// to finish the schedule before the run gives up.
const drainGrace = 90 * time.Second

// jobTrack follows one submitted job from its due time to its done line.
type jobTrack struct {
	name  string
	entry int
	due   time.Time
	sent  time.Time

	// Filled by the reader before done is closed.
	firstChunk time.Time
	doneAt     time.Time
	status     *service.JobStatus
	chunks     []service.Response
	rejected   string
	done       chan struct{}
}

// client is one service.Serve connection to an in-process daemon, the
// way `specfem ctl` talks to specfemd: line-delimited JSON over a pipe
// pair, one reader goroutine timing every response line as it arrives.
type client struct {
	d      *service.Daemon
	reqW   *io.PipeWriter
	enc    *json.Encoder
	served chan error
	read   chan struct{}

	mu       sync.Mutex
	awaiting []*jobTrack // submitted, not yet accepted, in order
	byName   map[string]*jobTrack
	first    map[string]time.Time // by job id
	chunks   map[string][]service.Response
}

func newClient(d *service.Daemon) *client {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	c := &client{
		d: d, reqW: reqW, enc: json.NewEncoder(reqW),
		served: make(chan error, 1), read: make(chan struct{}),
		byName: map[string]*jobTrack{},
		first:  map[string]time.Time{},
		chunks: map[string][]service.Response{},
	}
	go func() {
		err := service.Serve(d, struct {
			io.Reader
			io.Writer
		}{reqR, respW})
		respW.Close()
		c.served <- err
	}()
	go c.readLoop(respR)
	return c
}

// readLoop records every response line with its arrival time.
func (c *client) readLoop(r io.Reader) {
	defer close(c.read)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		now := time.Now()
		var resp service.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			continue
		}
		c.mu.Lock()
		switch resp.Type {
		case "accepted", "error":
			if len(c.awaiting) == 0 {
				break
			}
			jt := c.awaiting[0]
			c.awaiting = c.awaiting[1:]
			if resp.Type == "error" {
				jt.rejected = fmt.Sprintf("%s: %s", resp.Code, resp.Error)
				close(jt.done)
			}
		case "chunk":
			if _, ok := c.first[resp.ID]; !ok {
				c.first[resp.ID] = now
			}
			c.chunks[resp.ID] = append(c.chunks[resp.ID], resp)
		case "done":
			jt, ok := c.byName[resp.Status.Name]
			if !ok {
				break
			}
			jt.doneAt, jt.status = now, resp.Status
			jt.firstChunk, jt.chunks = c.first[resp.ID], c.chunks[resp.ID]
			delete(c.first, resp.ID)
			delete(c.chunks, resp.ID)
			close(jt.done)
		}
		c.mu.Unlock()
	}
	// Drain the pipe even after a scan error so Serve never blocks.
	io.Copy(io.Discard, r)
}

// submit sends one job and returns its tracker.
func (c *client) submit(name string, entry int, spec service.JobSpec, due time.Time) (*jobTrack, error) {
	spec.Name = name
	jt := &jobTrack{name: name, entry: entry, due: due, done: make(chan struct{})}
	c.mu.Lock()
	c.byName[name] = jt
	c.awaiting = append(c.awaiting, jt)
	c.mu.Unlock()
	err := c.enc.Encode(service.Request{Op: "submit", Job: &spec})
	jt.sent = time.Now()
	return jt, err
}

// close ends the connection, waits for Serve and the reader, and closes
// the daemon.
func (c *client) close() error {
	c.reqW.Close()
	err := <-c.served
	<-c.read
	c.d.Close()
	return err
}

// daemonRefs holds the direct-run reference seismograms of each catalog
// entry, by station name.
type daemonRefs []map[string]*solver.Seismogram

// checkJob verifies a finished job: state done and, per station, the
// concatenated stream == the direct run of service.DirectConfig(spec).
func checkJob(jt *jobTrack, spec service.JobSpec, ref map[string]*solver.Seismogram) error {
	if jt.rejected != "" {
		return fmt.Errorf("rejected: %s", jt.rejected)
	}
	if jt.status == nil || jt.status.State != service.StateDone {
		return fmt.Errorf("finished in state %v", jt.status)
	}
	byStation := map[string][]service.Response{}
	for _, ch := range jt.chunks {
		byStation[ch.Station] = append(byStation[ch.Station], ch)
	}
	for _, st := range spec.Stations {
		chs := byStation[st.Name]
		sort.Slice(chs, func(i, j int) bool { return chs[i].Start < chs[j].Start })
		var x, y, z []float32
		last := false
		for _, ch := range chs {
			if ch.Start != len(x) {
				return fmt.Errorf("station %s: chunk starts at %d after %d samples", st.Name, ch.Start, len(x))
			}
			x, y, z = append(x, ch.X...), append(y, ch.Y...), append(z, ch.Z...)
			last = last || ch.Last
		}
		want := ref[st.Name]
		if !last || want == nil || !equal32(x, want.X) || !equal32(y, want.Y) || !equal32(z, want.Z) {
			return fmt.Errorf("station %s: streamed seismogram (%d samples, last=%v) differs from the direct run", st.Name, len(x), last)
		}
	}
	return nil
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// daemonWorkload is the prepared state of a daemon-catalog run.
type daemonWorkload struct {
	in   daemonInputs
	refs daemonRefs
	cfg  service.Config
}

// prepareDaemon generates the inputs and computes every catalog entry's
// direct reference run (untimed).
func prepareDaemon(r *run) (*daemonWorkload, error) {
	w := &daemonWorkload{in: daemonSchedule(r.seed, r.seconds)}
	var sizes [2]int64
	for i, spec := range w.in.Catalog {
		cfg, err := service.DirectConfig(spec, r.workers)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("direct run of catalog entry %d: %w", i, err)
		}
		r.tr.add("core.Run.reference", fmt.Sprintf("ref-%d", i), -1, t0, time.Now())
		w.refs = append(w.refs, rep.Result.Seismograms)
		var n int64
		for _, l := range rep.Globe.Locals {
			n += meshio.MeshBytes(l)
		}
		sizes[boolInt(i >= majorEntries)] = n
	}
	// A budget that holds either session but not both.
	budget := max(sizes[0], sizes[1]) + min(sizes[0], sizes[1])/2
	w.cfg = service.Config{MaxBatch: maxBatch, MemoryBudget: budget, Workers: r.workers}
	r.record["memory_budget_bytes"] = budget
	r.record["session_bytes"] = sizes
	runtime.GC()
	return w, nil
}

// setup starts a daemon and its connection and runs one warm-up job per
// key, the second key last so the major key's session is resident.
func (w *daemonWorkload) setup(r *run, label string) (*client, float64, error) {
	t0 := time.Now()
	id := r.tr.add("service.setup", label, -1, t0, time.Time{})
	c := newClient(service.New(w.cfg))
	for k, e := range []int{majorEntries, 0} {
		jt, err := c.submit(fmt.Sprintf("%s-warmup%d", label, k), e, w.in.Catalog[e], time.Now())
		if err != nil {
			return nil, 0, err
		}
		<-jt.done
		r.op("warm-up job "+jt.name, checkJob(jt, w.in.Catalog[e], w.refs[e]))
	}
	r.tr.end(id)
	return c, time.Since(t0).Seconds(), nil
}

// passResult is what one open-loop pass over the schedule measured.
type passResult struct {
	latency, firstChunk       []float64
	makespan, lateMax         float64
	builds, hits, evictions   int
	srcStepsPerSec, batchSize []float64
}

// pass submits the schedule open-loop: each job is sent at its due time
// whether or not earlier jobs finished, and timed from that due time.
func (w *daemonWorkload) pass(r *run, c *client, label string) (*passResult, error) {
	b0, h0, e0, _ := c.d.CacheStats()
	start := time.Now().Add(10 * time.Millisecond)
	jobs := make([]*jobTrack, len(w.in.Arrivals))
	for i, a := range w.in.Arrivals {
		due := start.Add(a.At)
		time.Sleep(time.Until(due))
		jt, err := c.submit(fmt.Sprintf("%s-%d", label, i), a.Entry, w.in.Catalog[a.Entry], due)
		if err != nil {
			return nil, fmt.Errorf("submitting job %d: %w", i, err)
		}
		jobs[i] = jt
	}
	deadline := time.After(time.Until(start.Add(w.in.Arrivals[len(jobs)-1].At + drainGrace)))
	p := &passResult{}
	var lastDone time.Time
	for _, jt := range jobs {
		select {
		case <-jt.done:
		case <-deadline:
			return nil, fmt.Errorf("daemon did not finish the schedule within %v of the last arrival", drainGrace)
		}
		r.op("job "+jt.name, checkJob(jt, w.in.Catalog[jt.entry], w.refs[jt.entry]))
		p.lateMax = max(p.lateMax, jt.sent.Sub(jt.due).Seconds()*1e3)
		if jt.rejected != "" {
			continue
		}
		p.latency = append(p.latency, jt.doneAt.Sub(jt.due).Seconds())
		if !jt.firstChunk.IsZero() {
			p.firstChunk = append(p.firstChunk, jt.firstChunk.Sub(jt.due).Seconds())
		}
		if jt.doneAt.After(lastDone) {
			lastDone = jt.doneAt
		}
		if jt.status.SourceStepsPerSec > 0 {
			p.srcStepsPerSec = append(p.srcStepsPerSec, jt.status.SourceStepsPerSec)
		}
		p.batchSize = append(p.batchSize, float64(jt.status.BatchSize))
		if r.tr != nil {
			root := r.tr.add("service.job", jt.name, -1, jt.sent, jt.doneAt)
			r.tr.add("loadgen.submit", jt.name, -1, jt.due, jt.sent)
			if !jt.firstChunk.IsZero() {
				r.tr.add("service.stream", jt.name, root, jt.firstChunk, jt.doneAt)
			}
		}
	}
	if len(p.latency) == 0 {
		return nil, fmt.Errorf("no job of the schedule completed")
	}
	p.makespan = lastDone.Sub(jobs[0].due).Seconds()
	b1, h1, e1, _ := c.d.CacheStats()
	p.builds, p.hits, p.evictions = b1-b0, h1-h0, e1-e0
	return p, nil
}

// runDaemon runs daemon-catalog.
func runDaemon(r *run) error {
	w, err := prepareDaemon(r)
	if err != nil {
		return err
	}
	r.record["jobs"] = len(w.in.Arrivals)
	r.record["job_steps"] = jobSteps

	var heap *heapPeak
	if r.tr == nil {
		heap = startHeapPeak()
	}
	var setups []float64
	var c *client
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return err
			}
			runtime.GC()
		}
		var s float64
		c, s, err = w.setup(r, fmt.Sprintf("setup%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	if r.tr != nil {
		return traceDaemon(r, w, c)
	}
	p, err := w.pass(r, c, "job")
	if err != nil {
		return err
	}
	if err := c.close(); err != nil {
		return err
	}
	r.set("heap_peak_mb", heap.stopMB())
	r.set("setup_s", median(setups))
	r.set("job_latency_p50_s", segmentMedian(p.latency, runSegments, median))
	r.set("job_latency_tail_s", segmentMedian(p.latency, runSegments, tail))
	r.set("time_to_solution_s", p.makespan)
	r.set("steps_per_s", segmentMedian(p.srcStepsPerSec, runSegments, harmonicMean))
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	r.record["tail_percentile"] = tailPercentile(len(p.latency) / runSegments)
	r.record["run_segments"] = runSegments
	r.record["latency_samples"] = len(p.latency)
	r.record["latency_s"] = p.latency
	r.record["setup_samples_s"] = setups
	r.record["late_ms_max"] = p.lateMax
	r.record["cache"] = map[string]int{"builds": p.builds, "hits": p.hits, "evictions": p.evictions}
	return nil
}

// harmonicMean of per-job source-steps/s is total source-steps over
// total solver time, since every job of a batch ran the same steps.
func harmonicMean(xs []float64) float64 {
	var inv float64
	for _, x := range xs {
		inv += 1 / x
	}
	if inv == 0 {
		return math.NaN()
	}
	return float64(len(xs)) / inv
}

// traceDaemon runs the schedule once untraced and once traced on the
// same daemon, then probes the layers under the daemon on the major
// key's mesh.
func traceDaemon(r *run, w *daemonWorkload, c *client) error {
	tr := r.tr
	r.tr = nil
	plain, err := w.pass(r, c, "plain")
	r.tr = tr
	if err != nil {
		return err
	}
	p, err := w.pass(r, c, "job")
	if err != nil {
		return err
	}
	if err := c.close(); err != nil {
		return err
	}
	r.set("trace.overhead_s", median(p.latency)-median(plain.latency))
	r.set("service.first_chunk_s.p50", median(p.firstChunk))
	r.set("service.batch_size_mean", mean(p.batchSize))
	r.set("service.batch_src_steps_per_s", median(p.srcStepsPerSec))
	r.set("service.cache_hit_ratio", float64(p.hits)/float64(p.hits+p.builds))
	r.set("service.cache_evictions", float64(p.evictions))
	r.set("loadgen.late_ms_max", p.lateMax)
	r.record["cache"] = map[string]int{"builds": p.builds, "hits": p.hits, "evictions": p.evictions}
	runtime.GC()

	// Layer probes on the major key: set-up layers, then one batch of
	// maxBatch catalog entries (the S>1 sweep) streamed in windows.
	cfg, err := service.DirectConfig(w.in.Catalog[0], r.workers)
	if err != nil {
		return err
	}
	sess, err := timeLayerSetup(r, cfg, cfg.Stations, "probe")
	if err != nil {
		return err
	}
	var scs []core.Scenario
	for e := 0; e < maxBatch; e++ {
		ecfg, err := service.DirectConfig(w.in.Catalog[e], r.workers)
		if err != nil {
			return err
		}
		scs = append(scs, core.Scenario{Name: fmt.Sprint(e), Event: ecfg.Event, Stations: ecfg.Stations})
	}
	win := &windows{name: scs[0].Stations[0].Name}
	t0 := time.Now()
	root := tr.add("solver.RunBatchStream", "probe", -1, t0, time.Time{})
	reps, err := sess.RunBatchStream(scs, probeWindow, win.onChunk)
	wall := time.Since(t0)
	tr.end(root)
	if err != nil {
		return err
	}
	for e, rep := range reps {
		var err error
		for _, st := range scs[e].Stations {
			got, want := rep.Result.Seismograms[st.Name], w.refs[e][st.Name]
			if got == nil || want == nil || !equal32(got.X, want.X) || !equal32(got.Y, want.Y) || !equal32(got.Z, want.Z) {
				err = fmt.Errorf("station %s differs from the direct run", st.Name)
			}
		}
		r.op(fmt.Sprintf("probe batch field %d", e), err)
	}
	ms := win.msPerStep(t0, probeWindow, jobSteps)
	prev := t0
	for i, m := range win.marks[:len(ms)] {
		tr.add(fmt.Sprintf("solver.window%02d", i), "probe", root, prev, m)
		prev = m
	}
	setSolverLayer(r, reps[0].Result, wall, ms)
	sp, err := poolSpeedup(r, cfg, scs[:1])
	if err != nil {
		return err
	}
	r.set("solver.pool_speedup", sp)
	return nil
}
