package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBench(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks that BENCHMARK.json uses only allowed names and
// units, and lists exactly the metrics and workloads the program emits.
func TestMetricNames(t *testing.T) {
	f := readBench(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var wl []string
	for _, w := range f.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || w.Why == "" {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, workloads)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", layer, perLayer)
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

// TestLayerMapping checks that metrics.json defines every metric and
// maps every per-layer metric to end-to-end metrics and workloads that
// exist in BENCHMARK.json.
func TestLayerMapping(t *testing.T) {
	f := readBench(t)
	b, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var defs struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]struct {
			Definition string      `json:"definition"`
			Targets    [][2]string `json:"targets"`
			NoMove     [][2]string `json:"no_move"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &defs); err != nil {
		t.Fatal(err)
	}
	e2e, wl := map[string]bool{}, map[string]bool{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
		if len(defs.EndToEnd[m.Name]) == 0 {
			t.Errorf("metrics.json does not define %s", m.Name)
		}
	}
	for _, w := range f.Workloads {
		wl[w.Name] = true
	}
	for _, m := range f.PerLayer {
		d, ok := defs.PerLayer[m.Name]
		if !ok || d.Definition == "" {
			t.Errorf("metrics.json does not define %s", m.Name)
			continue
		}
		if len(d.Targets) == 0 {
			t.Errorf("%s names no end-to-end metric to move", m.Name)
		}
		target := map[[2]string]bool{}
		for _, p := range d.Targets {
			target[p] = true
		}
		for _, p := range append(append([][2]string{}, d.Targets...), d.NoMove...) {
			if !e2e[p[0]] || !wl[p[1]] {
				t.Errorf("%s: pair %v names an unknown metric or workload", m.Name, p)
			}
		}
		for _, p := range d.NoMove {
			if target[p] {
				t.Errorf("%s: %v is both a target and a no-move pair", m.Name, p)
			}
		}
	}
	if len(defs.PerLayer) != len(f.PerLayer) {
		t.Errorf("metrics.json defines %d per-layer metrics, BENCHMARK.json lists %d", len(defs.PerLayer), len(f.PerLayer))
	}
}

// TestSeedDeterminism checks that a seed fixes every input: the globe
// stations, and the daemon catalog and arrival schedule.
func TestSeedDeterminism(t *testing.T) {
	stationSets := map[string]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		sc := globeInputs(seed)
		if !reflect.DeepEqual(sc, globeInputs(seed)) {
			t.Fatalf("seed %d: globe inputs differ between calls", seed)
		}
		if len(sc.Stations) != globeStations || sc.Event.DepthM != hypoDepth {
			t.Errorf("seed %d: %d stations, event %+v", seed, len(sc.Stations), sc.Event)
		}
		if momentComponents(sc.Event) == momentComponents(globeInputs(seed+1).Event) {
			t.Errorf("seeds %d and %d draw the same moment tensor", seed, seed+1)
		}
		stationSets[fmt.Sprint(sc.Stations)] = true
	}
	if len(stationSets) < 8 {
		t.Errorf("16 seeds draw only %d station sets", len(stationSets))
	}
	const window = 25 * time.Second
	a, b := daemonSchedule(7, window), daemonSchedule(7, window)
	if !reflect.DeepEqual(a, b) {
		t.Error("daemon schedule differs for the same seed")
	}
	if reflect.DeepEqual(a, daemonSchedule(8, window)) {
		t.Error("daemon schedule is the same for different seeds")
	}
	if n := len(a.Arrivals); n != int(math.Round(jobRate*window.Seconds())) {
		t.Errorf("%d arrivals, want rate x window", n)
	}
	minor := 0
	for i, arr := range a.Arrivals {
		if arr.At < 0 || arr.At >= window || (i > 0 && arr.At < a.Arrivals[i-1].At) {
			t.Errorf("arrival %d at %v out of order or window", i, arr.At)
		}
		if arr.Entry >= majorEntries {
			minor++
		}
	}
	if want := int(math.Round(minorityFrac * float64(len(a.Arrivals)))); minor != want {
		t.Errorf("%d minority-key arrivals, want %d", minor, want)
	}
}

// TestGateRejectsPerturbed checks the globe tolerance gate: the stored
// reference passes, round-off passes, and a perturbed trace fails.
func TestGateRejectsPerturbed(t *testing.T) {
	for _, wl := range []string{wGlobePREM, wGlobeLTS} {
		for e := uint64(1); e <= 4; e++ {
			ref, err := reference(wl, globeInputs(e))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkGlobe(ref, ref); err != nil {
				t.Errorf("%s seed %d: reference fails its own gate: %v", wl, e, err)
			}
			perturb := func(f func(s, c, i int, v float32) float32) traces {
				out := make(traces, len(ref))
				for s := range ref {
					for c := 0; c < 3; c++ {
						out[s][c] = make([]float32, len(ref[s][c]))
						for i, v := range ref[s][c] {
							out[s][c][i] = f(s, c, i, v)
						}
					}
				}
				return out
			}
			if err := checkGlobe(perturb(func(_, _, _ int, v float32) float32 { return v * (1 + 1e-6) }), ref); err != nil {
				t.Errorf("%s seed %d: round-off rejected: %v", wl, e, err)
			}
			bad := map[string]traces{
				"scaled by 1.01": perturb(func(_, _, _ int, v float32) float32 { return v * 1.01 }),
				"anchor x negated": perturb(func(s, c, _ int, v float32) float32 {
					if s == 0 && c == 0 {
						return -v
					}
					return v
				}),
				"one NaN": perturb(func(s, c, i int, v float32) float32 {
					if s == 2 && c == 1 && i == 7 {
						return float32(math.NaN())
					}
					return v
				}),
				"zeros": perturb(func(_, _, _ int, _ float32) float32 { return 0 }),
				"delayed a step": perturb(func(s, c, i int, v float32) float32 {
					if i == 0 {
						return 0
					}
					return ref[s][c][i-1]
				}),
			}
			for what, got := range bad {
				if checkGlobe(got, ref) == nil {
					t.Errorf("%s seed %d: gate accepted a trace %s", wl, e, what)
				}
			}
			short := perturb(func(_, _, _ int, v float32) float32 { return v })
			short[1][2] = short[1][2][:len(short[1][2])-1]
			if checkGlobe(short, ref) == nil {
				t.Errorf("%s seed %d: gate accepted a truncated trace", wl, e)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{40: 75, 50: 80, 100: 90, 200: 95, 1000: 99, 20: 50, 5: 100} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

// TestSegmentMedian checks that a per-part figure is the median over
// the parts, so a burst confined to one part does not set it.
func TestSegmentMedian(t *testing.T) {
	xs := make([]float64, 175)
	for i := range xs {
		xs[i] = float64(i % 58)
	}
	for i := 0; i < 58; i++ {
		xs[i] += 100 // a slow first third
	}
	if got, want := segmentMedian(xs, 3, tail), quantile(xs[58:116], 0.8); got != want {
		t.Errorf("tail over thirds = %g, want the middle third's p80 %g", got, want)
	}
	if got, want := segmentMedian(xs, 3, median), median(xs[58:116]); got != want {
		t.Errorf("median over thirds = %g, want the middle third's median %g", got, want)
	}
	if got, want := segmentMedian(xs[:2], 3, tail), median(xs[:2]); got != want {
		t.Errorf("tail over 2 samples = %g, want their median %g", got, want)
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("service.job", "j", -1, at(0), at(10))
	tr.add("solver.a", "j", root, at(2), at(5))
	tr.add("solver.b", "j", root, at(4), at(7))
	tr.add("solver.c", "j", root, at(9), at(12)) // clipped to the parent
	self := tr.selfTimes()
	if got := self["service"]; math.Abs(got-0.004) > 1e-9 {
		t.Errorf("service self time %g s, want 0.004", got)
	}
	if got := self["solver"]; math.Abs(got-0.009) > 1e-9 {
		t.Errorf("solver self time %g s, want 0.009", got)
	}
}
