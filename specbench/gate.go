package main

import (
	"bytes"
	"embed"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"specglobe/internal/core"
	"specglobe/internal/solver"
	"specglobe/internal/stations"
)

// The globe correctness gate. Each globe run's seismograms must be
// finite and within refTol relative L2 (over all recorded traces of the
// run together) of reference traces. The references are combined from
// Green's functions stored in refs/, one file per globe workload: for
// each moment-tensor component k (Mrr, Mtt, Mpp, Mrt, Mrp, Mtp) of
// moment unitMoment at the hypocenter, for each station of
// stations.ReferenceStations in order, the X, Y and Z series of
// globeSteps little-endian float32 samples.
//
// refTol admits round-off-level changes: superposing the stored Green's
// functions, a different summation order or kernel variant, or
// flushing subnormals moves these traces by about 1e-6 relative. A
// broken solver moves them by O(1). The single-rate and LTS integrators
// differ from each other by about 3e-2, so each workload has its own
// references.
const refTol = 1e-3

//go:embed refs
var refFS embed.FS

// traces is one run's seismograms, per station the X, Y and Z series.
type traces [][3][]float32

// reference superposes a workload's stored Green's functions into the
// expected traces of a scenario at the hypocenter.
func reference(workload string, sc core.Scenario) (traces, error) {
	b, err := refFS.ReadFile("refs/" + workload + ".bin")
	if err != nil {
		return nil, err
	}
	ref := stations.ReferenceStations()
	series := 3 * globeSteps
	if want := 6 * len(ref) * series * 4; len(b) != want {
		return nil, fmt.Errorf("refs/%s.bin has %d bytes, want %d: regenerate with --write-refs", workload, len(b), want)
	}
	green := make([]float32, len(b)/4)
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, green); err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, st := range ref {
		index[st.Name] = i
	}
	m := momentComponents(sc.Event)
	out := make(traces, len(sc.Stations))
	for i, st := range sc.Stations {
		s, ok := index[st.Name]
		if !ok {
			return nil, fmt.Errorf("no reference for station %s", st.Name)
		}
		for c := 0; c < 3; c++ {
			sum := make([]float64, globeSteps)
			for k := range m {
				g := green[(k*len(ref)+s)*series+c*globeSteps:][:globeSteps]
				for j, v := range g {
					sum[j] += m[k] / unitMoment * float64(v)
				}
			}
			out[i][c] = make([]float32, globeSteps)
			for j, v := range sum {
				out[i][c][j] = float32(v)
			}
		}
	}
	return out, nil
}

// tracesOf extracts a run's seismograms in station order.
func tracesOf(seis map[string]*solver.Seismogram, sts []stations.Station) (traces, error) {
	out := make(traces, len(sts))
	for i, st := range sts {
		sg, ok := seis[st.Name]
		if !ok {
			return nil, fmt.Errorf("no seismogram for station %s", st.Name)
		}
		out[i] = [3][]float32{sg.X, sg.Y, sg.Z}
	}
	return out, nil
}

// relL2 is ||got - ref|| / ||ref|| over all traces together; +Inf when
// shapes differ or a sample is not finite.
func relL2(got, ref traces) float64 {
	if len(got) != len(ref) {
		return math.Inf(1)
	}
	var num, den float64
	for s := range ref {
		for c := 0; c < 3; c++ {
			g, r := got[s][c], ref[s][c]
			if len(g) != len(r) {
				return math.Inf(1)
			}
			for i := range r {
				if math.IsNaN(float64(g[i])) || math.IsInf(float64(g[i]), 0) {
					return math.Inf(1)
				}
				d := float64(g[i]) - float64(r[i])
				num += d * d
				den += float64(r[i]) * float64(r[i])
			}
		}
	}
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// checkGlobe is the gate: nil when got is finite and within refTol of
// ref.
func checkGlobe(got, ref traces) error {
	if e := relL2(got, ref); !(e <= refTol) {
		return fmt.Errorf("seismograms differ from the reference by %.3g relative L2 (tolerance %g)", e, refTol)
	}
	return nil
}

// writeReferences regenerates the Green's functions of both globe
// workloads into dir.
func writeReferences(dir string) error {
	ref := stations.ReferenceStations()
	for _, wl := range []struct {
		name string
		lts  bool
	}{{wGlobePREM, false}, {wGlobeLTS, true}} {
		sess, err := core.NewSession(globeConfig(wl.lts, runtime.NumCPU()))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		for k := 0; k < 6; k++ {
			ev := unitEvent(k)
			rep, err := sess.Run(core.Scenario{Name: ev.Name, Event: ev, Stations: ref})
			if err != nil {
				return fmt.Errorf("%s component %d: %w", wl.name, k, err)
			}
			tr, err := tracesOf(rep.Result.Seismograms, ref)
			if err != nil {
				return err
			}
			for _, st := range tr {
				for c := 0; c < 3; c++ {
					if err := binary.Write(&buf, binary.LittleEndian, st[c]); err != nil {
						return err
					}
				}
			}
			fmt.Fprintf(os.Stderr, "specbench: %s component %d done (%v)\n", wl.name, k, rep.SolverTime)
		}
		if err := os.WriteFile(filepath.Join(dir, wl.name+".bin"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
