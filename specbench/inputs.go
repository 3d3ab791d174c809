package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/earthmodel"
	"specglobe/internal/service"
	"specglobe/internal/stations"
)

// Every input the program sees is generated here from the --seed. The
// daemon workload generates its catalog and arrival schedule from the
// seed and computes its references at set-up. The globe workloads keep
// the hypocenter fixed and seed the moment tensor and the stations: the
// solver is linear in the moment tensor, so the reference seismograms
// of any seeded event are a combination of six stored Green's functions
// (refs/), one per moment-tensor component. The hypocenter is fixed
// because its depth sets the length of the step-cost transient (ROADMAP
// item 1): at the seed commit a 300-step solve of one mechanism took
// 31-34 s at 150 km depth and 25-26 s at 500 km.

// The globe mesh: PREM, NEX 8, one slice per chunk (6 ranks), doublings
// at 5200 and 3000 km radius, attenuation on, default kernel and halo
// schedule. globeSteps carries a run through the start-up transient of
// the step cost (about 220 steps on this mesh at the seed commit) into
// steady state. The hypocenter sits in the mantle 4.5 degrees from ANMO
// and 8 from PAS, so those stations record signal within the simulated
// window.
const (
	globeNex      = 8
	globeSteps    = 300
	globeStations = 3
	hypoLat       = 38.0
	hypoLon       = -110.0
	hypoDepth     = 400e3
	// unitMoment is the moment of each stored Green's function.
	unitMoment = 1e20
)

var (
	globeDoublings = []float64{5200e3, 3000e3}
	// nearStations record signal from the hypocenter within globeSteps.
	nearStations = []string{"ANMO", "PAS"}
)

func globeConfig(lts bool, workers int) core.Config {
	return core.Config{
		NexXi: globeNex, NProcXi: 1,
		Model:       earthmodel.NewPREM(),
		Steps:       globeSteps,
		Doublings:   globeDoublings,
		Attenuation: true,
		LTS:         lts,
		Workers:     workers,
	}
}

// globeInputs is the scenario a seed selects: a random double couple at
// the hypocenter, recorded at one near station and two other reference
// stations.
func globeInputs(seed uint64) core.Scenario {
	rng := rand.New(rand.NewPCG(seed, 2))
	ev := doubleCouple(core.Event{Name: "globe", LatDeg: hypoLat, LonDeg: hypoLon, DepthM: hypoDepth},
		rng.Float64()*360, 10+rng.Float64()*80, rng.Float64()*360-180)
	near := nearStations[rng.IntN(len(nearStations))]
	var sts, rest []stations.Station
	for _, st := range stations.ReferenceStations() {
		if st.Name == near {
			sts = append(sts, st)
		} else {
			rest = append(rest, st)
		}
	}
	for _, i := range rng.Perm(len(rest))[:globeStations-1] {
		sts = append(sts, rest[i])
	}
	return core.Scenario{Name: ev.Name, Event: ev, Stations: sts}
}

// momentComponents returns an event's moment tensor in the order of the
// stored Green's functions.
func momentComponents(ev core.Event) [6]float64 {
	return [6]float64{ev.Mrr, ev.Mtt, ev.Mpp, ev.Mrt, ev.Mrp, ev.Mtp}
}

// unitEvent is the event of Green's function k: component k alone, of
// moment unitMoment, at the hypocenter.
func unitEvent(k int) core.Event {
	var m [6]float64
	m[k] = unitMoment
	return core.Event{
		Name:   fmt.Sprintf("G%d", k),
		LatDeg: hypoLat, LonDeg: hypoLon, DepthM: hypoDepth,
		Mrr: m[0], Mtt: m[1], Mpp: m[2], Mrt: m[3], Mrp: m[4], Mtp: m[5],
	}
}

// doubleCouple returns ev with the moment tensor (moment 1e20 N m) of a
// double couple of the given strike, dip and rake in degrees, in the
// convention of Aki & Richards.
func doubleCouple(ev core.Event, strike, dip, rake float64) core.Event {
	const m0 = 1e20
	phi, delta, lambda := strike*math.Pi/180, dip*math.Pi/180, rake*math.Pi/180
	sd, cd := math.Sin(delta), math.Cos(delta)
	s2d, c2d := math.Sin(2*delta), math.Cos(2*delta)
	sl, cl := math.Sin(lambda), math.Cos(lambda)
	sp, cp := math.Sin(phi), math.Cos(phi)
	s2p, c2p := math.Sin(2*phi), math.Cos(2*phi)
	ev.Mrr = m0 * s2d * sl
	ev.Mtt = -m0 * (sd*cl*s2p + s2d*sl*sp*sp)
	ev.Mpp = m0 * (sd*cl*s2p - s2d*sl*cp*cp)
	ev.Mrt = -m0 * (cd*cl*cp + c2d*sl*sp)
	ev.Mrp = m0 * (cd*cl*sp - c2d*sl*cp)
	ev.Mtp = -m0 * (sd*cl*c2p + 0.5*s2d*sl*s2p)
	return ev
}

// randomEvent draws a double couple at an epicentral distance in
// [minDeg, maxDeg] from the anchor and a depth in [minDepth, maxDepth]
// (meters, inside the mantle).
func randomEvent(rng *rand.Rand, anchor stations.Station, minDeg, maxDeg, minDepth, maxDepth float64) core.Event {
	d := (minDeg + rng.Float64()*(maxDeg-minDeg)) * math.Pi / 180
	az := rng.Float64() * 2 * math.Pi
	lat1 := anchor.LatDeg * math.Pi / 180
	lon1 := anchor.LonDeg * math.Pi / 180
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(az))
	lon2 := lon1 + math.Atan2(math.Sin(az)*math.Sin(d)*math.Cos(lat1), math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	ev := core.Event{
		LatDeg: lat2 * 180 / math.Pi,
		LonDeg: math.Mod(lon2*180/math.Pi+540, 360) - 180,
		DepthM: minDepth + rng.Float64()*(maxDepth-minDepth),
	}
	return doubleCouple(ev, rng.Float64()*360, 10+rng.Float64()*80, rng.Float64()*360-180)
}

// The daemon workload: short jobs on two compatibility keys, arriving
// open-loop. Most jobs run on the earthlike NEX 4 mesh; a seeded
// minority runs on PREM NEX 4, and the daemon's memory budget holds only
// one of the two sessions, so key switches evict and rebuild.
//
// Jobs are 5 steps long, so per-job solver work is small and the
// window, batching, builds and streaming carry the latency, and a run
// holds enough jobs for a p90 with more than ten samples beyond it.
const (
	jobSteps = 5
	jobNex   = 4
	// jobRate is the arrival rate in jobs per second: the daemon is busy
	// (solving or building) about a quarter of the time at the seed
	// commit on a 2-CPU host. At half its capacity (12 jobs/s) half the
	// jobs queue, the median sits on the edge between queued and idle
	// arrivals, and it moved by 29% between seeds.
	jobRate = 5
	// minorityFrac is the share of jobs on the second key.
	minorityFrac = 0.15
	// Catalog sizes per key: arrivals draw their event and stations
	// from these entries, whose direct reference runs are computed at
	// set-up.
	majorEntries = 12
	minorEntries = 4
	maxBatch     = 4
)

// arrival is one job of the open-loop schedule.
type arrival struct {
	At    time.Duration // due time from the start of the schedule
	Entry int           // index into the daemon catalog
}

// daemonInputs is everything the daemon workload submits.
type daemonInputs struct {
	Catalog  []service.JobSpec // entries [0, majorEntries) are the major key
	Arrivals []arrival
}

// daemonSchedule generates the daemon catalog and a Poisson arrival
// schedule over the measured window. The arrival count is fixed at
// rate x window and the instants are sorted uniform draws: a Poisson
// process conditioned on its count, so seeds vary the pattern but not
// the load. The minority key gets a fixed share of the arrivals.
func daemonSchedule(seed uint64, window time.Duration) daemonInputs {
	rng := rand.New(rand.NewPCG(seed, 3))
	ref := stations.ReferenceStations()
	var in daemonInputs
	for i := 0; i < majorEntries+minorEntries; i++ {
		model := "earthlike"
		if i >= majorEntries {
			model = "prem"
		}
		p := rng.Perm(len(ref))
		ev := randomEvent(rng, ref[p[0]], 2, 20, 20e3, 600e3)
		in.Catalog = append(in.Catalog, service.JobSpec{
			Model: model, NexXi: jobNex, Steps: jobSteps,
			Event: &service.EventSpec{
				LatDeg: ev.LatDeg, LonDeg: ev.LonDeg, DepthM: ev.DepthM,
				Mrr: ev.Mrr, Mtt: ev.Mtt, Mpp: ev.Mpp, Mrt: ev.Mrt, Mrp: ev.Mrp, Mtp: ev.Mtp,
			},
			Stations: []service.StationSpec{{Name: ref[p[0]].Name}, {Name: ref[p[1]].Name}},
		})
	}
	n := int(math.Round(jobRate * window.Seconds()))
	if n < 1 {
		n = 1
	}
	minority := int(math.Round(minorityFrac * float64(n)))
	isMinor := make([]bool, n)
	for _, i := range rng.Perm(n)[:minority] {
		isMinor[i] = true
	}
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(at)
	for i := range at {
		e := rng.IntN(majorEntries)
		if isMinor[i] {
			e = majorEntries + rng.IntN(minorEntries)
		}
		in.Arrivals = append(in.Arrivals, arrival{At: time.Duration(at[i] * float64(time.Second)), Entry: e})
	}
	return in
}
