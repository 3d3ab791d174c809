package solver

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mpi"
)

// flushTiny's contract: values below the floor (subnormals included)
// become +0, values at or above it keep every bit including the sign,
// and NaN and ±Inf pass through so the stability check still trips.
func TestFlushTiny(t *testing.T) {
	if got := math.Float32bits(underflowFloor); got != floorBits {
		t.Fatalf("floorBits = %#x, want the bits of underflowFloor %#x", floorBits, got)
	}
	below := math.Nextafter32(underflowFloor, 0)
	inf := float32(math.Inf(1))
	cases := []struct{ in, want float32 }{
		{below, 0},
		{-below, 0},
		{underflowFloor / 2, 0},
		{0x1p-126, 0}, // smallest normal
		{math.SmallestNonzeroFloat32, 0},
		{-math.SmallestNonzeroFloat32, 0},
		{0, 0},
		{underflowFloor, underflowFloor},
		{-underflowFloor, -underflowFloor},
		{math.Nextafter32(underflowFloor, 1), math.Nextafter32(underflowFloor, 1)},
		{-3.25e-20, -3.25e-20},
		{1, 1},
		{-math.MaxFloat32, -math.MaxFloat32},
		{inf, inf},
		{-inf, -inf},
	}
	for _, c := range cases {
		if got := flushTiny(c.in); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("flushTiny(%g) = %g (%#x), want %g (%#x)",
				c.in, got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
	}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001} {
		nan := math.Float32frombits(bits)
		if got := math.Float32bits(flushTiny(nan)); got != bits {
			t.Errorf("flushTiny(NaN %#x) = %#x, want unchanged", bits, got)
		}
	}
}

// namedArray is one stored dynamic array of a rank, labeled for
// failure reports.
type namedArray struct {
	name string
	a    []float32
}

// dynamicArrays lists every float32 array a rank carries from one step
// to the next: solid displacement, velocity and acceleration, the
// attenuation memory variables and the LTS acceleration holds per
// solid field; the fluid potential, its two rates, its holds and the
// traction shadow per fluid field.
func dynamicArrays(rs *rankState) []namedArray {
	var out []namedArray
	add := func(name string, a []float32) { out = append(out, namedArray{name, a}) }
	for kind, fs := range rs.solid {
		for s, f := range fs {
			tag := fmt.Sprintf("solid%d/f%d/", kind, s)
			add(tag+"dx", f.dx)
			add(tag+"dy", f.dy)
			add(tag+"dz", f.dz)
			add(tag+"vx", f.vx)
			add(tag+"vy", f.vy)
			add(tag+"vz", f.vz)
			add(tag+"ax", f.ax)
			add(tag+"ay", f.ay)
			add(tag+"az", f.az)
			if f.att != nil {
				for m := range f.att.r {
					for c := range f.att.r[m] {
						add(fmt.Sprintf("%satt.r[%d][%d]", tag, m, c), f.att.r[m][c])
					}
				}
			}
			for li := range f.hx {
				add(fmt.Sprintf("%shx[%d]", tag, li), f.hx[li])
				add(fmt.Sprintf("%shy[%d]", tag, li), f.hy[li])
				add(fmt.Sprintf("%shz[%d]", tag, li), f.hz[li])
			}
		}
	}
	for s, fl := range rs.fluid {
		tag := fmt.Sprintf("fluid/f%d/", s)
		add(tag+"chi", fl.chi)
		add(tag+"chiDot", fl.chiDot)
		add(tag+"chiDdot", fl.chiDdot)
		for li := range fl.hChi {
			add(fmt.Sprintf("%shChi[%d]", tag, li), fl.hChi[li])
		}
		add(tag+"accHold", fl.accHold)
	}
	return out
}

// countSubnormal counts the float32 subnormals of a (zero exponent
// field, non-zero mantissa).
func countSubnormal(a []float32) int {
	n := 0
	for _, v := range a {
		b := math.Float32bits(v)
		if b&0x7f800000 == 0 && b&0x007fffff != 0 {
			n++
		}
	}
	return n
}

// stepScanSubnormals steps sim the way Run does and, after every step,
// scans every rank's dynamic arrays for subnormals. It returns one
// line per array that ever held any (first step and count there) and
// the names of the arrays scanned on rank 0.
func stepScanSubnormals(t *testing.T, sim *Simulation, ns int) ([]string, string) {
	t.Helper()
	opts := sim.Opts.withDefaults()
	dt := stableDt(sim.Locals, opts.Courant)
	fit, err := attenuationFit(&opts, dt)
	if err != nil {
		t.Fatal(err)
	}
	var grav *earthmodel.GravityProfile
	if opts.Gravity {
		grav = earthmodel.NewGravityProfile(sim.Model, 2000)
	}
	world := mpi.NewWorldWith(len(sim.Locals), opts.Network)
	p := newPool(opts.Workers, opts.Kernel, ns)
	defer p.close()
	var mu sync.Mutex
	var found []string
	var scanned string
	world.Run(func(c *mpi.Comm) {
		rs := newRankState(c, sim, &opts, dt, fit, grav, p, ns)
		rs.assembleMass()
		arrays := dynamicArrays(rs)
		if c.Rank() == 0 {
			for _, na := range arrays {
				if na.a != nil {
					scanned += na.name + " "
				}
			}
		}
		seen := make([]bool, len(arrays))
		for step := 0; step < opts.Steps; step++ {
			rs.timeStep(step)
			for i, na := range arrays {
				if n := countSubnormal(na.a); n > 0 && !seen[i] {
					seen[i] = true
					mu.Lock()
					found = append(found, fmt.Sprintf("rank %d %s: %d subnormals after step %d",
						c.Rank(), na.name, n, step+1))
					mu.Unlock()
				}
			}
		}
	})
	return found, scanned
}

// wantArrays names arrays the subnormal scan must reach on rank 0 of
// the doubled globe, which carries all three regions.
func wantArrays(lts bool) []string {
	want := []string{"solid0/f0/dx", "solid0/f0/ax", "solid0/f0/att.r[0][0]", "fluid/f0/chiDdot"}
	if lts {
		want = append(want, "hx[1]", "hChi[1]", "fluid/f0/accHold")
	}
	return want
}

// The cost of a step must not depend on the values in the wavefield:
// float32 arithmetic on subnormal operands is many times slower, and
// the numerical precursor ahead of a wavefront once filled the stored
// fields with them for the first ~50 steps of every globe run. Step the
// doubled globe with attenuation (plus rotation and gravity, whose
// pointwise terms also write the acceleration) through that transient
// under the single-rate integrator and the cluster wheel, one and two
// batched wavefields, and require that no stored dynamic array ever
// holds a subnormal.
func TestNoSubnormalsThroughTransient(t *testing.T) {
	g, model := ltsGlobe(t)
	for _, lts := range []bool{false, true} {
		for _, ns := range []int{1, 2} {
			name := fmt.Sprintf("lts=%v/S=%d", lts, ns)
			t.Run(name, func(t *testing.T) {
				srcs, recvs := batchGlobeSources(t, g, ns)
				sim := &Simulation{
					Locals: g.Locals, Plans: g.Plans, Model: model,
					Sources: srcs, Receivers: recvs,
					Opts: Options{
						Steps: 40, Workers: 2, LTS: lts,
						Attenuation: true, Rotation: true, Gravity: true,
					},
				}
				found, names := stepScanSubnormals(t, sim, ns)
				// The scan must reach the memory variables and, under
				// LTS, the holds, or it proves nothing about them.
				for _, want := range wantArrays(lts) {
					if !strings.Contains(names, want) {
						t.Fatalf("no %q array scanned on rank 0", want)
					}
				}
				for _, f := range found {
					t.Error(f)
				}
			})
		}
	}
}
