package solver

import (
	"math"

	"specglobe/internal/earthmodel"
	"specglobe/internal/perf"
)

// underflowFloor is the magnitude below which the pointwise update
// loops (predictors, mass divisions, Coriolis/gravity/ocean terms,
// correctors) flush the dynamic values they store to exactly zero:
// 2^-100 ≈ 7.9e-31 in SI units (m, m/s, m/s² for the solid fields;
// kg/m and its time derivatives for the fluid potential). Float32
// arithmetic on subnormal operands runs 10-100x slower on common CPUs,
// and the numerical precursor ahead of a wavefront fills the field with
// values that underflow step after step; without the flush the cost of
// a step depends on the values in the wavefield. The floor sits ~20
// orders of magnitude below any recorded amplitude of a realistic
// event, and high enough that the force-kernel intermediates (strains
// ~1e-6 x the displacement at the coarsest mesh spacing) stay normal.
// See DESIGN.md "Underflow floor".
const underflowFloor = 0x1p-100

// floorBits is the float32 bit pattern of underflowFloor.
const floorBits = uint32(127-100) << 23

// flushTiny returns 0 for |x| < underflowFloor and x otherwise. It
// compares the magnitude bits (sign masked off) with the floor's; the
// bit patterns of non-negative float32 values order like the values, so
// values at or above the floor keep every bit including the sign, and
// NaN and ±Inf (all-ones exponent) compare above and pass through
// unchanged, so the stability check still sees them. The branch is
// taken for zeros and at a wavefront's leading edge, both spatially
// coherent, so it predicts well; measured on a 2-CPU x86-64 VM it costs
// about half what a branch-free sign-mask select does.
func flushTiny(x float32) float32 {
	if math.Float32bits(x)&0x7fffffff < floorBits {
		return 0
	}
	return x
}

// timeStep advances the coupled system by one explicit Newmark step:
//
//  1. predictor: u += dt v + dt^2/2 a;  v += dt/2 a;  a = 0 (both the
//     solid displacement and the fluid potential),
//  2. fluid: chiDdot = Mf^-1 (-K chi + coupling from the predicted
//     solid displacement), assembled across ranks,
//  3. solid: a = M^-1 (-K u + sources + fluid traction), assembled,
//     then the pointwise Coriolis / gravity / ocean-load corrections,
//  4. corrector: v += dt/2 a.
//
// Every pointwise loop of steps 1-4 (not the element force kernels)
// stores its dynamic values through flushTiny, so the displacement,
// velocity and acceleration a step leaves behind are never subnormal
// (see underflowFloor).
//
// Because the fluid acceleration is final before the solid uses it, the
// fluid-solid coupling needs no iteration (section 1: "non-iterative
// coupling between fluid and solid based on the displacement vector").
//
// The force stage runs one of two schedules: the stage-serial schedule
// (forceStageSerial — blocking or PR 1 overlap), or the pipelined
// coupling schedule (forceStagePipelined) that starts the solid outer
// sweep while the fluid halo is still in flight.
//
// The force kernels sweep their color classes on the shared worker
// pool (colors serialize, chunks within a color are conflict-free),
// and the pointwise predictor/mass-division/corrector loops dispatch
// as index ranges — every point is written independently, so both are
// bit-identical at any worker count. Coupling, source and ocean-load
// terms touch few points and stay inline on the rank goroutine.
// With local time stepping (Options.LTS) the step becomes one spoke of
// the cluster wheel: the firing level of the step (the largest power of
// two dividing the step number, capped at the max rate) selects which
// clusters run predictor/forces/corrector this step, each firing point
// advancing with its own rate-scaled dt. Dormant points are skipped by
// every pointwise loop and masked out of the halo payloads; their
// acceleration slots accumulate garbage from firing neighbors, which
// the predictor wipes at their next firing (see lts.go).
func (rs *rankState) timeStep(step int) {
	if rs.lts != nil {
		rs.lts.level = ltsLevelOf(step, rs.lts.levels)
	}
	rs.predictor()
	if rs.pipeline {
		rs.forceStagePipelined(step)
	} else {
		rs.forceStageSerial(step)
	}
	rs.solidUpdate()
	rs.corrector()
	if (step+1)%rs.opts.RecordEvery == 0 {
		rs.record(step)
		if rs.opts.OnChunk != nil {
			rs.flushChunks(false)
		}
	}
}

// predictor runs the Newmark prediction for every field: full-range
// without LTS (or for a single-rate region), per-rate firing lists with
// it. Every predictor writes its displacement and velocity (potential
// and its rate) through flushTiny — the loop already touches each
// entry once per step, so the underflow flush costs no memory pass.
func (rs *rankState) predictor() {
	dt := float32(rs.dt)
	half := dt / 2
	halfSq := dt * dt / 2
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		if pts := rs.ltsPts(kind); pts != nil && !pts.single {
			rs.solidPredictorLTS(fs, pts)
			continue
		}
		n := len(fs[0].dx)
		rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
			for _, f := range fs {
				for i := lo; i < hi; i++ {
					f.dx[i] = flushTiny(f.dx[i] + (dt*f.vx[i] + halfSq*f.ax[i]))
					f.dy[i] = flushTiny(f.dy[i] + (dt*f.vy[i] + halfSq*f.ay[i]))
					f.dz[i] = flushTiny(f.dz[i] + (dt*f.vz[i] + halfSq*f.az[i]))
					f.vx[i] = flushTiny(f.vx[i] + half*f.ax[i])
					f.vy[i] = flushTiny(f.vy[i] + half*f.ay[i])
					f.vz[i] = flushTiny(f.vz[i] + half*f.az[i])
					f.ax[i], f.ay[i], f.az[i] = 0, 0, 0
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.SolidPredictor*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.SolidPredictor*int64(n*len(fs)))
	}
	if fls := rs.fluid; fls != nil {
		if pts := rs.ltsPts(int(earthmodel.RegionOuterCore)); pts != nil && !pts.single {
			rs.fluidPredictorLTS(pts)
			return
		}
		n := len(fls[0].chi)
		rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
			for _, fl := range fls {
				for i := lo; i < hi; i++ {
					fl.chi[i] = flushTiny(fl.chi[i] + (dt*fl.chiDot[i] + halfSq*fl.chiDdot[i]))
					fl.chiDot[i] = flushTiny(fl.chiDot[i] + half*fl.chiDdot[i])
					fl.chiDdot[i] = 0
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidPredictor*int64(n*len(fls)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidPredictor*int64(n*len(fls)))
	}
}

// forceStageSerial runs the fluid stage to completion (forces,
// assembly, mass division), then the solid stage — the blocking and
// PR 1 overlap schedules. Within each stage the overlap schedule still
// hides that stage's halo behind its own inner elements.
func (rs *rankState) forceStageSerial(step int) {
	// --- Fluid stage ------------------------------------------------------
	//
	// With the overlap schedule (the paper's central scaling technique),
	// only the *outer* elements — those contributing to halo points —
	// are computed before the exchange is posted; the inner elements run
	// while the messages are in flight, and the received contributions
	// are accumulated afterwards. The coupling and source terms touch
	// boundary points and therefore always run before the post.
	if rs.fluid != nil {
		oc := int(earthmodel.RegionOuterCore)
		sw := rs.sweepsFor(oc)
		first, second := sw.full, [][]int32(nil)
		if rs.overlap {
			first, second = sw.outer, sw.inner
		}
		rs.computeFluidForces(first)
		rs.addFluidCoupling()
		fluidHalo := rs.beginAssembleScalarFields(oc, rs.fluidChiDdot)
		rs.computeFluidForces(second)
		fluidHalo.finish()
		if rs.fluidDeferred {
			// Only the coupling-face points must be final before the
			// traction; the rest divides under the solid halo.
			rs.fluidMassDivisionFace()
		} else {
			rs.fluidMassDivision()
		}
	} else {
		rs.nextTag() // keep the exchange sequence aligned
	}

	// --- Solid stage ------------------------------------------------------
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		sw := rs.sweepsFor(kind)
		first := sw.full
		if rs.overlap {
			first = sw.outer
		}
		rs.computeSolidForces(fs, first)
	}
	rs.addTractionAndSources(step)
	rs.finishSolidStage()
}

// forceStagePipelined interleaves the two stages: the fluid halo is
// posted as soon as the boundary-adjacent fluid elements (halo-outer
// and coupling-outer) are done, and the solid outer sweep plus the
// fluid inner sweep execute while that halo is in flight. The coupling
// only consumes fluid values on the CMB/ICB surfaces, and those are
// final right after the halo completes — the solid stage never needed
// the fully assembled fluid potential.
//
// Determinism: the per-point accumulation order is fixed in every
// window. Fluid chiDdot receives, in order: boundary-class elements
// (colors ascend, elements ascend within a color), the coupling term
// (face order), pipeInner-class elements (which share no point with a
// coupling face by construction), then the halo contributions in
// deterministic edge order. Solid accelerations receive outer-class
// elements, traction (face order), sources, inner-class elements, then
// halo edges — the same relative order as the serial overlap schedule,
// so traction-vs-force ordering per point is mode-invariant.
func (rs *rankState) forceStagePipelined(step int) {
	var fluidHalo *pendingExchange
	if rs.fluid != nil {
		oc := int(earthmodel.RegionOuterCore)
		// (a) boundary-adjacent fluid forces: every halo point *and*
		// every coupling point gets its full local element contribution.
		rs.computeFluidForces(rs.sweepsFor(oc).boundary)
		rs.addFluidCoupling()
		// (b) post the fluid halo.
		fluidHalo = rs.beginAssembleScalarFields(oc, rs.fluidChiDdot)
	} else {
		rs.nextTag() // keep the exchange sequence aligned
	}

	// (c) under the in-flight fluid halo: the solid outer force sweep
	// (no fluid dependency) and the remaining fluid elements (they
	// touch neither halo nor coupling points).
	for kind, fs := range rs.solid {
		if fs != nil {
			rs.computeSolidForces(fs, rs.sweepsFor(kind).outer)
		}
	}
	if rs.fluid != nil {
		oc := int(earthmodel.RegionOuterCore)
		rs.computeFluidForces(rs.sweepsFor(oc).pipeInner)
		// (d) wait for the boundary-touching fluid values, finalize the
		// potential, and only then couple it into the solid.
		fluidHalo.finish()
		if rs.fluidDeferred {
			rs.fluidMassDivisionFace()
		} else {
			rs.fluidMassDivision()
		}
	}
	rs.addTractionAndSources(step)
	rs.finishSolidStage()
}

// addFluidCoupling applies the fluid-side CMB/ICB coupling term from
// the predicted solid displacement.
func (rs *rankState) addFluidCoupling() {
	rs.prof.Time(perf.PhaseForceFluid, func() {
		rs.addSolidDisplacementToFluid(rs.local.CMB)
		rs.addSolidDisplacementToFluid(rs.local.ICB)
	})
}

// fluidMassDivision finalizes the fluid acceleration potential. All
// element, coupling and halo contributions must be in. Under LTS only
// the firing points are divided (the rest hold garbage that the next
// predictor wipes), and the traction shadow is refreshed.
func (rs *rankState) fluidMassDivision() {
	fls := rs.fluid
	var list []int32
	if pts := rs.ltsPts(int(earthmodel.RegionOuterCore)); pts != nil && !pts.single {
		list = pts.upTo[rs.lts.level]
	}
	if list == nil {
		n := len(fls[0].chiDdot)
		rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
			for _, fl := range fls {
				for i := lo; i < hi; i++ {
					fl.chiDdot[i] = flushTiny(fl.chiDdot[i] * fl.massInv[i])
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidMassDiv*int64(n*len(fls)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidMassDiv*int64(n*len(fls)))
	} else {
		rs.divideFluidList(list)
	}
	rs.refreshTractionShadow()
}

// fluidMassDivisionFace divides only the CMB/ICB coupling-face points —
// the values the solid traction consumes — so the remaining division
// can slide under the solid halo (fluidMassDivisionRest).
func (rs *rankState) fluidMassDivisionFace() {
	list := rs.fluidFace
	if lts := rs.lts; lts != nil && lts.faceUpTo != nil {
		list = lts.faceUpTo[lts.level]
	}
	rs.divideFluidList(list)
	rs.refreshTractionShadow()
}

// fluidMassDivisionRest divides the non-face fluid points; it runs
// inside finishSolidStage, under the in-flight solid halo.
func (rs *rankState) fluidMassDivisionRest() {
	list := rs.fluidRest
	if lts := rs.lts; lts != nil && lts.restUpTo != nil {
		list = lts.restUpTo[lts.level]
	}
	rs.divideFluidList(list)
}

// divideFluidList applies the inverse mass to a point list (all
// batched wavefields).
func (rs *rankState) divideFluidList(list []int32) {
	fls := rs.fluid
	if len(list) == 0 {
		return
	}
	rs.pool.sweepRange(rs.scr, len(list), &rs.updateBusy, func(lo, hi int) {
		for _, fl := range fls {
			for q := lo; q < hi; q++ {
				i := list[q]
				fl.chiDdot[i] = flushTiny(fl.chiDdot[i] * fl.massInv[i])
			}
		}
	})
	rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidMassDiv*int64(len(list)*len(fls)))
	rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidMassDiv*int64(len(list)*len(fls)))
}

// addTractionAndSources applies the boundary terms of the solid stage:
// the fluid pressure traction at the CMB/ICB (the fluid potential is
// final here in every schedule) and the source injection.
func (rs *rankState) addTractionAndSources(step int) {
	rs.prof.Time(perf.PhaseForceSolid, func() {
		rs.addFluidTractionToSolid(rs.local.CMB)
		rs.addFluidTractionToSolid(rs.local.ICB)
		rs.addSources(step)
	})
}

// finishSolidStage posts the solid halo exchange (every halo point's
// local contribution — outer forces, traction, sources — is fixed by
// now), runs the solid inner sweeps while it is in flight, and waits.
// The deferred fluid work — non-face mass division and the fluid
// corrector — also rides under the in-flight solid halo here: the halo
// only touches solid acceleration arrays, so the fluid update is free
// hiding material.
func (rs *rankState) finishSolidStage() {
	var solidHalo []*pendingExchange
	if rs.opts.CombinedSolidHalo {
		solidHalo = append(solidHalo, rs.beginAssembleSolidCombined())
	} else {
		for kind, fs := range rs.solid {
			if fs != nil {
				solidHalo = append(solidHalo, rs.beginAssembleAccelFields(kind, fs))
			} else if kind != int(earthmodel.RegionOuterCore) {
				// A solid region slot this rank does not carry (nil or
				// empty region): consume the tag so ranks that do carry
				// it stay sequence-aligned. Keyed on the region *kind*,
				// not the local mesh — Regions[kind] may be nil.
				rs.nextTag()
			}
		}
	}
	if rs.overlap {
		// Inner elements touch no halo point: they compute while the
		// boundary messages are in flight.
		for kind, fs := range rs.solid {
			if fs != nil {
				rs.computeSolidForces(fs, rs.sweepsFor(kind).inner)
			}
		}
	}
	if rs.fluidDeferred {
		rs.fluidMassDivisionRest()
		rs.fluidCorrector()
	}
	for _, p := range solidHalo {
		p.finish()
	}
}

// solidUpdate is the mass division plus the pointwise Coriolis and
// gravity corrections, fused into one range sweep per field, followed
// by the ocean load. Under LTS only the points firing at this step's
// level are updated; dormant accelerations keep their garbage until
// their own predictor wipes it.
func (rs *rankState) solidUpdate() {
	twoOmega := float32(0)
	if rs.opts.Rotation {
		twoOmega = float32(2 * rs.opts.RotationRate)
	}
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		var list []int32
		if pts := rs.ltsPts(kind); pts != nil && !pts.single {
			list = pts.upTo[rs.lts.level]
		}
		n := len(fs[0].ax)
		if list != nil {
			n = len(list)
			rs.pool.sweepRange(rs.scr, len(list), &rs.updateBusy, func(lo, hi int) {
				for _, f := range fs {
					for q := lo; q < hi; q++ {
						i := list[q]
						f.ax[i] = flushTiny(f.ax[i] * f.massInv[i])
						f.ay[i] = flushTiny(f.ay[i] * f.massInv[i])
						f.az[i] = flushTiny(f.az[i] * f.massInv[i])
						if twoOmega != 0 {
							f.ax[i] = flushTiny(f.ax[i] + twoOmega*f.vy[i])
							f.ay[i] = flushTiny(f.ay[i] - twoOmega*f.vx[i])
						}
						if f.gOverR != nil {
							ur := f.dx[i]*f.rhatX[i] + f.dy[i]*f.rhatY[i] + f.dz[i]*f.rhatZ[i]
							gr := f.gOverR[i]
							dg := f.dgdr[i]
							f.ax[i] = flushTiny(f.ax[i] - (gr*(f.dx[i]-ur*f.rhatX[i]) + dg*ur*f.rhatX[i]))
							f.ay[i] = flushTiny(f.ay[i] - (gr*(f.dy[i]-ur*f.rhatY[i]) + dg*ur*f.rhatY[i]))
							f.az[i] = flushTiny(f.az[i] - (gr*(f.dz[i]-ur*f.rhatZ[i]) + dg*ur*f.rhatZ[i]))
						}
					}
				}
			})
		} else {
			rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
				for _, f := range fs {
					for i := lo; i < hi; i++ {
						f.ax[i] = flushTiny(f.ax[i] * f.massInv[i])
						f.ay[i] = flushTiny(f.ay[i] * f.massInv[i])
						f.az[i] = flushTiny(f.az[i] * f.massInv[i])
					}
					// Coriolis: a -= 2 Omega x v with Omega = (0, 0, omega).
					// The lumped-mass form is exact pointwise because both the
					// force and the mass carry the same rho*JacW weights.
					if twoOmega != 0 {
						for i := lo; i < hi; i++ {
							f.ax[i] = flushTiny(f.ax[i] + twoOmega*f.vy[i])
							f.ay[i] = flushTiny(f.ay[i] - twoOmega*f.vx[i])
						}
					}
					// Background gravity (Cowling-style local term): the
					// linearized restoring tensor H = (g/r)(I - rhat rhat)
					// + (dg/dr) rhat rhat applied to the displacement.
					if f.gOverR != nil {
						for i := lo; i < hi; i++ {
							ur := f.dx[i]*f.rhatX[i] + f.dy[i]*f.rhatY[i] + f.dz[i]*f.rhatZ[i]
							gr := f.gOverR[i]
							dg := f.dgdr[i]
							f.ax[i] = flushTiny(f.ax[i] - (gr*(f.dx[i]-ur*f.rhatX[i]) + dg*ur*f.rhatX[i]))
							f.ay[i] = flushTiny(f.ay[i] - (gr*(f.dy[i]-ur*f.rhatY[i]) + dg*ur*f.rhatY[i]))
							f.az[i] = flushTiny(f.az[i] - (gr*(f.dz[i]-ur*f.rhatZ[i]) + dg*ur*f.rhatZ[i]))
						}
					}
				}
			})
		}
		flops := rs.fc.SolidMassDiv
		bytes := rs.bc.SolidMassDiv
		if twoOmega != 0 {
			flops += rs.fc.Coriolis
			bytes += rs.bc.Coriolis
		}
		if fs[0].gOverR != nil {
			flops += rs.fc.Gravity
			bytes += rs.bc.Gravity
		}
		rs.prof.AddFlops(perf.PhaseUpdate, flops*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, bytes*int64(n*len(fs)))
	}
	// Ocean load: rescale the normal component of the free-surface
	// acceleration by M/(M+Mw). Few points; inline.
	if rs.oceanFactor != nil {
		rs.prof.Time(perf.PhaseUpdate, func() {
			sl := &rs.local.Surface
			for _, cm := range rs.solid[earthmodel.RegionCrustMantle] {
				for i, pt := range sl.Pts {
					an := cm.ax[pt]*sl.Nx[i] + cm.ay[pt]*sl.Ny[i] + cm.az[pt]*sl.Nz[i]
					scale := an * (1 - rs.oceanFactor[i])
					cm.ax[pt] = flushTiny(cm.ax[pt] - scale*sl.Nx[i])
					cm.ay[pt] = flushTiny(cm.ay[pt] - scale*sl.Ny[i])
					cm.az[pt] = flushTiny(cm.az[pt] - scale*sl.Nz[i])
				}
			}
			rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.OceanPoint*int64(len(sl.Pts)*rs.ns))
			rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.OceanPoint*int64(len(sl.Pts)*rs.ns))
		})
	}
}

// corrector runs the Newmark correction for every field. The fluid
// correction is skipped here when it already ran under the solid halo
// (fluidDeferred, see finishSolidStage).
func (rs *rankState) corrector() {
	half := float32(rs.dt) / 2
	for kind, fs := range rs.solid {
		if fs == nil {
			continue
		}
		if pts := rs.ltsPts(kind); pts != nil && !pts.single {
			rs.solidCorrectorLTS(fs, pts)
			continue
		}
		n := len(fs[0].vx)
		rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
			for _, f := range fs {
				for i := lo; i < hi; i++ {
					f.vx[i] = flushTiny(f.vx[i] + half*f.ax[i])
					f.vy[i] = flushTiny(f.vy[i] + half*f.ay[i])
					f.vz[i] = flushTiny(f.vz[i] + half*f.az[i])
				}
			}
		})
		rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.SolidCorrector*int64(n*len(fs)))
		rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.SolidCorrector*int64(n*len(fs)))
	}
	if !rs.fluidDeferred {
		rs.fluidCorrector()
	}
}

// fluidCorrector runs the fluid Newmark correction. It is called from
// corrector in the blocking schedule, and from finishSolidStage —
// under the in-flight solid halo — when the fluid update is deferred.
// The fluid arrays are final after the full mass division either way,
// and the per-point arithmetic is identical, so moving it earlier does
// not change the values.
func (rs *rankState) fluidCorrector() {
	fls := rs.fluid
	if fls == nil {
		return
	}
	if pts := rs.ltsPts(int(earthmodel.RegionOuterCore)); pts != nil && !pts.single {
		rs.fluidCorrectorLTS(pts)
		return
	}
	half := float32(rs.dt) / 2
	n := len(fls[0].chiDot)
	rs.pool.sweepRange(rs.scr, n, &rs.updateBusy, func(lo, hi int) {
		for _, fl := range fls {
			for i := lo; i < hi; i++ {
				fl.chiDot[i] = flushTiny(fl.chiDot[i] + half*fl.chiDdot[i])
			}
		}
	})
	rs.prof.AddFlops(perf.PhaseUpdate, rs.fc.FluidCorrector*int64(n*len(fls)))
	rs.prof.AddBytes(perf.PhaseUpdate, rs.bc.FluidCorrector*int64(n*len(fls)))
}
