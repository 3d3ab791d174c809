package meshfem

import (
	"math"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/mesh"
)

// An inverse-Jacobian entry whose true value is zero must be stored as
// exactly zero, not as float64 cofactor round-off: a residue ~1e-19 of
// its point's largest entry turns every product with a small gradient
// into a float32 subnormal in the force kernels. Build the benchmark
// globe (PREM, NEX 8, doublings at 5200 and 3000 km, so the shell, both
// doubling templates and the central cube all pass through fillElement)
// and require every stored entry of all three regions to be exactly 0
// or at least jacobianResidueRel of its point's largest entry.
func TestInverseJacobianResidueSnapped(t *testing.T) {
	g, err := Build(Config{NexXi: 8, NProcXi: 1, Model: earthmodel.NewPREM(), Doublings: testDoublings})
	if err != nil {
		t.Fatal(err)
	}
	var bad, zero, total [3]int
	for _, l := range g.Locals {
		for kind, r := range l.Regions {
			rows := [9][]float32{r.Xix, r.Xiy, r.Xiz, r.Etax, r.Etay, r.Etaz, r.Gamx, r.Gamy, r.Gamz}
			for ip := 0; ip < r.NSpec*mesh.NGLL3; ip++ {
				largest := 0.0
				for _, a := range rows {
					largest = math.Max(largest, math.Abs(float64(a[ip])))
				}
				for _, a := range rows {
					v := math.Abs(float64(a[ip]))
					total[kind]++
					switch {
					case v == 0:
						zero[kind]++
					case v < jacobianResidueRel*largest:
						bad[kind]++
					}
				}
			}
		}
	}
	for kind := range total {
		region := earthmodel.Region(kind)
		t.Logf("%v: %d entries, %d exactly zero, %d residue", region, total[kind], zero[kind], bad[kind])
		if total[kind] == 0 {
			t.Errorf("%v: no entries checked", region)
		}
		if bad[kind] != 0 {
			t.Errorf("%v: %d of %d inverse-Jacobian entries are round-off residue below 2^-40 of their point's largest entry",
				region, bad[kind], total[kind])
		}
	}
}
