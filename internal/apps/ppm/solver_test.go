package ppm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestUniformStatePreserved(t *testing.T) {
	g := NewGrid(32, 32)
	g.InitUniform(1.0, 0.3, -0.2, 2.5)
	mass0 := g.TotalMass()
	for i := 0; i < 5; i++ {
		g.Step(g.CFL(0.4))
	}
	// A constant state is an exact solution: density must stay constant.
	for i, v := range g.Rho {
		if math.Abs(float64(v)-1.0) > 1e-4 {
			t.Fatalf("cell %d density drifted to %v", i, v)
		}
	}
	if math.Abs(g.TotalMass()-mass0) > 1e-3 {
		t.Fatalf("mass drifted %v -> %v", mass0, g.TotalMass())
	}
}

func TestSodTubeConservesAndStaysPositive(t *testing.T) {
	g := NewGrid(128, 8)
	g.InitSodX()
	mass0, e0 := g.TotalMass(), g.TotalEnergy()
	for i := 0; i < 30; i++ {
		dt := g.CFL(0.4)
		g.SweepX(dt) // pure 1-D problem
	}
	if g.MinDensity() <= 0 {
		t.Fatalf("density went non-positive: %v", g.MinDensity())
	}
	relMass := math.Abs(g.TotalMass()-mass0) / mass0
	relE := math.Abs(g.TotalEnergy()-e0) / e0
	// float32 storage: conservation to ~1e-4 is expected.
	if relMass > 1e-3 || relE > 1e-3 {
		t.Fatalf("conservation violated: mass %v energy %v", relMass, relE)
	}
	// The shock must have moved material: the profile is no longer the
	// initial step.
	moved := false
	for x := 0; x < g.NX; x++ {
		v := float64(g.Rho[4*g.NX+x])
		if v > 0.13 && v < 0.95 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no wave structure developed in Sod problem")
	}
}

func TestBlastConserves2D(t *testing.T) {
	g := NewGrid(48, 48)
	g.InitBlast(0)
	mass0, e0 := g.TotalMass(), g.TotalEnergy()
	for i := 0; i < 10; i++ {
		g.Step(g.CFL(0.4))
	}
	if g.MinDensity() <= 0 {
		t.Fatalf("negative density: %v", g.MinDensity())
	}
	if rel := math.Abs(g.TotalMass()-mass0) / mass0; rel > 1e-3 {
		t.Fatalf("mass error %v", rel)
	}
	if rel := math.Abs(g.TotalEnergy()-e0) / e0; rel > 1e-3 {
		t.Fatalf("energy error %v", rel)
	}
	// The blast wave must have propagated: ambient cells well outside the
	// initial hot region (radius 0.1 around the phase-0 center (0.5,0.7), checked beyond r=0.122)
	// get compressed above their initial density of 1.
	disturbed := false
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			fx := (float64(x) + 0.5) / float64(g.NX)
			fy := (float64(y) + 0.5) / float64(g.NY)
			dx, dy := fx-0.5, fy-0.7
			if dx*dx+dy*dy > 0.015 && float64(g.Rho[y*g.NX+x]) > 1.02 {
				disturbed = true
			}
		}
	}
	if !disturbed {
		t.Fatal("blast wave did not propagate into the ambient medium")
	}
}

func TestCFLPositiveAndStable(t *testing.T) {
	g := NewGrid(32, 32)
	g.InitBlast(1)
	dt := g.CFL(0.4)
	if dt <= 0 || dt > 1 {
		t.Fatalf("dt = %v", dt)
	}
	// Halving resolution doubles dt (same state).
	g2 := NewGrid(64, 64)
	g2.InitBlast(1)
	dt2 := g2.CFL(0.4)
	if dt2 >= dt {
		t.Fatalf("finer grid must have smaller dt: %v vs %v", dt2, dt)
	}
}

func TestPPMFacesLimiting(t *testing.T) {
	// A monotone profile must produce face values bounded by neighbors.
	n := 32
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i * i)
	}
	aL := make([]float64, n)
	aR := make([]float64, n)
	p := make([]float64, n+3)
	padPeriodic(p, a)
	ppmFaces(p, aL, aR)
	for i := 2; i < n-2; i++ {
		lo := math.Min(a[i-1], math.Min(a[i], a[i+1]))
		hi := math.Max(a[i-1], math.Max(a[i], a[i+1]))
		if aL[i] < lo-1e-9 || aL[i] > hi+1e-9 || aR[i] < lo-1e-9 || aR[i] > hi+1e-9 {
			t.Fatalf("cell %d: faces (%v,%v) escape [%v,%v]", i, aL[i], aR[i], lo, hi)
		}
	}
	// A local extremum must be flattened to the cell average.
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	b[10] = 5
	padPeriodic(p, b)
	ppmFaces(p, aL, aR)
	if aL[10] != b[10] || aR[10] != b[10] {
		t.Fatalf("extremum not flattened: %v %v", aL[10], aR[10])
	}
}

func TestHLLConsistency(t *testing.T) {
	// Identical left/right states give the exact physical flux.
	rho, mu, mv, e := 1.0, 0.5, -0.3, 2.0
	fr, fmu, fmv, fe := hll(rho, mu, mv, e, rho, mu, mv, e)
	u := mu / rho
	p := pressure(rho, mu, mv, e)
	if math.Abs(fr-mu) > 1e-12 {
		t.Fatalf("mass flux %v, want %v", fr, mu)
	}
	if math.Abs(fmu-(mu*u+p)) > 1e-12 {
		t.Fatalf("momentum flux %v", fmu)
	}
	if math.Abs(fmv-mv*u) > 1e-12 {
		t.Fatalf("transverse flux %v", fmv)
	}
	if math.Abs(fe-(e+p)*u) > 1e-12 {
		t.Fatalf("energy flux %v", fe)
	}
}

func TestGridTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for tiny grid")
		}
	}()
	NewGrid(2, 2)
}

func TestSweepSymmetry(t *testing.T) {
	// A blast at the center must stay x-symmetric under X sweeps.
	g := NewGrid(64, 8)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if x >= 28 && x < 36 {
				g.SetPrimitive(x, y, 2, 0, 0, 5)
			} else {
				g.SetPrimitive(x, y, 1, 0, 0, 1)
			}
		}
	}
	for i := 0; i < 8; i++ {
		g.SweepX(g.CFL(0.4))
	}
	for x := 0; x < g.NX/2; x++ {
		a := float64(g.Rho[x])
		b := float64(g.Rho[g.NX-1-x+(0)*g.NX])
		// Mirror about the center between cells 31 and 32.
		bm := float64(g.Rho[63-x])
		_ = b
		if math.Abs(a-bm) > 1e-3 {
			t.Fatalf("asymmetry at x=%d: %v vs %v", x, a, bm)
		}
	}
}

func TestCheckpointFormat(t *testing.T) {
	g := NewGrid(16, 16)
	g.InitUniform(1, 0, 0, 1)
	s := g.Checkpoint(3)
	if len(s) == 0 || s[len(s)-1] != '\n' {
		t.Fatalf("checkpoint = %q", s)
	}
}

// ppmFacesOracle is the modulo-indexed ppmFaces the padded one replaced,
// kept as the bit-identity oracle.
func ppmFacesOracle(a, aL, aR []float64) {
	n := len(a)
	at := func(i int) float64 { return a[((i%n)+n)%n] }
	for i := 0; i < n; i++ {
		face := (7.0/12.0)*(at(i)+at(i+1)) - (1.0/12.0)*(at(i-1)+at(i+2))
		aR[i] = face
		aL[(i+1)%n] = face
	}
	for i := 0; i < n; i++ {
		ai := a[i]
		l, r := aL[i], aR[i]
		if (r-ai)*(ai-l) <= 0 {
			l, r = ai, ai
		} else {
			d := r - l
			mid := ai - 0.5*(l+r)
			if d*mid > d*d/6 {
				l = 3*ai - 2*r
			}
			if -d*d/6 > d*mid {
				r = 3*ai - 2*l
			}
		}
		aL[i], aR[i] = l, r
	}
}

// sweep1DOracle is the allocating, modulo-wrapped sweep1D the scratch-
// owning one replaced. It reads only the strip's four variables.
func sweep1DOracle(s *state, dtdx float64) {
	n := len(s.rho)
	vars := [][]float64{s.rho, s.mu, s.mv, s.e}
	faceL := make([][]float64, 4)
	faceR := make([][]float64, 4)
	for v := 0; v < 4; v++ {
		faceL[v] = make([]float64, n)
		faceR[v] = make([]float64, n)
		ppmFacesOracle(vars[v], faceL[v], faceR[v])
	}
	fr := make([]float64, n)
	fmu := make([]float64, n)
	fmv := make([]float64, n)
	fe := make([]float64, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		rL := math.Max(faceR[0][i], 1e-12)
		rR := math.Max(faceL[0][j], 1e-12)
		fr[i], fmu[i], fmv[i], fe[i] = hll(
			rL, faceR[1][i], faceR[2][i], math.Max(faceR[3][i], 1e-12),
			rR, faceL[1][j], faceL[2][j], math.Max(faceL[3][j], 1e-12),
		)
	}
	for i := 0; i < n; i++ {
		im := (i - 1 + n) % n
		s.rho[i] -= dtdx * (fr[i] - fr[im])
		s.mu[i] -= dtdx * (fmu[i] - fmu[im])
		s.mv[i] -= dtdx * (fmv[i] - fmv[im])
		s.e[i] -= dtdx * (fe[i] - fe[im])
	}
}

// stepOracle is Grid.Step with a fresh strip per row or column and the
// oracle sweep.
func stepOracle(g *Grid, dt float64) {
	dx := 1.0 / float64(g.NX)
	for y := 0; y < g.NY; y++ {
		s := &state{rho: make([]float64, g.NX), mu: make([]float64, g.NX), mv: make([]float64, g.NX), e: make([]float64, g.NX)}
		base := y * g.NX
		for x := 0; x < g.NX; x++ {
			s.rho[x], s.mu[x] = float64(g.Rho[base+x]), float64(g.MX[base+x])
			s.mv[x], s.e[x] = float64(g.MY[base+x]), float64(g.E[base+x])
		}
		sweep1DOracle(s, dt/dx)
		for x := 0; x < g.NX; x++ {
			g.Rho[base+x], g.MX[base+x] = float32(s.rho[x]), float32(s.mu[x])
			g.MY[base+x], g.E[base+x] = float32(s.mv[x]), float32(s.e[x])
		}
	}
	dy := 1.0 / float64(g.NY)
	for x := 0; x < g.NX; x++ {
		s := &state{rho: make([]float64, g.NY), mu: make([]float64, g.NY), mv: make([]float64, g.NY), e: make([]float64, g.NY)}
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			s.rho[y], s.mu[y] = float64(g.Rho[i]), float64(g.MY[i])
			s.mv[y], s.e[y] = float64(g.MX[i]), float64(g.E[i])
		}
		sweep1DOracle(s, dt/dy)
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			g.Rho[i], g.MY[i] = float32(s.rho[y]), float32(s.mu[y])
			g.MX[i], g.E[i] = float32(s.mv[y]), float32(s.e[y])
		}
	}
}

// randomGrid builds an nx×ny grid (below NewGrid's minimum too) of random
// positive-density, positive-pressure cells.
func randomGrid(rng *rand.Rand, nx, ny int) *Grid {
	n := nx * ny
	g := &Grid{NX: nx, NY: ny, Rho: make([]float32, n), MX: make([]float32, n), MY: make([]float32, n), E: make([]float32, n)}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			g.SetPrimitive(x, y, 0.2+2*rng.Float64(), rng.Float64()-0.5, rng.Float64()-0.5, 0.1+3*rng.Float64())
		}
	}
	return g
}

func cloneGrid(g *Grid) *Grid {
	return &Grid{
		NX: g.NX, NY: g.NY,
		Rho: append([]float32(nil), g.Rho...),
		MX:  append([]float32(nil), g.MX...),
		MY:  append([]float32(nil), g.MY...),
		E:   append([]float32(nil), g.E...),
	}
}

// TestStepMatchesOracle steps random grids, including the 1- and 2-cell
// strips where a ghost cell wraps onto the strip itself, with Grid.Step
// and with the oracle, and requires every stored float to match bit for
// bit after every step. Each grid runs at 1 and at 2 workers; those with
// a side of 128 or more sweep in several chunks.
func TestStepMatchesOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 7, 128, 240, 480}
	rng := rand.New(rand.NewSource(1))
	for _, nx := range sizes {
		for _, ny := range sizes {
			t.Run(fmt.Sprintf("%dx%d", nx, ny), func(t *testing.T) {
				start := randomGrid(rng, nx, ny)
				for _, procs := range []int{1, 2} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						g, want := cloneGrid(start), cloneGrid(start)
						steps := 4
						if nx*ny > 10_000 {
							steps = 2
						}
						for step := 0; step < steps; step++ {
							dt := g.CFL(0.4)
							g.Step(dt)
							stepOracle(want, dt)
							for _, f := range []struct {
								name      string
								got, want []float32
							}{{"Rho", g.Rho, want.Rho}, {"MX", g.MX, want.MX}, {"MY", g.MY, want.MY}, {"E", g.E, want.E}} {
								for i := range f.want {
									if math.Float32bits(f.got[i]) != math.Float32bits(f.want[i]) {
										t.Fatalf("GOMAXPROCS=%d step %d: %s[%d] = %v, oracle %v", procs, step, f.name, i, f.got[i], f.want[i])
									}
								}
							}
						}
					}()
				}
			})
		}
	}
}

// TestStepAllocatesNothingWarm: once a grid has swept in both directions,
// its strips hold all the scratch a step needs.
func TestStepAllocatesNothingWarm(t *testing.T) {
	g := NewGrid(64, 32)
	g.InitBlast(0)
	dt := g.CFL(0.4)
	g.Step(dt)
	if allocs := testing.AllocsPerRun(5, func() { g.Step(dt) }); allocs != 0 {
		t.Fatalf("warm Step made %v allocations, want 0", allocs)
	}
}

// TestParallelStepAllocatesNothingWarm is TestStepAllocatesNothingWarm on
// a grid that sweeps in several chunks at 2 workers: each worker's strip
// is made before the sweep that first needs it.
func TestParallelStepAllocatesNothingWarm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := NewGrid(128, 128)
	g.InitBlast(0)
	dt := g.CFL(0.4)
	g.Step(dt)
	if allocs := testing.AllocsPerRun(5, func() { g.Step(dt) }); allocs != 0 {
		t.Fatalf("warm parallel Step made %v allocations, want 0", allocs)
	}
}
