// Package ppm implements the piecewise parabolic method astrophysics
// workload: a 2-D compressible Euler solver on structured, logically
// rectangular grids (four 240×480 grids per processor in the study), of the
// kind used for supernova explosion and accretion-flow simulations.
//
// The solver is a genuine finite-volume scheme with dimensionally split
// sweeps: piecewise parabolic (PPM) interface reconstruction with the
// standard monotonicity limiter, and an HLL Riemann flux in place of the
// original characteristic tracing (documented substitution — the memory and
// compute structure per sweep is the same).
package ppm

import (
	"fmt"
	"math"

	"essio/internal/apps/par"
)

// Gamma is the ratio of specific heats for the ideal-gas law.
const Gamma = 1.4

// Grid holds conserved variables (density, x/y momentum, total energy) on
// an NX×NY mesh, stored row-major with float32 like the REAL*4 production
// codes of the era.
type Grid struct {
	NX, NY int
	Rho    []float32
	MX     []float32
	MY     []float32
	E      []float32

	// sx and sy hold each sweep worker's strip for the X and Y sweeps,
	// made before the first sweep that needs them and reused by every
	// later one, so a warm Step allocates nothing.
	sx, sy []*state
	// rows and cols are sweepRows and sweepCols bound to the grid once,
	// for the same reason; dtdx is the running sweep's dt/dx, which they
	// read.
	rows, cols func(worker, lo, hi int)
	dtdx       float64
}

// NewGrid allocates a grid.
func NewGrid(nx, ny int) *Grid {
	if nx < 8 || ny < 8 {
		panic("ppm: grid too small")
	}
	n := nx * ny
	return &Grid{
		NX: nx, NY: ny,
		Rho: make([]float32, n),
		MX:  make([]float32, n),
		MY:  make([]float32, n),
		E:   make([]float32, n),
	}
}

func (g *Grid) idx(x, y int) int { return y*g.NX + x }

// SetPrimitive sets one cell from primitive variables (ρ, vx, vy, p).
func (g *Grid) SetPrimitive(x, y int, rho, vx, vy, p float64) {
	i := g.idx(x, y)
	g.Rho[i] = float32(rho)
	g.MX[i] = float32(rho * vx)
	g.MY[i] = float32(rho * vy)
	g.E[i] = float32(p/(Gamma-1) + 0.5*rho*(vx*vx+vy*vy))
}

// InitBlast fills the grid with a dense hot circular region in an ambient
// medium — the non-spherical accretion / nova outburst class of problem.
// phase shifts the blast center so different grids hold different data.
func (g *Grid) InitBlast(phase float64) {
	cx := 0.5 + 0.2*math.Sin(phase)
	cy := 0.5 + 0.2*math.Cos(phase)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			fx := (float64(x) + 0.5) / float64(g.NX)
			fy := (float64(y) + 0.5) / float64(g.NY)
			dx, dy := fx-cx, fy-cy
			r2 := dx*dx + dy*dy
			if r2 < 0.01 {
				g.SetPrimitive(x, y, 4.0, 0, 0, 10.0)
			} else {
				g.SetPrimitive(x, y, 1.0, 0, 0, 0.1)
			}
		}
	}
}

// InitUniform fills the grid with a constant state (testing).
func (g *Grid) InitUniform(rho, vx, vy, p float64) {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			g.SetPrimitive(x, y, rho, vx, vy, p)
		}
	}
}

// InitSodX sets a Sod shock tube along x, mirrored so periodic boundaries
// conserve exactly: left state in the middle half, right state outside.
func (g *Grid) InitSodX() {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if x >= g.NX/4 && x < 3*g.NX/4 {
				g.SetPrimitive(x, y, 1.0, 0, 0, 1.0)
			} else {
				g.SetPrimitive(x, y, 0.125, 0, 0, 0.1)
			}
		}
	}
}

// TotalMass returns the summed density (cell volume 1).
func (g *Grid) TotalMass() float64 {
	var s float64
	for _, v := range g.Rho {
		s += float64(v)
	}
	return s
}

// TotalEnergy returns the summed total energy.
func (g *Grid) TotalEnergy() float64 {
	var s float64
	for _, v := range g.E {
		s += float64(v)
	}
	return s
}

// MaxDensity returns the peak density.
func (g *Grid) MaxDensity() float64 {
	var m float64
	for _, v := range g.Rho {
		if float64(v) > m {
			m = float64(v)
		}
	}
	return m
}

// MinDensity returns the minimum density (positivity checks).
func (g *Grid) MinDensity() float64 {
	m := math.Inf(1)
	for _, v := range g.Rho {
		if float64(v) < m {
			m = float64(v)
		}
	}
	return m
}

// CFL returns a stable time step for the current state (dx = 1/NX).
func (g *Grid) CFL(cfl float64) float64 {
	maxSpeed := 1e-12
	for i := range g.Rho {
		rho := float64(g.Rho[i])
		if rho <= 0 {
			continue
		}
		vx := float64(g.MX[i]) / rho
		vy := float64(g.MY[i]) / rho
		p := pressure(rho, float64(g.MX[i]), float64(g.MY[i]), float64(g.E[i]))
		if p <= 0 {
			continue
		}
		c := math.Sqrt(Gamma * p / rho)
		if s := math.Abs(vx) + c; s > maxSpeed {
			maxSpeed = s
		}
		if s := math.Abs(vy) + c; s > maxSpeed {
			maxSpeed = s
		}
	}
	dx := 1.0 / float64(g.NX)
	return cfl * dx / maxSpeed
}

func pressure(rho, mx, my, e float64) float64 {
	return (Gamma - 1) * (e - 0.5*(mx*mx+my*my)/rho)
}

// state is a 1-D strip of conserved variables used by the sweeps, with
// the scratch sweep1D works in.
type state struct {
	rho, mu, mv, e   []float64 // mu = momentum along the sweep, mv transverse
	pad              []float64 // one variable with ghost cells (see padPeriodic)
	faceL, faceR     [4][]float64
	fr, fmu, fmv, fe []float64 // flux through the right face of each cell
}

func newState(n int) *state {
	f := func() []float64 { return make([]float64, n) }
	return &state{
		rho: f(), mu: f(), mv: f(), e: f(),
		fr: f(), fmu: f(), fmv: f(), fe: f(),
		pad:   make([]float64, n+3),
		faceL: [4][]float64{f(), f(), f(), f()},
		faceR: [4][]float64{f(), f(), f(), f()},
	}
}

// padPeriodic copies the n cells of a into p[1:n+1] and fills the periodic
// ghost cells around them, so p[k] = a[(k-1) mod n] for k in [0, n+3):
// the one cell before and the two after that ppmFaces' stencil reads.
func padPeriodic(p, a []float64) {
	n := len(a)
	copy(p[1:], a)
	p[0] = a[n-1]
	p[n+1] = a[0]
	p[n+2] = a[1%n]
}

// ppmFaces computes limited parabolic interface values for one variable:
// left and right face values per cell (periodic). p is the variable padded
// by padPeriodic; aL and aR receive one value per cell.
func ppmFaces(p, aL, aR []float64) {
	n := len(aL)
	// Fourth-order interface interpolation; cell i is p[i+1].
	for i := 0; i < n; i++ {
		face := (7.0/12.0)*(p[i+1]+p[i+2]) - (1.0/12.0)*(p[i]+p[i+3])
		aR[i] = face // right face of cell i
		j := i + 1
		if j == n {
			j = 0
		}
		aL[j] = face // left face of cell i+1
	}
	// PPM monotonicity limiting (Colella & Woodward 1984, eq. 1.10).
	for i := 0; i < n; i++ {
		ai := p[i+1]
		l, r := aL[i], aR[i]
		if (r-ai)*(ai-l) <= 0 {
			l, r = ai, ai // local extremum: flatten
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

// hll computes the HLL flux between left/right conserved states for the
// 1-D Euler equations (sweep-aligned momentum mu, transverse mv).
func hll(rL, muL, mvL, eL, rR, muR, mvR, eR float64) (fr, fmu, fmv, fe float64) {
	flux := func(r, mu, mv, e float64) (float64, float64, float64, float64) {
		u := mu / r
		p := pressure(r, mu, mv, e)
		return mu, mu*u + p, mv * u, (e + p) * u
	}
	uL, uR := muL/rL, muR/rR
	pL := math.Max(pressure(rL, muL, mvL, eL), 1e-12)
	pR := math.Max(pressure(rR, muR, mvR, eR), 1e-12)
	cL := math.Sqrt(Gamma * pL / rL)
	cR := math.Sqrt(Gamma * pR / rR)
	sL := math.Min(uL-cL, uR-cR)
	sR := math.Max(uL+cL, uR+cR)
	fLr, fLmu, fLmv, fLe := flux(rL, muL, mvL, eL)
	fRr, fRmu, fRmv, fRe := flux(rR, muR, mvR, eR)
	switch {
	case sL >= 0:
		return fLr, fLmu, fLmv, fLe
	case sR <= 0:
		return fRr, fRmu, fRmv, fRe
	default:
		inv := 1 / (sR - sL)
		fr = (sR*fLr - sL*fRr + sL*sR*(rR-rL)) * inv
		fmu = (sR*fLmu - sL*fRmu + sL*sR*(muR-muL)) * inv
		fmv = (sR*fLmv - sL*fRmv + sL*sR*(mvR-mvL)) * inv
		fe = (sR*fLe - sL*fRe + sL*sR*(eR-eL)) * inv
		return
	}
}

// sweep1D advances one strip by dt with cell size dx (periodic boundaries).
func sweep1D(s *state, dtdx float64) {
	n := len(s.rho)
	// Reconstruct each variable.
	for v, a := range [4][]float64{s.rho, s.mu, s.mv, s.e} {
		padPeriodic(s.pad, a)
		ppmFaces(s.pad, s.faceL[v], s.faceR[v])
	}
	// Interface fluxes: between cell i and i+1 use cell i's right face
	// and cell i+1's left face.
	faceL, faceR := &s.faceL, &s.faceR
	fr, fmu, fmv, fe := s.fr, s.fmu, s.fmv, s.fe
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		rL := math.Max(faceR[0][i], 1e-12)
		rR := math.Max(faceL[0][j], 1e-12)
		fr[i], fmu[i], fmv[i], fe[i] = hll(
			rL, faceR[1][i], faceR[2][i], math.Max(faceR[3][i], 1e-12),
			rR, faceL[1][j], faceL[2][j], math.Max(faceL[3][j], 1e-12),
		)
	}
	// Conservative update.
	for i := 0; i < n; i++ {
		im := i - 1
		if im < 0 {
			im = n - 1
		}
		s.rho[i] -= dtdx * (fr[i] - fr[im])
		s.mu[i] -= dtdx * (fmu[i] - fmu[im])
		s.mv[i] -= dtdx * (fmv[i] - fmv[im])
		s.e[i] -= dtdx * (fe[i] - fe[im])
	}
}

// sweepCells is the work, in cells, of one chunk of a sweep's rows or
// columns: about 0.5 ms on a 2-vCPU Xeon host. A sweep over at most this
// many cells runs on the calling goroutine alone.
const sweepCells = 4096

// sweepGrain is how many strips of n cells make one chunk.
func sweepGrain(n int) int { return max(1, sweepCells/n) }

// strips returns ss grown to hold a strip of n cells for each of workers
// workers, making the missing ones.
func strips(ss []*state, workers, n int) []*state {
	for len(ss) < workers {
		ss = append(ss, newState(n))
	}
	return ss
}

// SweepX advances every row by dt. Rows are independent, so they are
// spread over par.For's workers, each sweeping with its own strip.
func (g *Grid) SweepX(dt float64) {
	dx := 1.0 / float64(g.NX)
	grain := sweepGrain(g.NX)
	g.sx = strips(g.sx, par.Workers(g.NY, grain), g.NX)
	if g.rows == nil {
		g.rows = g.sweepRows
	}
	g.dtdx = dt / dx
	par.For(0, g.NY, grain, g.rows)
}

// sweepRows sweeps rows [lo, hi) with worker w's strip.
func (g *Grid) sweepRows(w, lo, hi int) {
	s := g.sx[w]
	for y := lo; y < hi; y++ {
		base := y * g.NX
		for x := 0; x < g.NX; x++ {
			s.rho[x] = float64(g.Rho[base+x])
			s.mu[x] = float64(g.MX[base+x])
			s.mv[x] = float64(g.MY[base+x])
			s.e[x] = float64(g.E[base+x])
		}
		sweep1D(s, g.dtdx)
		for x := 0; x < g.NX; x++ {
			g.Rho[base+x] = float32(s.rho[x])
			g.MX[base+x] = float32(s.mu[x])
			g.MY[base+x] = float32(s.mv[x])
			g.E[base+x] = float32(s.e[x])
		}
	}
}

// SweepY advances every column by dt, spread over workers like SweepX.
func (g *Grid) SweepY(dt float64) {
	dy := 1.0 / float64(g.NY)
	// Whole 64-byte lines of float32s per chunk: workers writing
	// neighbouring columns back would otherwise share a cache line in
	// every row.
	grain := (sweepGrain(g.NY) + 15) &^ 15
	g.sy = strips(g.sy, par.Workers(g.NX, grain), g.NY)
	if g.cols == nil {
		g.cols = g.sweepCols
	}
	g.dtdx = dt / dy
	par.For(0, g.NX, grain, g.cols)
}

// sweepCols sweeps columns [lo, hi) with worker w's strip.
func (g *Grid) sweepCols(w, lo, hi int) {
	s := g.sy[w]
	for x := lo; x < hi; x++ {
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			s.rho[y] = float64(g.Rho[i])
			s.mu[y] = float64(g.MY[i]) // sweep-aligned momentum is y
			s.mv[y] = float64(g.MX[i])
			s.e[y] = float64(g.E[i])
		}
		sweep1D(s, g.dtdx)
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			g.Rho[i] = float32(s.rho[y])
			g.MY[i] = float32(s.mu[y])
			g.MX[i] = float32(s.mv[y])
			g.E[i] = float32(s.e[y])
		}
	}
}

// Step advances the grid by one dimensionally split step (X then Y).
func (g *Grid) Step(dt float64) {
	g.SweepX(dt)
	g.SweepY(dt)
}

// Checkpoint summarizes the state for the end-of-run statistics file.
func (g *Grid) Checkpoint(id int) string {
	return fmt.Sprintf("grid=%d mass=%.6e energy=%.6e rhomax=%.4f rhomin=%.4f\n",
		id, g.TotalMass(), g.TotalEnergy(), g.MaxDensity(), g.MinDensity())
}
