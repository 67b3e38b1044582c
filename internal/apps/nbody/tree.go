// Package nbody implements the oct-tree N-body astrophysics workload: a
// Barnes–Hut gravitational simulation with 8 K particles per processor, the
// configuration the study reports as 303 million total particle
// interactions across the run. Simulation codes of this class have almost
// no explicit I/O — just final statistics — which is exactly the low-I/O
// profile the paper observes.
package nbody

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"essio/internal/apps/par"
)

// Particle is one body.
type Particle struct {
	Pos  [3]float64
	Vel  [3]float64
	Acc  [3]float64
	Mass float64
}

// System is one rank's particle set and tree parameters.
type System struct {
	Particles []Particle
	// Theta is the Barnes–Hut opening angle.
	Theta float64
	// Eps is the gravitational softening length.
	Eps float64
	// Interactions counts particle-node interactions evaluated.
	Interactions uint64

	nodes []node
	// forceChunk is forceRange bound to the system once, so a warm force
	// pass allocates nothing; counted sums its chunks' interactions.
	forceChunk func(worker, lo, hi int)
	counted    atomic.Uint64
}

// node is one oct-tree cell in the array-allocated tree.
type node struct {
	center [3]float64
	half   float64
	com    [3]float64
	mass   float64
	// children holds indices into nodes; -1 = empty. Leaf nodes store a
	// particle index in part (-1 for internal nodes).
	children [8]int32
	part     int32
	leaf     bool
}

// NewPlummer builds a deterministic Plummer-like sphere of n equal-mass
// particles in virial-ish equilibrium.
func NewPlummer(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := &System{
		Particles: make([]Particle, n),
		Theta:     0.6,
		Eps:       0.01,
	}
	for i := range s.Particles {
		p := &s.Particles[i]
		p.Mass = 1.0 / float64(n)
		// Plummer radius sampling.
		x := rng.Float64()
		r := 1.0 / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		if r > 5 {
			r = 5
		}
		u, v := rng.Float64(), rng.Float64()
		theta := math.Acos(2*u - 1)
		phi := 2 * math.Pi * v
		p.Pos[0] = r * math.Sin(theta) * math.Cos(phi)
		p.Pos[1] = r * math.Sin(theta) * math.Sin(phi)
		p.Pos[2] = r * math.Cos(theta)
		// Modest isotropic velocities.
		ve := 0.3 * math.Sqrt(2) * math.Pow(1+r*r, -0.25)
		u, v = rng.Float64(), rng.Float64()
		theta = math.Acos(2*u - 1)
		phi = 2 * math.Pi * v
		p.Vel[0] = ve * math.Sin(theta) * math.Cos(phi)
		p.Vel[1] = ve * math.Sin(theta) * math.Sin(phi)
		p.Vel[2] = ve * math.Cos(theta)
	}
	return s
}

// bounds returns a cube containing all particles.
func (s *System) bounds() (center [3]float64, half float64) {
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := range s.Particles {
		for d := 0; d < 3; d++ {
			v := s.Particles[i].Pos[d]
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	for d := 0; d < 3; d++ {
		center[d] = (lo[d] + hi[d]) / 2
		if h := (hi[d] - lo[d]) / 2; h > half {
			half = h
		}
	}
	half *= 1.001
	if half == 0 {
		half = 1
	}
	return
}

func newNode(center [3]float64, half float64) node {
	n := node{center: center, half: half, part: -1, leaf: true}
	for i := range n.children {
		n.children[i] = -1
	}
	return n
}

// BuildTree (re)builds the oct-tree over the current particle positions and
// returns the node count.
func (s *System) BuildTree() int {
	center, half := s.bounds()
	s.nodes = s.nodes[:0]
	s.nodes = append(s.nodes, newNode(center, half))
	for i := range s.Particles {
		s.insert(0, int32(i), 0)
	}
	s.computeMoments(0)
	return len(s.nodes)
}

func (s *System) octant(ni int, pos [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if pos[d] >= s.nodes[ni].center[d] {
			o |= 1 << d
		}
	}
	return o
}

func (s *System) childBox(ni, oct int) ([3]float64, float64) {
	h := s.nodes[ni].half / 2
	c := s.nodes[ni].center
	for d := 0; d < 3; d++ {
		if oct&(1<<d) != 0 {
			c[d] += h
		} else {
			c[d] -= h
		}
	}
	return c, h
}

const maxDepth = 48

func (s *System) insert(ni, pi int32, depth int) {
	nd := &s.nodes[ni]
	if nd.leaf {
		if nd.part < 0 {
			nd.part = pi
			return
		}
		if depth >= maxDepth {
			// Coincident particles: merge into the node's moments via a
			// secondary slot chain is unnecessary; drop to COM handling
			// by keeping the first particle and accumulating mass later.
			// In practice the deterministic initializer never collides.
			return
		}
		// Split: push the resident particle down.
		old := nd.part
		nd.part = -1
		nd.leaf = false
		s.pushDown(ni, old, depth)
		s.pushDown(ni, pi, depth)
		return
	}
	s.pushDown(ni, pi, depth)
}

func (s *System) pushDown(ni, pi int32, depth int) {
	oct := s.octant(int(ni), s.Particles[pi].Pos)
	ci := s.nodes[ni].children[oct]
	if ci < 0 {
		c, h := s.childBox(int(ni), oct)
		s.nodes = append(s.nodes, newNode(c, h))
		ci = int32(len(s.nodes) - 1)
		s.nodes[ni].children[oct] = ci
	}
	s.insert(ci, pi, depth+1)
}

// computeMoments fills mass and center-of-mass bottom-up.
func (s *System) computeMoments(ni int32) (mass float64, com [3]float64) {
	nd := &s.nodes[ni]
	if nd.leaf {
		if nd.part >= 0 {
			p := &s.Particles[nd.part]
			nd.mass = p.Mass
			nd.com = p.Pos
		}
		return nd.mass, nd.com
	}
	for _, ci := range nd.children {
		if ci < 0 {
			continue
		}
		m, c := s.computeMoments(ci)
		nd.mass += m
		for d := 0; d < 3; d++ {
			nd.com[d] += m * c[d]
		}
	}
	if nd.mass > 0 {
		for d := 0; d < 3; d++ {
			nd.com[d] /= nd.mass
		}
	}
	return nd.mass, nd.com
}

// accumulate adds the softened gravitational pull of (mass at com) on p.
func accumulate(p *Particle, com [3]float64, mass, eps float64) {
	var dx [3]float64
	r2 := eps * eps
	for d := 0; d < 3; d++ {
		dx[d] = com[d] - p.Pos[d]
		r2 += dx[d] * dx[d]
	}
	inv := 1 / math.Sqrt(r2)
	f := mass * inv * inv * inv
	for d := 0; d < 3; d++ {
		p.Acc[d] += f * dx[d]
	}
}

// Force computes the Barnes–Hut acceleration on particle pi, returning the
// number of interactions evaluated.
func (s *System) Force(pi int) int {
	count := s.treeForce(pi)
	s.Interactions += uint64(count)
	return count
}

// forceGrain is how many particles make one chunk of the force pass.
const forceGrain = 16

// Forces computes the acceleration on particles [lo, hi), spread over
// par.For's workers, and returns the interactions evaluated, which it also
// adds to Interactions. A particle's walk reads only the tree and writes
// only its own Acc, so every stored value equals Force's on each particle
// in turn.
func (s *System) Forces(lo, hi int) int {
	if s.forceChunk == nil {
		s.forceChunk = s.forceRange
	}
	s.counted.Store(0)
	par.For(lo, hi, forceGrain, s.forceChunk)
	count := s.counted.Load()
	s.Interactions += count
	return int(count)
}

// forceRange walks particles [lo, hi) and adds their interactions to
// counted; integer addition makes the total independent of chunk order.
func (s *System) forceRange(_, lo, hi int) {
	count := 0
	for i := lo; i < hi; i++ {
		count += s.treeForce(i)
	}
	s.counted.Add(uint64(count))
}

// treeForce computes the Barnes–Hut acceleration on particle pi, writing
// only its Acc, and returns the number of interactions evaluated.
func (s *System) treeForce(pi int) int {
	p := &s.Particles[pi]
	p.Acc = [3]float64{}
	count := 0
	var walk func(ni int32)
	walk = func(ni int32) {
		nd := &s.nodes[ni]
		if nd.mass == 0 {
			return
		}
		if nd.leaf {
			if nd.part >= 0 && int(nd.part) != pi {
				accumulate(p, nd.com, nd.mass, s.Eps)
				count++
			}
			return
		}
		var r2 float64
		for d := 0; d < 3; d++ {
			dx := nd.com[d] - p.Pos[d]
			r2 += dx * dx
		}
		size := 2 * nd.half
		if size*size < s.Theta*s.Theta*r2 {
			accumulate(p, nd.com, nd.mass, s.Eps)
			count++
			return
		}
		for _, ci := range nd.children {
			if ci >= 0 {
				walk(ci)
			}
		}
	}
	walk(0)
	return count
}

// DirectForce computes the exact O(n) pairwise acceleration on particle pi
// (testing reference).
func (s *System) DirectForce(pi int) [3]float64 {
	p := s.Particles[pi]
	p.Acc = [3]float64{}
	for j := range s.Particles {
		if j == pi {
			continue
		}
		accumulate(&p, s.Particles[j].Pos, s.Particles[j].Mass, s.Eps)
	}
	return p.Acc
}

// Step advances the system by one leapfrog (kick-drift-kick) step,
// rebuilding the tree and recomputing all forces. It returns the
// interactions evaluated this step.
func (s *System) Step(dt float64) uint64 {
	before := s.Interactions
	s.BuildTree()
	s.Forces(0, len(s.Particles))
	for i := range s.Particles {
		p := &s.Particles[i]
		for d := 0; d < 3; d++ {
			p.Vel[d] += p.Acc[d] * dt
			p.Pos[d] += p.Vel[d] * dt
		}
	}
	return s.Interactions - before
}

// KineticEnergy sums ½mv².
func (s *System) KineticEnergy() float64 {
	var e float64
	for i := range s.Particles {
		p := &s.Particles[i]
		v2 := p.Vel[0]*p.Vel[0] + p.Vel[1]*p.Vel[1] + p.Vel[2]*p.Vel[2]
		e += 0.5 * p.Mass * v2
	}
	return e
}

// CenterOfMass returns the system center of mass.
func (s *System) CenterOfMass() [3]float64 {
	var com [3]float64
	var m float64
	for i := range s.Particles {
		p := &s.Particles[i]
		m += p.Mass
		for d := 0; d < 3; d++ {
			com[d] += p.Mass * p.Pos[d]
		}
	}
	for d := 0; d < 3; d++ {
		com[d] /= m
	}
	return com
}

// Summary is the end-of-run statistics line.
func (s *System) Summary(rank int) string {
	com := s.CenterOfMass()
	return fmt.Sprintf("rank=%d n=%d interactions=%d ke=%.6e com=(%.4f,%.4f,%.4f)\n",
		rank, len(s.Particles), s.Interactions, s.KineticEnergy(), com[0], com[1], com[2])
}
