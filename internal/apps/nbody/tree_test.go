package nbody

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

func TestPlummerDeterministic(t *testing.T) {
	a := NewPlummer(256, 7)
	b := NewPlummer(256, 7)
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			t.Fatal("same seed produced different particles")
		}
	}
	c := NewPlummer(256, 8)
	same := true
	for i := range a.Particles {
		if a.Particles[i].Pos != c.Particles[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical particles")
	}
	// Total mass normalized to 1.
	var m float64
	for i := range a.Particles {
		m += a.Particles[i].Mass
	}
	if math.Abs(m-1) > 1e-12 {
		t.Fatalf("total mass %v", m)
	}
}

func TestTreeContainsAllParticles(t *testing.T) {
	s := NewPlummer(512, 1)
	s.BuildTree()
	var mass float64
	countLeaves := 0
	for i := range s.nodes {
		if s.nodes[i].leaf && s.nodes[i].part >= 0 {
			countLeaves++
		}
	}
	mass = s.nodes[0].mass
	if countLeaves != 512 {
		t.Fatalf("tree holds %d particles, want 512", countLeaves)
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Fatalf("root mass %v, want 1", mass)
	}
	// Root COM equals the direct center of mass.
	com := s.CenterOfMass()
	for d := 0; d < 3; d++ {
		if math.Abs(s.nodes[0].com[d]-com[d]) > 1e-9 {
			t.Fatalf("root com %v vs direct %v", s.nodes[0].com, com)
		}
	}
}

func TestTreeForceMatchesDirect(t *testing.T) {
	s := NewPlummer(400, 3)
	s.Theta = 0.3 // tight opening angle for accuracy
	s.BuildTree()
	var worst float64
	for _, pi := range []int{0, 17, 111, 399} {
		s.Force(pi)
		approx := s.Particles[pi].Acc
		exact := s.DirectForce(pi)
		var diff, norm float64
		for d := 0; d < 3; d++ {
			diff += (approx[d] - exact[d]) * (approx[d] - exact[d])
			norm += exact[d] * exact[d]
		}
		rel := math.Sqrt(diff / (norm + 1e-30))
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.05 {
		t.Fatalf("worst relative force error %.3f at theta=0.3", worst)
	}
}

func TestThetaTradesAccuracyForWork(t *testing.T) {
	tight := NewPlummer(512, 5)
	tight.Theta = 0.2
	tight.BuildTree()
	tight.Force(0)
	tightCount := tight.Interactions

	loose := NewPlummer(512, 5)
	loose.Theta = 1.0
	loose.BuildTree()
	loose.Force(0)
	looseCount := loose.Interactions

	if looseCount >= tightCount {
		t.Fatalf("loose theta (%d) should do less work than tight (%d)", looseCount, tightCount)
	}
}

func TestInteractionCountSubQuadratic(t *testing.T) {
	s := NewPlummer(1024, 2)
	s.BuildTree()
	for i := range s.Particles {
		s.Force(i)
	}
	n := uint64(len(s.Particles))
	if s.Interactions >= n*n/2 {
		t.Fatalf("interactions %d not sub-quadratic for n=%d", s.Interactions, n)
	}
	if s.Interactions < n {
		t.Fatalf("interactions %d suspiciously low", s.Interactions)
	}
}

func TestStepMovesSystemStably(t *testing.T) {
	s := NewPlummer(256, 4)
	ke0 := s.KineticEnergy()
	var total uint64
	for i := 0; i < 5; i++ {
		total += s.Step(0.005)
	}
	if total == 0 {
		t.Fatal("no interactions during steps")
	}
	ke := s.KineticEnergy()
	if math.IsNaN(ke) || ke > 100*ke0+1 {
		t.Fatalf("kinetic energy exploded: %v -> %v", ke0, ke)
	}
	// Particles actually moved.
	moved := false
	ref := NewPlummer(256, 4)
	for i := range s.Particles {
		if s.Particles[i].Pos != ref.Particles[i].Pos {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no particle moved")
	}
}

func TestBoundsContainEverything(t *testing.T) {
	s := NewPlummer(128, 9)
	center, half := s.bounds()
	for i := range s.Particles {
		for d := 0; d < 3; d++ {
			if math.Abs(s.Particles[i].Pos[d]-center[d]) > half {
				t.Fatalf("particle %d outside root box", i)
			}
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	s := NewPlummer(64, 1)
	s.Step(0.01)
	out := s.Summary(3)
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Fatalf("summary = %q", out)
	}
}

// stepOracle is Step with the serial per-particle Force loop the parallel
// force pass replaced, kept as the bit-identity oracle.
func stepOracle(s *System, dt float64) {
	s.BuildTree()
	for i := range s.Particles {
		s.Force(i)
	}
	for i := range s.Particles {
		p := &s.Particles[i]
		for d := 0; d < 3; d++ {
			p.Vel[d] += p.Acc[d] * dt
			p.Pos[d] += p.Vel[d] * dt
		}
	}
}

// TestStepMatchesSerialOracle steps systems below, at and off a multiple
// of the force grain with Step and with the oracle, at 1 and 2 workers,
// and requires every particle's Pos, Vel and Acc to match bit for bit,
// and Interactions exactly, after every step.
func TestStepMatchesSerialOracle(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, n := range []int{1, 2, forceGrain - 1, forceGrain, 5*forceGrain + 3, 1000} {
			t.Run(fmt.Sprintf("procs%d/n%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, want := NewPlummer(n, 11), NewPlummer(n, 11)
				for step := 0; step < 4; step++ {
					got.Step(0.01)
					stepOracle(want, 0.01)
					if got.Interactions != want.Interactions {
						t.Fatalf("step %d: %d interactions, oracle %d", step, got.Interactions, want.Interactions)
					}
					for i := range want.Particles {
						g, w := &got.Particles[i], &want.Particles[i]
						for d := 0; d < 3; d++ {
							for _, f := range []struct {
								name      string
								got, want float64
							}{{"Pos", g.Pos[d], w.Pos[d]}, {"Vel", g.Vel[d], w.Vel[d]}, {"Acc", g.Acc[d], w.Acc[d]}} {
								if math.Float64bits(f.got) != math.Float64bits(f.want) {
									t.Fatalf("step %d: particle %d %s[%d] = %v, oracle %v", step, i, f.name, d, f.got, f.want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestForcesAllocatesNothingWarm: once a system has run one force pass,
// the parallel pass reuses its bound chunk function and par.For's loop
// state, so it adds no garbage per step.
func TestForcesAllocatesNothingWarm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := NewPlummer(1024, 3)
	s.BuildTree()
	s.Forces(0, len(s.Particles))
	if allocs := testing.AllocsPerRun(5, func() { s.Forces(0, len(s.Particles)) }); allocs != 0 {
		t.Fatalf("warm force pass made %v allocations, want 0", allocs)
	}
}
