package nbody

import (
	"essio/internal/apps"
	"essio/internal/kernel"
	"essio/internal/pvm"
)

// Params configures the N-body workload.
type Params struct {
	// Particles per processor (8192 in the study).
	Particles int
	// Steps of leapfrog integration.
	Steps int
	// Theta is the opening angle.
	Theta float64
	// WorkBytes sizes the interaction-list / locally-essential-tree
	// buffers. The default pushes the footprint just past physical
	// memory, giving the light swap traffic (and ~13%% read share) the
	// paper measured for the tree code.
	WorkBytes int
	// OutputPath receives the final statistics.
	OutputPath string
	// Team couples ranks: per-step center-of-mass exchange and barriers.
	Team *apps.Team
}

// DefaultParams matches the study: 8 K particles per processor with a step
// count that lands total interactions near the reported 303 million on 16
// ranks.
func DefaultParams() Params {
	return Params{
		Particles:  8192,
		Steps:      5,
		Theta:      0.6,
		WorkBytes:  10<<20 + 352<<10,
		OutputPath: "/home/nbody.out",
	}
}

// ProgramSpec sizes the executable: a compact tree code, slightly larger
// working text than PPM (tree walking plus integrator), no input data.
func ProgramSpec(pr Params) (textBytes, dataBytes int) {
	return 640 << 10, 64 << 10
}

// flopsPerInteraction is the cost-model estimate per particle-node
// interaction (distance, rsqrt, accumulate).
const flopsPerInteraction = 25

// comTag is the PVM tag for the per-step center-of-mass exchange.
const comTag = 88

// Program builds the runnable N-body program.
func Program(pr Params) *kernel.Program {
	text, data := ProgramSpec(pr)
	return &kernel.Program{
		Name:      "nbody",
		ImagePath: "/usr/bin/nbody",
		TextBytes: text,
		DataBytes: data,
		Main:      func(ctx *kernel.Process) { runMain(ctx, pr) },
	}
}

func runMain(ctx *kernel.Process, pr Params) {
	p := ctx.P()
	var task *pvm.Task
	var group *pvm.Group
	rank := 0
	if pr.Team != nil {
		task, group, rank = pr.Team.Join(p, int(ctx.Node().Cfg.NodeID))
		if err := group.Barrier(p, task); err != nil {
			panic(apps.RankError(rank, err))
		}
		defer func() {
			if err := group.Barrier(p, task); err != nil {
				panic(apps.RankError(rank, err))
			}
		}()
	}
	if err := run(ctx, pr, task, group, rank); err != nil {
		panic(apps.RankError(rank, err))
	}
}

func run(ctx *kernel.Process, pr Params, task *pvm.Task, group *pvm.Group, rank int) error {
	p := ctx.P()
	sys := NewPlummer(pr.Particles, int64(rank)+1)
	sys.Theta = pr.Theta

	// Simulated memory: the particle array (pos/vel/acc/mass = 80 B) and
	// the tree node pool (~2 nodes per particle, 96 B each).
	partArr := apps.NewArray(ctx, "particles", pr.Particles, 80)
	treeArr := apps.NewArray(ctx, "tree", 2*pr.Particles, 96)
	if err := partArr.TouchAll(p, true); err != nil {
		return err
	}
	ctx.ComputeFlops(float64(40 * pr.Particles))
	var workArr *apps.Array
	if pr.WorkBytes > 0 {
		workArr = apps.NewArray(ctx, "ilist", pr.WorkBytes/8, 8)
	}

	const chunk = 256
	for step := 0; step < pr.Steps; step++ {
		// Tree build: every particle read, node pool written.
		nodes := sys.BuildTree()
		if err := partArr.TouchAll(p, false); err != nil {
			return err
		}
		touchNodes := nodes
		if touchNodes > treeArr.Elems() {
			touchNodes = treeArr.Elems()
		}
		if err := treeArr.Touch(p, 0, touchNodes, true); err != nil {
			return err
		}
		ctx.ComputeOps(float64(60 * pr.Particles))

		// Force walk in chunks: particles written, tree read, with the
		// real interaction count driving the CPU cost model.
		for i := 0; i < pr.Particles; i += chunk {
			end := i + chunk
			if end > pr.Particles {
				end = pr.Particles
			}
			inter := sys.Forces(i, end)
			if err := partArr.Touch(p, i, end, true); err != nil {
				return err
			}
			if err := treeArr.Touch(p, 0, touchNodes/2, false); err != nil {
				return err
			}
			ctx.ComputeFlops(float64(inter * flopsPerInteraction))
		}

		// Integrate.
		for i := range sys.Particles {
			pt := &sys.Particles[i]
			for d := 0; d < 3; d++ {
				pt.Vel[d] += pt.Acc[d] * 0.01
				pt.Pos[d] += pt.Vel[d] * 0.01
			}
		}
		if err := partArr.TouchAll(p, true); err != nil {
			return err
		}
		ctx.ComputeFlops(float64(12 * pr.Particles))

		// Refill a rotating slice of the interaction-list buffers: the
		// footprint slightly exceeds physical memory, so this causes the
		// occasional page swap the paper observes.
		if workArr != nil {
			span := workArr.Elems() / pr.Steps
			lo := (step * span) % workArr.Elems()
			hi := lo + span
			if hi > workArr.Elems() {
				hi = workArr.Elems()
			}
			if err := workArr.Touch(p, lo, hi, true); err != nil {
				return err
			}
			ctx.ComputeOps(float64(hi - lo))
		}

		// Exchange center-of-mass summaries with the other ranks (the
		// locally-essential-tree handshake, small messages).
		if group != nil && group.Size() > 1 {
			com := sys.CenterOfMass()
			tids := make([]pvm.TID, 0, group.Size()-1)
			for r := 0; r < group.Size(); r++ {
				if r != rank {
					tids = append(tids, group.Member(r).TID())
				}
			}
			if err := pr.Team.PV.Mcast(task, tids, comTag, 32, com); err != nil {
				return err
			}
			for range tids {
				pr.Team.PV.Recv(p, task, pvm.AnySource, comTag)
			}
		}
	}

	// Free the interaction lists, then compute the summary over every
	// particle: the list growth of the final steps displaced part of the
	// particle array, so the summary pass faults a handful of pages back
	// from swap — the tree code's modest read share in the paper's
	// Table 1.
	if workArr != nil {
		workArr.Seg.Release(p)
	}
	if err := partArr.TouchAll(p, false); err != nil {
		return err
	}
	ctx.ComputeFlops(float64(10 * pr.Particles))

	// Write the short statistical summary — the only explicit output.
	out, err := ctx.FD.CreateIn(p, pr.OutputPath, -1)
	if err != nil {
		return err
	}
	if _, err := ctx.FD.Write(p, out, []byte(sys.Summary(rank))); err != nil {
		return err
	}
	return ctx.FD.Close(out)
}
