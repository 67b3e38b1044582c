package experiment

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"essio/internal/apps"
	"essio/internal/apps/nbody"
	"essio/internal/apps/ppm"
	"essio/internal/cluster"
	"essio/internal/iotrace"
	"essio/internal/kernel"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// chromeJSON renders a result's I/O journal as the Chrome trace-event
// bytes essmon trace and essd serve, the form the byte-identity gates
// compare.
func chromeJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := iotrace.WriteChrome(&buf, res.IOTrace); err != nil {
		t.Fatalf("render chrome trace: %v", err)
	}
	return buf.Bytes()
}

// shardCounts returns the shard counts the equality tests compare:
// sequential, two, four, and one per CPU, deduplicated.
func shardCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestShardedRunsByteIdentical is the sharding refactor's acceptance
// gate: every experiment must produce byte-identical results — trace
// records, application events, metric snapshot bytes, procfs text, and
// timing — at every shard count. Short mode covers the baseline and PPM;
// the full run covers all five experiments.
func TestShardedRunsByteIdentical(t *testing.T) {
	kinds := Kinds
	if testing.Short() {
		kinds = []Kind{Baseline, PPM}
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			var base *Result
			var baseObs []byte
			var baseTrace []byte
			for _, shards := range shardCounts() {
				cfg := SmallConfig(kind, 4)
				cfg.Shards = shards
				// Trace level journals every request journey on top of
				// the full metric set, so this gate also proves the
				// exported trace bytes are shard-invariant.
				cfg.ObsLevel = obs.Trace
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				obsJSON, err := res.Obs.JSON()
				if err != nil {
					t.Fatalf("shards=%d: snapshot: %v", shards, err)
				}
				traceJSON := chromeJSON(t, res)
				if shards == 1 {
					if len(res.IOTrace) == 0 {
						t.Fatal("trace-level run journaled no I/O events")
					}
					base, baseObs, baseTrace = res, obsJSON, traceJSON
					continue
				}
				if res.Start != base.Start || res.End != base.End || res.Duration != base.Duration {
					t.Errorf("shards=%d timing (%v,%v) diverges from sequential (%v,%v)",
						shards, res.Start, res.End, base.Start, base.End)
				}
				if res.Finished != base.Finished {
					t.Errorf("shards=%d Finished=%v, sequential %v", shards, res.Finished, base.Finished)
				}
				if !reflect.DeepEqual(res.PerNode, base.PerNode) {
					t.Errorf("shards=%d per-node traces diverge from sequential run", shards)
				}
				if !reflect.DeepEqual(res.Merged, base.Merged) {
					t.Errorf("shards=%d merged trace diverges from sequential run", shards)
				}
				if !reflect.DeepEqual(res.AppEvents, base.AppEvents) {
					t.Errorf("shards=%d application events diverge from sequential run", shards)
				}
				if !bytes.Equal(obsJSON, baseObs) {
					t.Errorf("shards=%d metric snapshot bytes diverge from sequential run", shards)
				}
				if res.ProcMetrics != base.ProcMetrics {
					t.Errorf("shards=%d procfs metrics text diverges from sequential run", shards)
				}
				if !bytes.Equal(traceJSON, baseTrace) {
					t.Errorf("shards=%d exported iotrace JSON diverges from sequential run", shards)
				}
			}
		})
	}
}

// TestIOTraceByteIdenticalAcrossWorkers is the worker-pool half of the
// trace determinism gate: the same trace-level config run through
// RunConcurrent pools of different sizes must export byte-identical
// Chrome trace JSON. Worker count only changes host scheduling, never
// simulated causality, so any divergence here is a shared-state leak.
func TestIOTraceByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := SmallConfig(PPM, 4)
	cfg.ObsLevel = obs.Trace
	cfgs := []Config{cfg, cfg}
	var base []byte
	for _, workers := range []int{1, 4} {
		results, err := RunConcurrent(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			traceJSON := chromeJSON(t, res)
			if len(res.IOTrace) == 0 {
				t.Fatalf("workers=%d run %d journaled no I/O events", workers, i)
			}
			if base == nil {
				base = traceJSON
				continue
			}
			if !bytes.Equal(traceJSON, base) {
				t.Errorf("workers=%d run %d iotrace JSON diverges", workers, i)
			}
		}
	}
}

// kernelOutputs runs the small PPM and N-body programs together on a
// fresh cluster of the given size and returns every node's ppm.out and
// nbody.out, the statistics the kernels' floating-point state ends in.
func kernelOutputs(t *testing.T, nodes int) []string {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := SmallConfig(Combined, nodes)
	pp, np := cfg.PPM, cfg.NBody
	pp.Team = apps.NewTeam(c.PVM, nodes)
	np.Team = apps.NewTeam(c.PVM, nodes)
	progs := []*kernel.Program{ppm.Program(pp), nbody.Program(np)}
	var procs []*kernel.Process
	for _, prog := range progs {
		if err := c.Install(prog); err != nil {
			t.Fatal(err)
		}
	}
	for _, prog := range progs {
		procs = append(procs, c.Launch(prog)...)
	}
	if _, ok := c.WaitAll(procs, cfg.Timeout); !ok {
		t.Fatal("ppm and nbody did not finish")
	}
	for _, pr := range procs {
		if err := pr.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var outs []string
	// Single-shard cluster: one engine may read every node's FS.
	c.SpawnOn(0, "read-outputs", func(p *sim.Proc) {
		for _, n := range c.Nodes {
			for _, path := range []string{pp.OutputPath, np.OutputPath} {
				ino, err := n.FS.Lookup(p, path)
				if err != nil {
					t.Errorf("node %d %s: %v", n.Cfg.NodeID, path, err)
					return
				}
				buf := make([]byte, 4096)
				m, err := n.FS.ReadAt(p, ino, 0, buf, trace.OriginData)
				if err != nil || m == 0 {
					t.Errorf("node %d %s: read %d bytes: %v", n.Cfg.NodeID, path, m, err)
					return
				}
				outs = append(outs, string(buf[:m]))
			}
		}
	})
	c.RunFor(time1)
	if len(outs) != 2*nodes {
		t.Fatalf("read %d output files, want %d", len(outs), 2*nodes)
	}
	return outs
}

// TestKernelWorkersByteIdentical is the data-parallel kernels' gate: a
// Combined run at GOMAXPROCS 1, where par.For runs every loop serially on
// the rank's process, and at several workers must give byte-identical
// metric snapshot, exported iotrace and merged trace, and the same
// ppm.out and nbody.out on every node. Short mode runs 2 nodes, so the
// race detector sees the parallel sweeps and force pass.
func TestKernelWorkersByteIdentical(t *testing.T) {
	nodes := 4
	if testing.Short() {
		nodes = 2
	}
	var baseObs, baseTrace []byte
	var base *Result
	var baseOuts []string
	for _, procs := range []int{1, max(2, runtime.NumCPU())} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := SmallConfig(Combined, nodes)
			cfg.ObsLevel = obs.Trace
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			obsJSON, err := res.Obs.JSON()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: snapshot: %v", procs, err)
			}
			traceJSON := chromeJSON(t, res)
			outs := kernelOutputs(t, nodes)
			if base == nil {
				base, baseObs, baseTrace, baseOuts = res, obsJSON, traceJSON, outs
				return
			}
			if res.Start != base.Start || res.End != base.End {
				t.Errorf("GOMAXPROCS=%d timing (%v,%v) diverges from serial (%v,%v)",
					procs, res.Start, res.End, base.Start, base.End)
			}
			if !reflect.DeepEqual(res.Merged, base.Merged) {
				t.Errorf("GOMAXPROCS=%d merged trace diverges from serial run", procs)
			}
			if !bytes.Equal(obsJSON, baseObs) {
				t.Errorf("GOMAXPROCS=%d metric snapshot bytes diverge from serial run", procs)
			}
			if !bytes.Equal(traceJSON, baseTrace) {
				t.Errorf("GOMAXPROCS=%d exported iotrace JSON diverges from serial run", procs)
			}
			for i := range outs {
				if outs[i] != baseOuts[i] {
					t.Errorf("GOMAXPROCS=%d output %d = %q, serial %q", procs, i, outs[i], baseOuts[i])
				}
			}
		}()
	}
}
