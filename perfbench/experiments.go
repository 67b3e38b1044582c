package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"essio/internal/apps"
	"essio/internal/apps/nbody"
	"essio/internal/apps/ppm"
	"essio/internal/apps/wavelet"
	"essio/internal/characterize"
	"essio/internal/cluster"
	"essio/internal/essd"
	"essio/internal/experiment"
	"essio/internal/kernel"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// storedDigests are the output digests (merged trace, characterization
// report and obs snapshot) of each experiment workload at defaultSeed.
var storedDigests = map[string]string{
	"ppm-small-16":    "e3a876d1fe3b5479b14d09af9fe675a4f1e078f9e405eb90cfca16acdac65151",
	"combined-full-4": "4f5059d6270c31ceea3604d5bcc92f1257b0c238d239f26138e5066c9675abe7",
}

// expSetupRepeats is how many warm-up runs an experiment workload's
// set-up makes; each is a 2-node run of under a second.
const expSetupRepeats = 9

// expWorkload is one experiment configuration, by seed, run back to back.
type expWorkload func(seed int64) experiment.Config

func init() {
	workloads["ppm-small-16"] = workload{
		why: "boot-bound: cluster.New (mkfs into an all-dirty buffer cache) is most of each run",
		run: expWorkload(func(seed int64) experiment.Config {
			cfg := experiment.SmallConfig(experiment.PPM, 16)
			cfg.Seed, cfg.Shards = seed, 1
			return cfg
		}).run,
	}
	workloads["combined-full-4"] = workload{
		why: "kernel-bound: full-scale PPM, wavelet and N-body at once; app kernels and paging dominate",
		run: expWorkload(func(seed int64) experiment.Config {
			cfg := fillDefaults(experiment.Config{Kind: experiment.Combined, Nodes: 4})
			cfg.Seed = seed
			return cfg
		}).run,
	}
}

// fillDefaults applies experiment.Run's defaults, so the benchmark's
// phase-by-phase replica of Run sees the same configuration.
func fillDefaults(cfg experiment.Config) experiment.Config {
	if cfg.Nodes == 0 {
		cfg.Nodes = 16
	}
	if cfg.BaselineDuration == 0 {
		cfg.BaselineDuration = 2000 * sim.Second
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 4 * 60 * sim.Minute
	}
	if cfg.Tail == 0 {
		cfg.Tail = 30 * sim.Second
	}
	if cfg.PPM.NX == 0 {
		cfg.PPM = ppm.DefaultParams()
	}
	if cfg.Wavelet.N == 0 {
		cfg.Wavelet = wavelet.DefaultParams()
	}
	if cfg.NBody.Particles == 0 {
		cfg.NBody = nbody.DefaultParams()
	}
	return cfg
}

// reportOptions are the flags of an experiment's full report.
func reportOptions(cfg experiment.Config, disk uint32) characterize.Options {
	return fullReport(string(cfg.Kind), cfg.Nodes, disk)
}

// digest hashes an experiment's outputs: the merged trace in binary
// encoding, the characterization report, the obs snapshot JSON and the
// simulated start and end times.
func digest(merged []trace.Record, report string, snap *obs.Snapshot, start, end sim.Time) (string, error) {
	h := sha256.New()
	if err := trace.WriteAll(h, merged); err != nil {
		return "", err
	}
	h.Write([]byte(report))
	js, err := snap.JSON()
	if err != nil {
		return "", err
	}
	h.Write(js)
	var t [16]byte
	binary.LittleEndian.PutUint64(t[:], uint64(start))
	binary.LittleEndian.PutUint64(t[8:], uint64(end))
	h.Write(t[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runOnce is one timed operation: experiment.Run plus the full report of
// its result. It returns the outputs the checks need.
func runOnce(cfg experiment.Config) (*experiment.Result, string, time.Duration, error) {
	t0 := time.Now()
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, "", 0, err
	}
	report, _, err := characterize.Characterize(res.Source(), reportOptions(cfg, res.DiskSectors))
	d := time.Since(t0)
	if err != nil {
		return nil, "", 0, err
	}
	if !res.Finished {
		return nil, "", 0, errors.New("experiment did not finish before its timeout")
	}
	return res, report, d, nil
}

// uploadsOf encodes an experiment's merged trace both ways, with the
// report and content address essd must answer for it.
func uploadsOf(cfg experiment.Config, res *experiment.Result, report string) ([]*upload, error) {
	var ups []*upload
	hash := essd.HashRecords(res.Merged)
	for _, f := range []string{trace.FormatBinary, trace.FormatCol} {
		body, err := encode(res.Merged, f)
		if err != nil {
			return nil, err
		}
		ups = append(ups, &upload{body: body, format: f, records: len(res.Merged),
			opts: reportOptions(cfg, res.DiskSectors), report: report, hash: hash})
	}
	return ups, nil
}

func (w expWorkload) run(p params) (*outcome, error) {
	o := newOutcome()
	cfg := w(p.seed)

	// Set-up: warm the process up with a 2-node run of the same
	// experiment kind, so lazy initialisation is not timed.
	err := o.setup(expSetupRepeats, func() error {
		warm := experiment.SmallConfig(cfg.Kind, 2)
		warm.Seed, warm.Shards = cfg.Seed, cfg.Shards
		if _, _, _, err := runOnce(warm); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var (
		runs       []float64
		rates      []float64
		host       hostRuntime
		first      string
		last       *experiment.Result
		lastReport string
	)
	t0 := time.Now()
	for tries := 0; tries == 0 || time.Since(t0) < p.seconds; tries++ {
		h0 := readRuntime()
		res, report, dur, err := runOnce(cfg)
		host.add(h0, readRuntime())
		if !o.op("experiment", err) {
			continue
		}
		dg, err := digest(res.Merged, report, res.Obs, res.Start, res.End)
		if err == nil && p.corrupt && tries == 0 {
			// Flip one record's sector, as a wrong simulation would.
			bad := append([]trace.Record(nil), res.Merged...)
			bad[len(bad)/2].Sector++
			dg, err = digest(bad, report, res.Obs, res.Start, res.End)
		}
		if err == nil {
			err = checkDigest(p, &first, dg)
		}
		if err != nil {
			o.failed++
			o.failures = append(o.failures, "experiment output: "+err.Error())
			continue
		}
		runs = append(runs, dur.Seconds())
		rates = append(rates, float64(len(res.Merged))/dur.Seconds())
		last, lastReport = res, report
	}
	n := len(runs)
	o.runs = runs
	o.timing("run_s_p50", quantile(runs, 0.5), "s", n)
	// A median, like run_s_p50: one experiment slowed by the host then
	// moves neither metric.
	o.timing("records_per_s", quantile(rates, 0.5), "1/s", n)
	o.setRuntime(host, n)
	o.setClient(nil, nil)
	if !p.traced || last == nil {
		return o, nil
	}

	// The traced run: the same experiment driven phase by phase under a
	// CPU profile, then the essd layers replayed on its trace.
	o.spans = newSpanLog(p.workload, fmt.Sprint(p.seed))
	var (
		ph    *phased
		phErr error
	)
	shares, samples, err := cpuProfile(func() {
		ph, phErr = runPhased(o.spans, 0, cfg)
	})
	if ph == nil {
		return nil, err // the profile did not start, so neither did the run
	}
	o.op("cpu profile", err)
	if o.op("traced experiment", phErr) && ph.digest != first {
		o.failed++
		o.failures = append(o.failures, "traced run digest differs from experiment.Run")
	}
	o.setShares(shares, samples)
	ph.put(o)
	o.set("bench.trace_overhead_frac", ph.total.Seconds()/quantile(runs, 0.5)-1, "ratio")
	putServerMetrics(o, "")
	ups, err := uploadsOf(cfg, last, lastReport)
	if err != nil {
		return nil, err
	}
	replay(o, ups)
	return o, nil
}

// checkDigest requires every run in an invocation to produce the same
// outputs and, at the default seed, the workload's stored ones.
func checkDigest(p params, first *string, dg string) error {
	if *first == "" {
		*first = dg
	} else if dg != *first {
		return fmt.Errorf("digest %s differs from this invocation's first run %s", dg, *first)
	}
	if want := storedDigests[p.workload]; p.seed == defaultSeed && dg != want {
		return fmt.Errorf("digest %s, stored digest at seed %d is %s", dg, defaultSeed, want)
	}
	return nil
}

// phased is the outcome of runPhased: the phase durations, the output
// digest and the component counts read after boot and after the run.
type phased struct {
	boot, install, simulate, merge, report, total time.Duration
	digest                                        string
	atBoot, atEnd                                 counts
	records                                       int
}

// runPhased replicates experiment.Run phase by phase through the public
// cluster API; on error it still returns the phases measured so far (without the closing /proc read, which feeds no output
// checked here), opening one span per phase under parent.
func runPhased(l *spanLog, parent int, cfg experiment.Config) (*phased, error) {
	ph := &phased{}
	var (
		err        error
		start, end sim.Time
		merged     []trace.Record
		snap       *obs.Snapshot
		report     string
	)
	ph.total = l.do(parent, "run", func(root int) {
		var c *cluster.Cluster
		ph.boot = l.do(root, "cluster.boot", func(int) {
			c, err = cluster.New(cluster.Config{Nodes: cfg.Nodes, Seed: cfg.Seed, Shards: cfg.Shards})
		})
		if err != nil {
			return
		}
		defer c.Close()
		ph.atBoot = readCounts(c)

		var progs []*kernel.Program
		ph.install = l.do(root, "cluster.install", func(int) {
			progs, err = install(c, cfg)
		})
		if err != nil {
			return
		}

		ph.simulate = l.do(root, "cluster.simulate", func(int) {
			c.StartTracing()
			start = c.Now()
			var procs []*kernel.Process
			for _, prog := range progs {
				procs = append(procs, c.Launch(prog)...)
			}
			if _, ok := c.WaitAll(procs, cfg.Timeout); !ok {
				err = errors.New("experiment did not finish before its timeout")
			}
			for _, pr := range procs {
				if perr := pr.Err(); perr != nil && err == nil {
					err = perr
				}
			}
			c.RunFor(cfg.Tail)
			c.StopTracing()
			end = c.Now()
		})
		if err != nil {
			return
		}
		ph.atEnd = readCounts(c)

		var perNode [][]trace.Record
		ph.merge = l.do(root, "trace.merge", func(int) {
			perNode = c.Traces()
			merged = trace.Merge(perNode...)
			snap = c.ObsSnapshot()
		})
		ph.records = len(merged)
		ph.report = l.do(root, "characterize.report", func(int) {
			report, _, err = characterize.Characterize(trace.MergeSlices(perNode...),
				reportOptions(cfg, c.Nodes[0].Disk.Sectors()))
		})
	})
	if err != nil {
		return ph, err
	}
	ph.digest, err = digest(merged, report, snap, start, end)
	return ph, err
}

// install builds the experiment's programs, writes the wavelet input
// image where the experiment needs one, and installs the program images,
// in experiment.Run's order.
func install(c *cluster.Cluster, cfg experiment.Config) ([]*kernel.Program, error) {
	var progs []*kernel.Program
	team := func() *apps.Team { return apps.NewTeam(c.PVM, cfg.Nodes) }
	switch cfg.Kind {
	case experiment.PPM:
		pr := cfg.PPM
		pr.Team = team()
		progs = append(progs, ppm.Program(pr))
	case experiment.Combined:
		pp, wp, np := cfg.PPM, cfg.Wavelet, cfg.NBody
		pp.Team, wp.Team, np.Team = team(), team(), team()
		progs = append(progs, ppm.Program(pp), wavelet.Program(wp), nbody.Program(np))
	default:
		return nil, fmt.Errorf("phased run of %s not supported", cfg.Kind)
	}
	if cfg.Kind == experiment.Combined {
		done := make([]bool, len(c.Nodes))
		errs := make([]error, len(c.Nodes))
		for i, n := range c.Nodes {
			i, n := i, n
			wcfg := cfg.Wavelet
			c.SpawnOn(i, "install-image", func(p *sim.Proc) {
				errs[i] = wavelet.InstallInputs(p, n, wcfg)
				done[i] = true
			})
		}
		for !all(done) {
			c.RunFor(sim.Second)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for _, prog := range progs {
		if err := c.Install(prog); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

func all(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// counts are the exact component counters, summed over nodes.
type counts struct {
	events                                      uint64
	bcHits, bcMisses, bcEvictions, bcWritebacks uint64
	bioSubmitted, bioRequests, bioMerges        uint64
	drvRequests, diskSectors                    uint64
	vmFaults, vmSwapIns, vmSwapOuts             uint64
	netMessages, netBytes                       uint64
}

func readCounts(c *cluster.Cluster) counts {
	k := counts{events: c.Shards.EventsFired()}
	for _, n := range c.Nodes {
		bc := n.BC.Stats()
		k.bcHits += bc.Hits
		k.bcMisses += bc.Misses
		k.bcEvictions += bc.Evictions
		k.bcWritebacks += bc.Writebacks
		q := n.Queue.Stats()
		k.bioSubmitted += q.Submitted
		k.bioRequests += q.Requests
		k.bioMerges += q.BackMerges + q.FrontMerges
		k.drvRequests += n.Driver.Stats().Requests
		ds := n.Disk.Stats()
		k.diskSectors += ds.SectorsRead + ds.SectorsWritten
		if n.Pager != nil {
			vs := n.Pager.Stats()
			k.vmFaults += vs.Faults
			k.vmSwapIns += vs.SwapIns
			k.vmSwapOuts += vs.SwapOuts
		}
	}
	ns := c.Net.Stats()
	k.netMessages, k.netBytes = ns.Messages, ns.Bytes
	return k
}

// countMetrics are the per-layer counts and ratios runPhased yields.
var countMetrics = []string{
	"sim.events", "sim.ns_per_event",
	"buffercache.hits", "buffercache.misses", "buffercache.lookups", "buffercache.hit_ratio",
	"buffercache.evictions", "buffercache.writebacks",
	"buffercache.boot_evictions", "buffercache.boot_writebacks",
	"blockio.submitted", "blockio.requests", "blockio.merge_ratio",
	"driver.requests", "disk.sectors",
	"vm.faults", "vm.swap_ins", "vm.swap_outs",
	"ethernet.messages", "ethernet.bytes", "trace.records",
}

// put sets the phase spans and counts of a phased run on o.
func (ph *phased) put(o *outcome) {
	o.set("cluster.boot_s", ph.boot.Seconds(), "s")
	o.set("cluster.install_s", ph.install.Seconds(), "s")
	o.set("cluster.simulate_s", ph.simulate.Seconds(), "s")
	o.set("trace.merge_s", ph.merge.Seconds(), "s")
	o.set("characterize.report_s", ph.report.Seconds(), "s")
	o.set("cluster.boot_frac", ph.boot.Seconds()/max(ph.total.Seconds(), 1e-9), "ratio")
	e := ph.atEnd
	lookups := e.bcHits + e.bcMisses
	o.set("sim.events", float64(e.events), "count")
	o.set("sim.ns_per_event", float64(ph.boot+ph.simulate)/float64(max(e.events, 1)), "ns")
	o.set("buffercache.hits", float64(e.bcHits), "count")
	o.set("buffercache.misses", float64(e.bcMisses), "count")
	o.set("buffercache.lookups", float64(lookups), "count")
	o.set("buffercache.hit_ratio", float64(e.bcHits)/float64(max(lookups, 1)), "ratio")
	o.set("buffercache.evictions", float64(e.bcEvictions), "count")
	o.set("buffercache.writebacks", float64(e.bcWritebacks), "count")
	o.set("buffercache.boot_evictions", float64(ph.atBoot.bcEvictions), "count")
	o.set("buffercache.boot_writebacks", float64(ph.atBoot.bcWritebacks), "count")
	o.set("blockio.submitted", float64(e.bioSubmitted), "count")
	o.set("blockio.requests", float64(e.bioRequests), "count")
	o.set("blockio.merge_ratio", float64(e.bioMerges)/float64(max(e.bioSubmitted, 1)), "ratio")
	o.set("driver.requests", float64(e.drvRequests), "count")
	o.set("disk.sectors", float64(e.diskSectors), "count")
	o.set("vm.faults", float64(e.vmFaults), "count")
	o.set("vm.swap_ins", float64(e.vmSwapIns), "count")
	o.set("vm.swap_outs", float64(e.vmSwapOuts), "count")
	o.set("ethernet.messages", float64(e.netMessages), "count")
	o.set("ethernet.bytes", float64(e.netBytes), "count")
	o.set("trace.records", float64(ph.records), "count")
}

// setShares reports a CPU profile's bucket shares; a failed profile
// (nil shares) reports zeros.
func (o *outcome) setShares(shares map[string]float64, samples int) {
	o.set("cpu.samples", float64(samples), "count")
	for _, b := range cpuBuckets {
		o.set("cpu."+b, shares[b], "ratio")
	}
}
