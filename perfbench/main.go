// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed wall-clock window, checks every output, and prints its
// metrics by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload ppm-small-16 --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// repeats the untraced runs, then makes one separate traced run whose
// spans, component counts and CPU profile give the per-layer metrics;
// its cost against the untraced median is bench.trace_overhead_frac.
// Each invocation also writes its full result, host metadata included,
// under --out, and its spans as Chrome trace-event JSON when traced.
//
//	bash perfbench/run.sh compare <dir-a> <dir-b>
//
// compares two such result directories metric by metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the stored output digests were taken at.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: operation counts, every
// metric it measured, the sample count behind each timing, and the
// reasons for any failed operation.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	failures          []string
	spans             *spanLog
	// runs are the per-operation seconds behind run_s_p50, kept in the
	// result file so a spread can be traced to single operations.
	runs []float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// timing records a timing metric together with its sample count.
func (o *outcome) timing(name string, v float64, unit string, n int) {
	o.set(name, v, unit)
	o.samples[name] = n
}

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, what+": "+err.Error())
		}
		return false
	}
	return true
}

// run parameters shared by every workload.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// corrupt damages one output of the first operation, so the run
	// demonstrates that a wrong output is counted as failed.
	corrupt bool
}

type workload struct {
	why string
	run func(p params) (*outcome, error)
}

var workloads = map[string]workload{}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 15, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
		corrupt = flag.Bool("selftest-corrupt", false, "corrupt one output to show it is counted as failed")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds ≥ 1, --trace 0|1\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	p := params{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, corrupt: *corrupt}
	o, err := w.run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !p.traced {
		o.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err := report(p, w, o, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// e2eMetrics and layerMetrics are the metric names each mode reports,
// in print order; they match BENCHMARK.json.
var e2eMetrics = []string{"setup_s", "run_s_p50", "records_per_s", "peak_rss_mb"}

func layerMetrics() []string {
	names := []string{
		"bench.trace_overhead_frac",
		"ingest_p50_ms", "ingest_p90_ms", "fit_p50_ms", "fit_p90_ms",
		"cluster.boot_s", "cluster.install_s", "cluster.simulate_s", "trace.merge_s",
		"characterize.report_s", "cluster.boot_frac",
		"trace.decode_bin_s", "trace.decode_col_s", "characterize.accumulate_s",
		"model.fit_s", "essd.hash_s",
		"essd.ingest_server_ms_p50", "essd.wasted_fit_ratio", "essd.fits", "essd.stored_traces",
	}
	names = append(names, countMetrics...)
	names = append(names, "runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_cpu_s", "cpu.samples")
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b)
	}
	return names
}

// report prints the run's metadata and metrics, writes the result and
// span files, and ends stdout with the one-line JSON result.
func report(p params, w workload, o *outcome, outDir string) error {
	names := e2eMetrics
	if p.traced {
		names = layerMetrics()
	}
	meta := hostMeta(p)
	fmt.Printf("# workload %s: %s\n", p.workload, w.why)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %s\n", k, meta[k])
	}
	final := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := o.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", n)
		}
		final[n] = m
		if c, ok := o.samples[n]; ok {
			fmt.Printf("%-28s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	failedFrac := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Printf("%-28s %14.6g ratio (%d of %d operations)\n", "failed_frac", failedFrac, o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Println("# failed:", f)
	}
	if o.spans != nil {
		printLayerTable(o)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace%d", p.workload, p.seed, btoi(p.traced)))
	if o.spans != nil {
		f, err := os.Create(base + ".spans.json")
		if err != nil {
			return err
		}
		if err := o.spans.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	full := map[string]any{
		"workload": p.workload, "seed": p.seed, "trace": btoi(p.traced),
		"host": meta, "attempted": o.attempted, "failed": o.failed,
		"correct": o.failed == 0, "metrics": o.metrics, "samples": o.samples,
		"failures": o.failures, "run_s": o.runs,
	}
	doc, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(map[string]any{
		"correct": o.failed == 0 && o.attempted > 0, "attempted": o.attempted,
		"failed": o.failed, "metrics": final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printLayerTable prints each span name's self time beside the profile
// shares, the two views of where a traced run's time went.
func printLayerTable(o *outcome) {
	self := o.spans.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# span self time (span minus child spans):")
	for _, n := range names {
		fmt.Printf("#   %-28s %10.4f s\n", n, self[n].Seconds())
	}
	fmt.Printf("# cpu profile shares (%d samples):\n", int(o.metrics["cpu.samples"].Value))
	for _, b := range cpuBuckets {
		if v := o.metrics["cpu."+b].Value; v > 0 {
			fmt.Printf("#   %-28s %9.1f %%\n", "cpu."+b, 100*v)
		}
	}
}

// hostMeta names the host and run: a result is only comparable with
// results from the same host.
func hostMeta(p params) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":        cpu,
		"kernel":     kernel,
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       strconv.FormatInt(p.seed, 10),
		"seconds":    strconv.Itoa(int(p.seconds / time.Second)),
	}
}

// commit reads the checked-out commit from .git when the benchmark runs
// inside a git work tree; exported source trees have none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) == 2 && f[1] == strings.TrimPrefix(ref, "ref: ") {
				return f[0]
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostRuntime is a reading of the Go runtime's allocation and GC totals.
type hostRuntime struct {
	allocBytes, gcCycles, gcCPU float64
}

func readRuntime() hostRuntime {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return hostRuntime{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2)}
}

// add accumulates the difference b−a into h.
func (h *hostRuntime) add(a, b hostRuntime) {
	h.allocBytes += b.allocBytes - a.allocBytes
	h.gcCycles += b.gcCycles - a.gcCycles
	h.gcCPU += b.gcCPU - a.gcCPU
}

// setRuntime reports the per-operation averages of h over n operations.
func (o *outcome) setRuntime(h hostRuntime, n int) {
	d := float64(max(n, 1))
	o.timing("runtime.alloc_mb", h.allocBytes/d/(1<<20), "MB", n)
	o.timing("runtime.gc_cycles", h.gcCycles/d, "count", n)
	o.timing("runtime.gc_cpu_s", h.gcCPU/d, "s", n)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// setup runs the set-up fn n times, the last one for real, and reports
// setup_s as the median duration, so one-off costs before the first timed
// operation are reported as a steady median.
func (o *outcome) setup(n int, fn func() error) error {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	o.timing("setup_s", quantile(ds, 0.5), "s", n)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
