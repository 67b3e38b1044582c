package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads: each
// metric's direction and, for end-to-end metrics, its regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// resultFile is the part of a result file the comparator reads.
type resultFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
}

// compareMain compares two directories of result files, parent (A) and
// change (B), pairing runs by workload, trace mode and seed. A metric is
// unchanged when every pair is equal; improved when there are at least
// ten pairs, B wins at least nine tenths of them and the medians differ by
// more than A's interquartile range; regressed when B's median is worse
// than A's by more than the metric's bound; unresolved when A's own
// spread exceeds the bound and neither holds; else unchanged. Per-layer
// metrics have no bound: the pair rule alone makes them improved or
// regressed, and fewer than ten unequal pairs leave them unresolved.
// The bounds come from BENCHMARK.json in the working directory. The exit
// status is 3 when an end-to-end metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <parent-results-dir> <change-results-dir>")
		return 2
	}
	var spec benchSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	} else if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b map[string]map[int64]resultFile
		if b, err = loadResults(args[1]); err == nil {
			return compareSets(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

// loadResults reads every result file in dir, keyed by "workload/traceN"
// and then by seed.
func loadResults(dir string) (map[string]map[int64]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]resultFile{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s/trace%d", r.Workload, r.Trace)
		if out[key] == nil {
			out[key] = map[int64]resultFile{}
		}
		out[key][r.Seed] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

func compareSets(spec benchSpec, a, b map[string]map[int64]resultFile) int {
	type rule struct {
		better string
		bound  float64 // NaN for per-layer metrics
	}
	rules := map[string]rule{}
	var names []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, math.NaN()}
		names = append(names, m.Name)
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tally := map[string]int{}
	e2eRegressed := 0
	fmt.Printf("%-34s %-28s %5s %12s %8s %12s %8s %7s  %s\n",
		"workload", "metric", "pairs", "median A", "spreadA", "median B", "spreadB", "B wins", "verdict")
	for _, k := range keys {
		var seeds []int64
		for s := range a[k] {
			if _, ok := b[k][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, n := range names {
			var xa, xb []float64
			for _, s := range seeds {
				ma, oka := a[k][s].Metrics[n]
				mb, okb := b[k][s].Metrics[n]
				if oka && okb {
					xa, xb = append(xa, ma.Value), append(xb, mb.Value)
				}
			}
			if len(xa) == 0 {
				continue
			}
			r := rules[n]
			v, wins := verdict(xa, xb, r.better, r.bound)
			tally[v]++
			if v == "regressed" && !math.IsNaN(r.bound) {
				e2eRegressed++
			}
			fmt.Printf("%-34s %-28s %5d %12.6g %7.1f%% %12.6g %7.1f%% %3d/%-3d  %s\n",
				k, n, len(xa), quantile(xa, 0.5), 100*spread(xa), quantile(xb, 0.5), 100*spread(xb),
				wins, len(xa), v)
		}
	}
	fmt.Printf("# improved %d, unchanged %d, regressed %d, unresolved %d\n",
		tally["improved"], tally["unchanged"], tally["regressed"], tally["unresolved"])
	if e2eRegressed > 0 {
		return 3
	}
	return 0
}

// minPairs is the fewest pairs the pair rule may rest on.
const minPairs = 10

// verdict classifies one metric of one workload; it also returns how
// many pairs B won.
func verdict(xa, xb []float64, better string, bound float64) (string, int) {
	sign := 1.0 // sign*(b-a) > 0: B is worse than A
	if better == "higher" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range xa {
		switch d := sign * (xb[i] - xa[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	if wins == 0 && losses == 0 {
		return "unchanged", wins // identical in every pair, as exact counts are
	}
	ma, mb := quantile(xa, 0.5), quantile(xb, 0.5)
	worse := sign * (mb - ma)
	q := pyQuartiles(xa)
	iqr := q[2] - q[0]
	need := int(math.Ceil(0.9 * float64(len(xa))))
	enough := len(xa) >= minPairs
	switch {
	case enough && wins >= need && -worse > iqr:
		return "improved", wins
	case math.IsNaN(bound):
		if !enough {
			return "unresolved", wins
		}
		if losses >= need && worse > iqr {
			return "regressed", wins
		}
		return "unchanged", wins
	case worse > bound*math.Abs(ma):
		if spread(xa) > bound {
			return "unresolved", wins
		}
		return "regressed", wins
	case spread(xa) > bound && !allBetter(xa, xb, sign):
		return "unresolved", wins
	}
	return "unchanged", wins
}

// allBetter reports whether every B value beats every A value.
func allBetter(xa, xb []float64, sign float64) bool {
	for _, b := range xb {
		for _, a := range xa {
			if sign*(b-a) >= 0 {
				return false
			}
		}
	}
	return true
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := pyQuartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// pyQuartiles reproduces statistics.quantiles(data, n=4), whose default
// method is "exclusive".
func pyQuartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
