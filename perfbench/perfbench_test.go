package main

import (
	"testing"
	"time"

	"essio/internal/characterize"
	"essio/internal/essd"
	"essio/internal/experiment"
	"essio/internal/trace"
)

// smallPPM is a 2-node experiment workload, quick enough for a test.
var smallPPM = expWorkload(func(seed int64) experiment.Config {
	cfg := experiment.SmallConfig(experiment.PPM, 2)
	cfg.Seed = seed
	return cfg
})

// TestCorruptExperimentOutputCounted stores the digest of a clean run at
// the default seed, then runs the experiment loop with and without one
// flipped trace record: only the corrupted run may fail.
func TestCorruptExperimentOutputCounted(t *testing.T) {
	res, report, _, err := runOnce(smallPPM(defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	storedDigests["test"], err = digest(res.Merged, report, res.Obs, res.Start, res.End)
	if err != nil {
		t.Fatal(err)
	}
	defer delete(storedDigests, "test")
	for _, corrupt := range []bool{false, true} {
		o, err := smallPPM.run(params{workload: "test", seed: defaultSeed, seconds: time.Nanosecond, corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if corrupt && o.failed == 0 {
			t.Errorf("corrupted output not counted as failed (%d attempted)", o.attempted)
		}
		if !corrupt && o.failed != 0 {
			t.Errorf("clean run failed: %v", o.failures)
		}
	}
}

// TestPhasedRunMatchesExperimentRun checks the traced replica of
// experiment.Run produces the same output digest.
func TestPhasedRunMatchesExperimentRun(t *testing.T) {
	cfg := experiment.SmallConfig(experiment.Combined, 2)
	res, report, _, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := digest(res.Merged, report, res.Obs, res.Start, res.End)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := runPhased(newSpanLog("test", "1"), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ph.digest != want {
		t.Errorf("phased digest %s, experiment.Run digest %s", ph.digest, want)
	}
	if ph.boot <= 0 || ph.simulate <= 0 || ph.atEnd.events <= ph.atBoot.events {
		t.Errorf("phases not measured: %+v", ph)
	}
}

// TestCorruptIngestCounted sends one upload intact and once with a
// flipped byte: the daemon's answer must pass the check only intact.
func TestCorruptIngestCounted(t *testing.T) {
	cfg := experiment.SmallConfig(experiment.Combined, 2)
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := fullReport("t", cfg.Nodes, res.DiskSectors)
	report, _, err := characterize.Characterize(trace.SliceSource(res.Merged), opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	for _, f := range []string{trace.FormatBinary, trace.FormatCol} {
		body, err := encode(res.Merged, f)
		if err != nil {
			t.Fatal(err)
		}
		u := &upload{body: body, format: f, records: len(res.Merged), opts: opts,
			report: report, hash: essd.HashRecords(res.Merged)}
		if _, err := d.ingest(u); err != nil {
			t.Errorf("%s ingest: %v", f, err)
		}
		if _, _, err := d.fit(u); err != nil {
			t.Errorf("%s fit: %v", f, err)
		}
		bad := *u
		bad.body = append([]byte(nil), body...)
		bad.body[len(body)-len(body)/3] ^= 0x40
		if _, err := d.ingest(&bad); err == nil {
			t.Errorf("%s ingest of a corrupted body passed the check", f)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "essio/internal/buffercache.(*Cache).findVictim"}, "buffercache"},
		{[]string{"runtime.mallocgc", "essio/internal/apps/ppm.sweep1D"}, "runtime.gc"},
		{[]string{"essio/internal/apps/ppm.sweep1D.func1", "runtime.chanrecv1"}, "apps.ppm"},
		{[]string{"runtime.futex", "runtime.chansend1", "essio/internal/sim.(*Proc).park"}, "runtime.sched"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"essio/internal/procfs.(*FS).Open"}, "other"},
		{[]string{"main.main"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins pyQuartiles to statistics.quantiles.
func TestQuartilesMatchPython(t *testing.T) {
	q := pyQuartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v, want [2.75 5.5 8.25]", q)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	faster := make([]float64, len(a))
	slower := make([]float64, len(a))
	for i, v := range a {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{{a, "unchanged"}, {faster, "improved"}, {slower, "regressed"}} {
		if got, _ := verdict(a, c.b, "lower", 0.1); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := &spanLog{spans: []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: at(20), End: at(25)},
		{ID: 5, Parent: 1, Name: "a", Start: at(90), End: at(120)}, // clipped at 100
	}}
	want := map[string]time.Duration{
		"root": 100*time.Millisecond - 50*time.Millisecond, // covered: 10–50 and 90–100
		"a":    25*time.Millisecond + 30*time.Millisecond,
		"b":    20 * time.Millisecond,
		"c":    5 * time.Millisecond,
	}
	if got := l.selfTimes(); len(got) != len(want) || got["root"] != want["root"] ||
		got["a"] != want["a"] || got["b"] != want["b"] || got["c"] != want["c"] {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestRecordsPerSecond checks that a request's records are spread over
// the slices it spans and that one slow slice does not move the median.
func TestRecordsPerSecond(t *testing.T) {
	s := time.Second
	r := loadResult{elapsed: 3 * s, done: []completion{
		{start: 0, end: s, records: 100},
		{start: s, end: 2 * s, records: 100},
		{start: 2 * s, end: 2*s + s/2, records: 10}, // a slow slice
		{start: s / 2, end: s + s/2, records: 40},   // half in slice 0, half in 1
	}}
	if got := r.recordsPerSecond(); got != 120 {
		t.Errorf("recordsPerSecond = %v, want 120 (slices 120, 120, 10)", got)
	}
}
