package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"essio/internal/characterize"
	"essio/internal/essd"
	"essio/internal/experiment"
	"essio/internal/model"
	"essio/internal/synth"
	"essio/internal/trace"
)

// The essd-ingest workload: distinct synthetic uploads, more than the
// daemon's 64-trace store holds, half binary and half columnar.
const (
	essdUploads     = 66
	essdRecords     = 65536
	essdClients     = 2
	essdModelNodes  = 2
	essdUploadNodes = 4
	// essdReplayed uploads, half of each encoding, give the per-layer
	// replay spans.
	essdReplayed = 16
	// essdSetupRepeats set-ups of about 4 s each give setup_s.
	essdSetupRepeats = 3
)

func init() {
	workloads["essd-ingest"] = workload{
		why: "codec-, accumulator- and fit-bound: 2 closed-loop clients ingest then fit 65,536-record uploads on a loopback essd",
		run: runEssd,
	}
}

// essdSetup generates the uploads from the workload seed: synth draws
// each upload from a model fitted to a small simulated E4 trace, and the
// characterization and content address essd must answer are computed in
// process. The E4 run keeps SmallConfig's fixed seed, so the seed picks
// the uploads but not the model they come from.
func essdSetup(seed int64) ([]*upload, error) {
	cfg := experiment.SmallConfig(experiment.Combined, essdModelNodes)
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("model trace: %w", err)
	}
	m := model.FitSlice("e4-small", res.Merged, cfg.Nodes, res.DiskSectors, 0)
	opts := fullReport("synth", essdUploadNodes, res.DiskSectors)
	ups := make([]*upload, essdUploads)
	for i := range ups {
		recs, err := synth.Generate(m, synth.Options{Seed: uint64(seed)*essdUploads + uint64(i),
			Nodes: essdUploadNodes}, essdRecords)
		if err != nil {
			return nil, fmt.Errorf("upload %d: %w", i, err)
		}
		if len(recs) != essdRecords {
			return nil, fmt.Errorf("upload %d: generated %d records, want %d", i, len(recs), essdRecords)
		}
		format := trace.FormatBinary
		if i%2 == 1 {
			format = trace.FormatCol
		}
		body, err := encode(recs, format)
		if err != nil {
			return nil, err
		}
		report, _, err := characterize.Characterize(trace.SliceSource(recs), opts)
		if err != nil {
			return nil, err
		}
		ups[i] = &upload{body: body, format: format, records: len(recs),
			opts: opts, report: report, hash: essd.HashRecords(recs)}
	}
	return ups, nil
}

// loadResult is what one closed-loop window measured.
type loadResult struct {
	iters, ingests, fits []float64 // ms
	// done holds, per completed request, when it started and ended
	// (since the window opened) and the records it carried.
	done    []completion
	elapsed time.Duration
}

type completion struct {
	start, end time.Duration
	records    int
}

// rateSlice is the length of the slices records_per_s takes its median
// over.
const rateSlice = time.Second

// recordsPerSecond is the median, over the window's whole rateSlice
// slices, of the records processed in a slice per second, each request's
// records spread evenly over its duration. A median of slices, unlike the
// window's total, is not moved by a few seconds in which the host ran the
// daemon slowly.
func (r loadResult) recordsPerSecond() float64 {
	per := make([]float64, max(int(r.elapsed/rateSlice), 1))
	width := min(rateSlice, r.elapsed)
	for _, c := range r.done {
		for i := range per {
			lo, hi := time.Duration(i)*width, time.Duration(i+1)*width
			if overlap := min(c.end, hi) - max(c.start, lo); overlap > 0 {
				per[i] += float64(c.records) * float64(overlap) / float64(c.end-c.start)
			}
		}
	}
	for i := range per {
		per[i] /= width.Seconds()
	}
	return quantile(per, 0.5)
}

// drive runs essdClients closed-loop clients against d for window: each
// takes the next upload, POSTs it to /v1/traces, then the same body to
// /v1/models, and only then sends its next request.
func drive(o *outcome, d *daemon, ups []*upload, window time.Duration, next *atomic.Int64, models map[string][]byte) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	op := func(what string, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		return o.op(what, err)
	}
	t0 := time.Now()
	for c := 0; c < essdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < window {
				u := ups[int(next.Add(1)-1)%len(ups)]
				it0 := time.Since(t0)
				ilat, err := d.ingest(u)
				ok := op("ingest", err)
				iat := time.Since(t0)
				flat, doc, err := d.fit(u)
				if err == nil {
					mu.Lock()
					err = sameModel(models, u.hash, doc)
					mu.Unlock()
				}
				fok := op("fit", err)
				fat := time.Since(t0)
				mu.Lock()
				if ok {
					res.ingests = append(res.ingests, ms(ilat))
					res.done = append(res.done, completion{it0, iat, u.records})
				}
				if fok {
					res.fits = append(res.fits, ms(flat))
					res.done = append(res.done, completion{iat, fat, u.records})
				}
				if ok && fok {
					res.iters = append(res.iters, ms(fat-it0))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

func runEssd(p params) (*outcome, error) {
	o := newOutcome()
	var ups []*upload
	err := o.setup(essdSetupRepeats, func() (err error) {
		ups, err = essdSetup(p.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.close()
	if p.corrupt {
		// Flip one byte of the first upload's payload: the daemon's
		// characterization or decode must no longer match.
		bad := *ups[0]
		bad.body = append([]byte(nil), bad.body...)
		bad.body[len(bad.body)/2] ^= 0x40
		ups[0] = &bad
	}

	var next atomic.Int64
	models := map[string][]byte{}
	h0 := readRuntime()
	r := drive(o, d, ups, p.seconds, &next, models)
	var host hostRuntime
	host.add(h0, readRuntime())
	o.timing("run_s_p50", quantile(r.iters, 0.5)/1000, "s", len(r.iters))
	o.setClient(r.ingests, r.fits)
	o.timing("records_per_s", r.recordsPerSecond(), "1/s", int(r.elapsed/rateSlice))
	o.setRuntime(host, len(r.iters))
	if !p.traced {
		return o, nil
	}

	// The traced run: the same load under a CPU profile for half the
	// window, then the model's source experiment phase by phase and the
	// essd layers replayed on every upload.
	o.spans = newSpanLog(p.workload, fmt.Sprint(p.seed))
	var tr loadResult
	o.spans.do(0, "essd.load", func(int) {
		var shares map[string]float64
		var samples int
		shares, samples, err = cpuProfile(func() {
			tr = drive(o, d, ups, p.seconds/2, &next, models)
		})
		if err == nil {
			o.setShares(shares, samples)
		}
	})
	if err != nil {
		return nil, err
	}
	o.set("bench.trace_overhead_frac", quantile(tr.iters, 0.5)/quantile(r.iters, 0.5)-1, "ratio")
	page, err := d.metricsPage()
	if err != nil {
		return nil, err
	}
	putServerMetrics(o, page)
	ph, err := runPhased(o.spans, 0, experiment.SmallConfig(experiment.Combined, essdModelNodes))
	o.op("traced model experiment", err)
	ph.put(o)
	replay(o, ups[:essdReplayed])
	return o, nil
}

// replay makes, outside the server, the public calls essd's handlers
// make on each upload body, one span per layer per upload: decode
// (NewReaderSource drained batch by batch), accumulate (the
// characterization set's batch sink), fit (Fitter, Model and the JSON
// document) and hash (HashRecords). Each metric is the per-upload median;
// a decode or a result that differs from the upload's counts as failed.
func replay(o *outcome, ups []*upload) {
	l := o.spans
	durs := map[string][]float64{}
	var err error
	l.do(0, "essd.replay", func(root int) {
		for _, u := range ups {
			var recs []trace.Record
			name := "trace.decode_bin"
			if u.format == trace.FormatCol {
				name = "trace.decode_col"
			}
			durs[name] = append(durs[name], l.do(root, name, func(int) {
				recs, err = drain(u.body)
			}).Seconds())
			if err != nil {
				return
			}
			if len(recs) != u.records {
				err = fmt.Errorf("replay decoded %d records, want %d", len(recs), u.records)
				return
			}
			var report string
			durs["characterize.accumulate"] = append(durs["characterize.accumulate"],
				l.do(root, "characterize.accumulate", func(int) {
					set := characterize.New(u.opts)
					sink := set.Sink().(trace.BatchSink)
					for i := 0; i < len(recs); i += trace.DefaultBatchLen {
						_ = sink.AddBatch(recs[i:min(i+trace.DefaultBatchLen, len(recs))])
					}
					report = set.Report(len(recs))
				}).Seconds())
			durs["model.fit"] = append(durs["model.fit"], l.do(root, "model.fit", func(int) {
				f := model.NewFitter("upload", 0, 1024000, 0)
				for i := 0; i < len(recs); i += trace.DefaultBatchLen {
					_ = f.AddBatch(recs[i:min(i+trace.DefaultBatchLen, len(recs))])
				}
				var b bytes.Buffer
				err = f.Model().WriteJSON(&b)
			}).Seconds())
			if err != nil {
				return
			}
			var hash string
			durs["essd.hash"] = append(durs["essd.hash"], l.do(root, "essd.hash", func(int) {
				hash = essd.HashRecords(recs)
			}).Seconds())
			if hash != u.hash {
				err = errors.New("replay hash differs from the upload's")
				return
			}
			if report != u.report {
				err = errors.New("replay characterization differs from the upload's")
				return
			}
		}
	})
	o.op("replay", err)
	for _, n := range []string{"trace.decode_bin", "trace.decode_col", "characterize.accumulate",
		"model.fit", "essd.hash"} {
		o.timing(n+"_s", quantile(durs[n], 0.5), "s", len(durs[n]))
	}
}

// drain decodes a body the way the ingest handler does.
func drain(body []byte) ([]trace.Record, error) {
	src, err := trace.NewReaderSource(bytes.NewReader(body), "")
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	buf := make([]trace.Record, trace.DefaultBatchLen)
	for {
		n, err := src.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// sameModel requires every fit of one trace to return the same document.
func sameModel(models map[string][]byte, hash string, doc []byte) error {
	if prev, ok := models[hash]; !ok {
		models[hash] = doc
	} else if !bytes.Equal(prev, doc) {
		return fmt.Errorf("model for %s differs between fits", hash)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
