package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"essio/internal/characterize"
	"essio/internal/essd"
	"essio/internal/model"
	"essio/internal/trace"
)

// daemon is an in-process essd serving on a loopback port, with the HTTP
// client the benchmark drives it through.
type daemon struct {
	srv    *essd.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("essd listen: %w", err)
	}
	d := &daemon{
		srv:    essd.NewServer(essd.Config{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the HTTP server and the daemon's workers and waits for the
// serving goroutine to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// upload is one request body with the answers essd must give for it.
type upload struct {
	body    []byte
	format  string // trace.FormatBinary or trace.FormatCol
	records int
	opts    characterize.Options // the ingest request's flags
	report  string               // characterize.Characterize of the same records
	hash    string               // essd.HashRecords of the same records
}

// fullReport selects every characterization section, as the benchmark's
// reports and ingest requests do.
func fullReport(label string, nodes int, disk uint32) characterize.Options {
	return characterize.Options{Label: label, Nodes: nodes, DiskSectors: disk,
		Hist: true, Spatial: true, Temporal: true, Queue: true, Origins: true}
}

// query renders o as /v1/traces flags; every section flag is on.
func query(o characterize.Options) string {
	return fmt.Sprintf("label=%s&nodes=%d&disk=%d&hist=1&spatial=1&temporal=1&queue=1&origins=1",
		o.Label, o.Nodes, o.DiskSectors)
}

// ingest POSTs u to /v1/traces?store=1 and checks the streamed answer:
// the final event must be done, its characterization byte-equal to
// u.report and its hash equal to u.hash. The latency runs from sending
// the request to reading the last NDJSON event.
func (d *daemon) ingest(u *upload) (time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/v1/traces?store=1&"+query(u.opts), "application/octet-stream",
		bytes.NewReader(u.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("ingest status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("ingest stream: %w", err)
	}
	lat := time.Since(t0)
	var ev struct {
		Event            string `json:"event"`
		Records          int    `json:"records"`
		Hash             string `json:"hash"`
		Characterization string `json:"characterization"`
		Error            string `json:"error"`
	}
	if err := json.Unmarshal(last, &ev); err != nil {
		return 0, fmt.Errorf("ingest final event: %w", err)
	}
	switch {
	case ev.Event != "done":
		return 0, fmt.Errorf("ingest ended with %q event: %s", ev.Event, ev.Error)
	case ev.Records != u.records:
		return 0, fmt.Errorf("ingest counted %d records, want %d", ev.Records, u.records)
	case ev.Hash != u.hash:
		return 0, fmt.Errorf("ingest hash %s, want %s", ev.Hash, u.hash)
	case ev.Characterization != u.report:
		return 0, errors.New("ingest characterization differs from characterize.Characterize")
	}
	return lat, nil
}

// fit POSTs u to /v1/models and checks the answer names u's content
// address and carries a model of u's records. It returns the model
// document so callers can check every fit of one trace answers alike.
func (d *daemon) fit(u *upload) (time.Duration, []byte, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/v1/models", "application/octet-stream",
		bytes.NewReader(u.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("fit body: %w", err)
	}
	lat := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("fit status %d: %s", resp.StatusCode, strings.TrimSpace(string(doc)))
	}
	if h := resp.Header.Get("X-Essd-Model-Hash"); h != u.hash {
		return 0, nil, fmt.Errorf("fit hash %s, want %s", h, u.hash)
	}
	m, err := model.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		return 0, nil, fmt.Errorf("fit model: %w", err)
	}
	if m.Requests != u.records {
		return 0, nil, fmt.Errorf("fit model covers %d requests, want %d", m.Requests, u.records)
	}
	return lat, doc, nil
}

// metricsPage scrapes the daemon's /metrics page.
func (d *daemon) metricsPage() (string, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	return string(text), err
}

// putServerMetrics derives the essd layer's own view from a /metrics
// page: the server-side ingest latency median (from its histogram
// buckets), the share of fits answered from cache (each still ran a full
// fit), the fit count behind that share, and the traces retained. A
// workload without a daemon passes an empty page and reports zeros.
func putServerMetrics(o *outcome, page string) {
	vals := map[string]float64{}
	var bounds, cum []float64
	for _, l := range strings.Split(page, "\n") {
		f := strings.Fields(l)
		if len(f) != 2 || strings.HasPrefix(l, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		const hist = `essio_wall_ingest_latency_us_bucket{le="`
		if strings.HasPrefix(f[0], hist) {
			le := strings.TrimSuffix(strings.TrimPrefix(f[0], hist), `"}`)
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				b = math.Inf(1)
			}
			bounds, cum = append(bounds, b), append(cum, v)
			continue
		}
		vals[f[0]] = v
	}
	hits, misses := vals["essio_wall_models_cache_hits"], vals["essio_wall_models_cache_misses"]
	o.set("essd.ingest_server_ms_p50", histQuantile(bounds, cum, 0.5)/1000, "ms")
	o.set("essd.wasted_fit_ratio", hits/math.Max(hits+misses, 1), "ratio")
	o.set("essd.fits", hits+misses, "count")
	o.set("essd.stored_traces", vals["essio_wall_store_traces"], "count")
}

// setClient reports client-side request latencies in ms; a workload that
// sends no requests reports zeros over no samples.
func (o *outcome) setClient(ingests, fits []float64) {
	o.timing("ingest_p50_ms", quantile(ingests, 0.5), "ms", len(ingests))
	o.timing("ingest_p90_ms", quantile(ingests, 0.9), "ms", len(ingests))
	o.timing("fit_p50_ms", quantile(fits, 0.5), "ms", len(fits))
	o.timing("fit_p90_ms", quantile(fits, 0.9), "ms", len(fits))
}

// histQuantile estimates a quantile from cumulative Prometheus buckets,
// interpolating linearly inside the bucket that holds it.
func histQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	lo, below := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			if c == below {
				return hi
			}
			return lo + (hi-lo)*(rank-below)/(c-below)
		}
		lo, below = bounds[i], c
	}
	return lo
}

// encode renders recs in the given wire format.
func encode(recs []trace.Record, format string) ([]byte, error) {
	var b bytes.Buffer
	var err error
	if format == trace.FormatCol {
		err = trace.WriteCol(&b, recs)
	} else {
		err = trace.WriteAll(&b, recs)
	}
	return b.Bytes(), err
}
