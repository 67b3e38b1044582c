package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer, opened by the benchmark around a
// public function of the module it names. Spans never reach into
// production code: the benchmark opens them around its own calls.
type span struct {
	ID, Parent int // Parent 0 marks a root
	Name       string
	Start, End time.Time
}

// spanLog keeps a traced run's spans in memory until they are exported.
// Only the benchmark's main goroutine opens spans, so it needs no lock.
type spanLog struct {
	workload string
	run      string
	origin   time.Time
	spans    []span
}

func newSpanLog(workload, run string) *spanLog {
	return &spanLog{workload: workload, run: run, origin: time.Now()}
}

// do runs fn inside a span named name under parent and returns the span's
// id, so callers can nest further spans beneath it.
func (l *spanLog) do(parent int, name string, fn func(id int)) time.Duration {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Now()})
	fn(id)
	end := time.Now()
	l.spans[id-1].End = end
	return end.Sub(l.spans[id-1].Start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its direct children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		ks, ke := k.Start, k.End
		if ks.Before(s.Start) {
			ks = s.Start
		}
		if ke.After(s.End) {
			ke = s.End
		}
		if !ke.After(ks) {
			continue
		}
		if curE.IsZero() || ks.After(curE) {
			total += curE.Sub(curS)
			curS, curE = ks, ke
		} else if ke.After(curE) {
			curE = ke
		}
	}
	return total + curE.Sub(curS)
}

// writeChrome renders the spans as Chrome trace-event JSON, the format
// iotrace.WriteChrome emits and Perfetto loads: "X" complete events in
// microseconds since the log's origin, one track per workload run.
func (l *spanLog) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%s}}`,
		strconv.Quote(l.workload+" run "+l.run))
	for _, s := range l.spans {
		fmt.Fprintf(bw, `,{"name":%s,"cat":"bench","ph":"X","ts":%d,"dur":%d,"pid":1,"tid":1,"args":{"id":%d,"parent":%d,"workload":%s,"run":%s}}`,
			strconv.Quote(s.Name), s.Start.Sub(l.origin).Microseconds(), s.End.Sub(s.Start).Microseconds(),
			s.ID, s.Parent, strconv.Quote(l.workload), strconv.Quote(l.run))
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
