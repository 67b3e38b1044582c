// Package par runs the independent iterations of an app kernel's loop on
// up to GOMAXPROCS cores: the Barnes–Hut force pass and the PPM sweeps.
// A loop only ever writes per-iteration state, so its stored results are
// bit-identical at any worker count; the sim process that calls For stays
// the only goroutine touching the simulated machine, and virtual time
// does not see the loop at all.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports how many workers For uses for n iterations in chunks of
// grain: one per chunk, at most runtime.GOMAXPROCS(0). A caller keeping
// per-worker scratch sizes it by this, right before the call.
func Workers(n, grain int) int {
	if n <= 0 {
		return 0
	}
	return min(runtime.GOMAXPROCS(0), (n+grain-1)/grain)
}

// For calls body(worker, lo, hi) over consecutive chunks [lo, hi) of at
// most grain (> 0) iterations covering [first, last), and returns once
// every call has returned. worker is in [0, Workers(last-first, grain)),
// and no two calls with the same worker run at once, so body may keep
// scratch per worker. The calling goroutine is worker 0. Helpers claim
// chunks from a shared counter, so a helper whose core is taken slows the
// loop by at most one chunk. With one worker, body runs once, over the
// whole range, on the caller.
//
// A panic in body is re-raised on the caller after every worker has
// stopped; when several chunks panic, one of those panics is re-raised.
//
// For allocates nothing once warm, provided body is a func value made
// once, not a closure built per call.
func For(first, last, grain int, body func(worker, lo, hi int)) {
	workers := Workers(last-first, grain)
	if workers == 0 {
		return
	}
	if workers == 1 {
		body(0, first, last)
		return
	}
	l := loops.Get().(*loop)
	l.body, l.last, l.grain = body, last, grain
	l.next.Store(int64(first))
	l.joined.Store(0)
	l.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		handoff <- l
		go help() //essvet:ignore determinism — barrier-joined: For waits for every helper before returning
	}
	l.run(0)
	l.wg.Wait()
	r := l.panicked
	l.body, l.panicked = nil, nil
	loops.Put(l)
	if r != nil {
		panic(r)
	}
}

// loop is the state one For call shares with its helpers.
type loop struct {
	body        func(worker, lo, hi int)
	last, grain int
	next        atomic.Int64 // start of the next unclaimed chunk
	joined      atomic.Int32 // helpers started so far; helper k is worker k
	wg          sync.WaitGroup

	mu       sync.Mutex
	panicked any // the first panic recovered from body; never nil once set
}

var (
	loops = sync.Pool{New: func() any { return new(loop) }}
	// handoff passes each helper its loop. For sends once per helper it
	// starts and every helper receives once, so a full buffer only makes
	// For wait for a started helper; the size just keeps that rare.
	handoff = make(chan *loop, 64)
)

// help is a helper goroutine's body: it runs chunks of the loop it is
// handed, then releases For.
func help() {
	l := <-handoff
	defer l.wg.Done()
	l.run(int(l.joined.Add(1)))
}

// run claims and runs chunks as worker w until none is left. A panic in
// body is recorded for For to re-raise and stops every worker claiming
// further chunks.
func (l *loop) run(w int) {
	defer func() {
		if r := recover(); r != nil {
			l.mu.Lock()
			if l.panicked == nil {
				l.panicked = r
			}
			l.mu.Unlock()
			l.next.Store(int64(l.last))
		}
	}()
	for {
		lo := int(l.next.Add(int64(l.grain))) - l.grain
		if lo >= l.last {
			return
		}
		l.body(w, lo, min(lo+l.grain, l.last))
	}
}
