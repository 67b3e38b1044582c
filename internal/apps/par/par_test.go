package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS n and restores the old setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestForCoversEachIndexOnce checks, at several worker counts and loop
// shapes, that every index in the range is passed to exactly one call,
// that each call spans at most grain indices (or the whole range on one
// worker), and that a worker index is in range and never runs two calls
// at once.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, c := range []struct{ first, last, grain int }{
			{0, 0, 4}, {5, 3, 4}, {0, 1, 4}, {0, 4, 4}, {0, 5, 4}, {3, 1003, 7}, {0, 4096, 16}, {10, 11, 1},
		} {
			t.Run(fmt.Sprintf("procs%d/%d-%d/%d", procs, c.first, c.last, c.grain), func(t *testing.T) {
				withProcs(procs, func() {
					n := max(0, c.last-c.first)
					workers := Workers(n, c.grain)
					hits := make([]atomic.Int32, n)
					busy := make([]atomic.Bool, max(workers, 1))
					var calls atomic.Int32
					For(c.first, c.last, c.grain, func(w, lo, hi int) {
						calls.Add(1)
						if w < 0 || w >= workers {
							t.Errorf("worker %d outside [0, %d)", w, workers)
							return
						}
						if !busy[w].CompareAndSwap(false, true) {
							t.Errorf("worker %d runs two calls at once", w)
						}
						defer busy[w].Store(false)
						if lo < c.first || hi > c.last || lo >= hi {
							t.Errorf("call [%d, %d) outside [%d, %d)", lo, hi, c.first, c.last)
							return
						}
						if workers > 1 && hi-lo > c.grain {
							t.Errorf("call [%d, %d) longer than grain %d", lo, hi, c.grain)
						}
						for i := lo; i < hi; i++ {
							hits[i-c.first].Add(1)
						}
					})
					for i := range hits {
						if h := hits[i].Load(); h != 1 {
							t.Fatalf("index %d visited %d times", c.first+i, h)
						}
					}
					if n == 0 && calls.Load() != 0 {
						t.Fatalf("empty range made %d calls", calls.Load())
					}
				})
			})
		}
	}
}

// TestForReraisesHelperPanicOnCaller makes a helper's chunk panic while
// the caller's own chunk waits for it, and requires For to re-raise that
// panic on the calling goroutine only after every chunk already started
// has returned.
func TestForReraisesHelperPanicOnCaller(t *testing.T) {
	withProcs(2, func() {
		helperRan := make(chan struct{})
		var running atomic.Int32
		var got any
		func() {
			defer func() { got = recover() }()
			For(0, 2, 1, func(w, lo, hi int) {
				running.Add(1)
				defer running.Add(-1)
				if w != 0 {
					close(helperRan)
					panic("chunk failed")
				}
				// The caller's first chunk waits for the helper's.
				select {
				case <-helperRan:
				case <-time.After(30 * time.Second):
					t.Error("no helper ran a chunk")
				}
			})
		}()
		if got != "chunk failed" {
			t.Fatalf("recovered %v on the caller, want the helper's panic", got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("For returned with %d chunks still running", n)
		}
	})
}

// TestForReraisesCallerPanic covers a panic in the caller's own chunk.
func TestForReraisesCallerPanic(t *testing.T) {
	withProcs(2, func() {
		defer func() {
			if r := recover(); r != "caller chunk" {
				t.Fatalf("recovered %v, want the caller's panic", r)
			}
		}()
		For(0, 64, 1, func(w, lo, hi int) {
			if w == 0 {
				panic("caller chunk")
			}
		})
		t.Fatal("For returned normally after a panic")
	})
}

// sink keeps the benchmark body's work observable.
var sink atomic.Int64

func sum(_, lo, hi int) {
	s := 0
	for i := lo; i < hi; i++ {
		s += i
	}
	sink.Add(int64(s))
}

// TestForAllocatesNothingWarm: with a body made once, a parallel For
// reuses its loop state and starts its helpers without allocating.
func TestForAllocatesNothingWarm(t *testing.T) {
	withProcs(2, func() {
		body := sum
		For(0, 1<<12, 64, body)
		if allocs := testing.AllocsPerRun(100, func() { For(0, 1<<12, 64, body) }); allocs != 0 {
			t.Fatalf("warm For made %v allocations, want 0", allocs)
		}
	})
}
