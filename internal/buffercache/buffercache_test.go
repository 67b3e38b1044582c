package buffercache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"essio/internal/blockio"
	"essio/internal/disk"
	"essio/internal/driver"
	"essio/internal/sim"
	"essio/internal/trace"
)

type rig struct {
	e     *sim.Engine
	disk  *disk.Disk
	q     *blockio.Queue
	ring  *trace.Ring
	cache *Cache
}

func newRig(t *testing.T, capacity int) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	d := disk.New(e, disk.DefaultParams())
	q := blockio.New(e)
	ring := trace.NewRing(1 << 16)
	drv := driver.New(e, d, q, 0, ring)
	drv.SetLevel(driver.LevelFull)
	return &rig{e: e, disk: d, q: q, ring: ring, cache: New(e, q, capacity)}
}

// run executes fn as a simulated process and drains the engine.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.e.Spawn("test", fn)
	r.e.RunUntilIdle()
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 10, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 10, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	s := r.cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("Misses=%d Hits=%d, want 1/1", s.Misses, s.Hits)
	}
	if got := len(r.ring.Drain(0)); got != 1 {
		t.Fatalf("%d physical reads, want 1", got)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	r := newRig(t, 64)
	in := bytes.Repeat([]byte{0xC3}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 7, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		got, err := r.cache.ReadBlock(p, 7, trace.OriginData)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, in) {
			t.Error("read-after-write mismatch")
		}
	})
	// Write-back: nothing hits the disk until a flush.
	if got := len(r.ring.Drain(0)); got != 0 {
		t.Fatalf("%d physical I/Os before flush, want 0", got)
	}
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", r.cache.DirtyCount())
	}
}

func TestSyncPersistsToDisk(t *testing.T) {
	r := newRig(t, 64)
	in := bytes.Repeat([]byte{0x7E}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 5, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.Sync(p); err != nil {
			t.Error(err)
		}
	})
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount after sync = %d", r.cache.DirtyCount())
	}
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(5*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("disk contents wrong after sync")
	}
}

func TestWritebackAllAsync(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 5; i++ {
			if err := r.cache.WriteBlock(p, i, make([]byte, BlockSize), trace.OriginData); err != nil {
				t.Error(err)
			}
		}
	})
	n := r.cache.WritebackAll(trace.OriginLog)
	if n != 5 {
		t.Fatalf("WritebackAll = %d, want 5", n)
	}
	r.e.RunUntilIdle()
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d after writeback completes", r.cache.DirtyCount())
	}
	// Contiguous dirty blocks must have merged into one physical write.
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].KB() != 5 {
		t.Fatalf("writeback produced %d requests (first %v); want one 5 KB request", len(recs), recs)
	}
}

func TestRedirtyDuringFlightStaysDirty(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 9, bytes.Repeat([]byte{1}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	r.cache.WritebackAll(trace.OriginData) // write in flight
	// Re-dirty while the write-back is still in flight.
	r.e.Spawn("redirty", func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 9, bytes.Repeat([]byte{2}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	r.e.RunUntilIdle()
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d; re-dirtied block must stay dirty", r.cache.DirtyCount())
	}
}

func TestEvictionLRU(t *testing.T) {
	r := newRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 4; i++ {
			if _, err := r.cache.ReadBlock(p, i, trace.OriginData); err != nil {
				t.Error(err)
			}
		}
		// Touch block 0 so block 1 is LRU.
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 100, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	if r.cache.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.cache.Len())
	}
	r.ring.Drain(0)
	// Block 0 must still be a hit; block 1 must re-miss.
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 1, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].Sector != 1*SectorsPerBlock {
		t.Fatalf("expected exactly one re-read of block 1, got %v", recs)
	}
}

func TestDirtyEvictionFlushesFirst(t *testing.T) {
	r := newRig(t, 2)
	in := bytes.Repeat([]byte{0xAB}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		// Fill the whole cache with dirty blocks so the next allocation
		// has no clean victim and must flush block 50 (the LRU) first.
		if err := r.cache.WriteBlock(p, 50, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.WriteBlock(p, 60, bytes.Repeat([]byte{0xCD}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(50*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("dirty block lost on eviction")
	}
}

func TestPrefetchAvoidsLaterMiss(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		blocks := []uint32{20, 21, 22, 23}
		if err := r.cache.Prefetch(p, blocks, trace.OriginData); err != nil {
			t.Error(err)
		}
		p.Sleep(100 * sim.Millisecond) // let the reads land
		for _, b := range blocks {
			if _, err := r.cache.ReadBlock(p, b, trace.OriginData); err != nil {
				t.Error(err)
			}
		}
	})
	s := r.cache.Stats()
	if s.Prefetches != 4 {
		t.Fatalf("Prefetches = %d, want 4", s.Prefetches)
	}
	if s.Misses != 0 || s.Hits != 4 {
		t.Fatalf("Misses=%d Hits=%d after prefetch", s.Misses, s.Hits)
	}
	// The four contiguous prefetches must merge into one physical read.
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].KB() != 4 {
		t.Fatalf("prefetch produced %v, want one 4 KB read", recs)
	}
}

func TestReadDuringPrefetchWaits(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.Prefetch(p, []uint32{30}, trace.OriginData); err != nil {
			t.Error(err)
		}
		// Immediately read the same block: must wait for the in-flight
		// I/O, not issue a second one.
		if _, err := r.cache.ReadBlock(p, 30, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 {
		t.Fatalf("%d physical reads, want 1", len(recs))
	}
}

func TestUpdateBlockReadModifyWrite(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 3, make([]byte, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.Sync(p); err != nil {
			t.Error(err)
		}
		if err := r.cache.UpdateBlock(p, 3, trace.OriginMeta, func(d []byte) { d[100] = 0xEE }); err != nil {
			t.Error(err)
		}
		got, err := r.cache.ReadBlock(p, 3, trace.OriginData)
		if err != nil {
			t.Error(err)
		}
		if got[100] != 0xEE {
			t.Error("update not visible")
		}
	})
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d after update", r.cache.DirtyCount())
	}
}

func TestWriteBlockWrongSize(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 0, make([]byte, 100), trace.OriginData); err == nil {
			t.Error("want error for short write")
		}
	})
}

func TestInvalidate(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 8, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.WriteBlock(p, 9, make([]byte, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	if !r.cache.Invalidate(8) {
		t.Fatal("clean block must invalidate")
	}
	if r.cache.Invalidate(9) {
		t.Fatal("dirty block must not invalidate")
	}
	if r.cache.Invalidate(12345) {
		t.Fatal("absent block must not invalidate")
	}
}

// Property: for arbitrary write/read interleavings, the cache returns the
// most recently written contents for each block (read-your-writes).
func TestQuickReadYourWrites(t *testing.T) {
	f := func(ops []uint16) bool {
		e := sim.NewEngine(6)
		defer e.Close()
		d := disk.New(e, disk.DefaultParams())
		q := blockio.New(e)
		drv := driver.New(e, d, q, 0, trace.NewRing(4096))
		drv.SetLevel(driver.LevelOff)
		cache := New(e, q, 8)
		want := map[uint32]byte{}
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			for i, op := range ops {
				if i > 60 {
					break
				}
				block := uint32(op % 16)
				if op%3 == 0 { // write
					val := byte(i + 1)
					data := bytes.Repeat([]byte{val}, BlockSize)
					if err := cache.WriteBlock(p, block, data, trace.OriginData); err != nil {
						ok = false
						return
					}
					want[block] = val
				} else { // read
					got, err := cache.ReadBlock(p, block, trace.OriginData)
					if err != nil {
						ok = false
						return
					}
					if got[0] != want[block] {
						ok = false
						return
					}
				}
				if op%7 == 0 {
					cache.WritebackAll(trace.OriginData)
				}
			}
			if err := cache.Sync(p); err != nil {
				ok = false
			}
		})
		e.RunUntilIdle()
		// After sync, disk holds the latest contents too.
		for block, val := range want {
			out := make([]byte, BlockSize)
			if err := d.ReadAt(block*SectorsPerBlock, out); err != nil {
				return false
			}
			if out[0] != val {
				return false
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityPanic(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for capacity < 2")
		}
	}()
	New(e, blockio.New(e), 1)
}

// Regression test: under heavy contention (full cache, many processes
// faulting on overlapping blocks), getOrCreate used to create duplicate
// buffers for one key after parking, and evicting the orphan then deleted
// the live buffer's map entry. Every block must stay resident after its
// ReadBlock returns.
func TestContendedCacheNoOrphans(t *testing.T) {
	e := sim.NewEngine(13)
	defer e.Close()
	d := disk.New(e, disk.DefaultParams())
	q := blockio.New(e)
	drv := driver.New(e, d, q, 0, trace.NewRing(1<<16))
	drv.SetLevel(driver.LevelOff)
	cache := New(e, q, 4) // tiny: constant eviction pressure
	done := 0
	for pid := 0; pid < 6; pid++ {
		pid := pid
		e.Spawn("hammer", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				block := uint32((pid + i) % 10)
				if i%3 == 0 {
					err := cache.UpdateBlock(p, block, trace.OriginMeta, func(d []byte) {
						d[0] = byte(pid)
					})
					if err != nil {
						t.Errorf("update: %v", err)
						return
					}
				} else {
					if _, err := cache.ReadBlock(p, block, trace.OriginData); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				if i%5 == 0 {
					cache.WritebackAll(trace.OriginMeta)
				}
			}
			done++
		})
	}
	e.RunUntilIdle()
	if done != 6 {
		t.Fatalf("%d/6 hammers finished", done)
	}
	if cache.Len() > 4 {
		t.Fatalf("cache over capacity: %d", cache.Len())
	}
}

func TestWriteThroughHitsDiskImmediately(t *testing.T) {
	r := newRig(t, 64)
	r.cache.SetWriteThrough(true)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 11, bytes.Repeat([]byte{0x44}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].Op != trace.Write {
		t.Fatalf("write-through produced %v, want one immediate write", recs)
	}
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d after write-through completes", r.cache.DirtyCount())
	}
	// Contents really on the platters.
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(11*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0x44 {
		t.Fatal("write-through data not on disk")
	}
}

// scanVictim is the linear LRU scan findVictim did before the victim
// index, kept as its oracle: the least recently used non-busy buffer,
// preferring clean ones.
func scanVictim(c *Cache) *buffer {
	var dirty *buffer
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*buffer)
		if b.busy {
			continue
		}
		if !b.dirty {
			return b
		}
		if dirty == nil {
			dirty = b
		}
	}
	return dirty
}

// scanSyncVictim is the scan Sync did for its next buffer to flush: the
// least recently used non-busy dirty buffer.
func scanSyncVictim(c *Cache) *buffer {
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		if b := e.Value.(*buffer); b.dirty && !b.busy {
			return b
		}
	}
	return nil
}

// checkIndex compares the victim index against the oracle scans and
// checks its bookkeeping: every resident idle buffer is filed exactly
// once, in the heap for its clean/dirty state, busy buffers are filed
// nowhere, both heaps are ordered, and DirtyCount equals a walk of the
// block map.
func checkIndex(c *Cache) error {
	if got, want := c.findVictim(), scanVictim(c); got != want {
		return fmt.Errorf("findVictim = %v, scan picks %v", blockOf(got), blockOf(want))
	}
	if got, want := c.idleDirty.least(), scanSyncVictim(c); got != want {
		return fmt.Errorf("sync victim = %v, scan picks %v", blockOf(got), blockOf(want))
	}
	if c.lru.Len() != len(c.blocks) {
		return fmt.Errorf("lru holds %d buffers, block map %d", c.lru.Len(), len(c.blocks))
	}
	filed := map[*idleHeap]int{}
	var prev uint64
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*buffer)
		if c.blocks[b.block] != b {
			return fmt.Errorf("block %d: lru buffer is not the resident one", b.block)
		}
		if b.stamp <= prev {
			return fmt.Errorf("block %d: stamp %d not above the next older buffer's %d", b.block, b.stamp, prev)
		}
		prev = b.stamp
		var want *idleHeap
		if !b.busy {
			want = &c.idleClean
			if b.dirty {
				want = &c.idleDirty
			}
		}
		if b.idle != want {
			return fmt.Errorf("block %d (busy=%v dirty=%v) filed in the wrong heap", b.block, b.busy, b.dirty)
		}
		if want == nil {
			continue
		}
		if b.slot >= len(*want) || (*want)[b.slot] != b {
			return fmt.Errorf("block %d: slot %d does not hold it", b.block, b.slot)
		}
		if b.key > b.stamp {
			return fmt.Errorf("block %d: key %d above stamp %d", b.block, b.key, b.stamp)
		}
		filed[want]++
	}
	for _, h := range []*idleHeap{&c.idleClean, &c.idleDirty} {
		if len(*h) != filed[h] {
			return fmt.Errorf("heap holds %d buffers, %d resident buffers filed there", len(*h), filed[h])
		}
		for i := 1; i < len(*h); i++ {
			if (*h)[(i-1)/2].key > (*h)[i].key {
				return fmt.Errorf("heap order broken at slot %d", i)
			}
		}
	}
	dirty := 0
	for _, b := range c.blocks {
		if b.dirty {
			dirty++
		}
	}
	if c.DirtyCount() != dirty {
		return fmt.Errorf("DirtyCount = %d, block map holds %d dirty", c.DirtyCount(), dirty)
	}
	return nil
}

func blockOf(b *buffer) any {
	if b == nil {
		return nil
	}
	return b.block
}

// monitor spawns a process that runs checkIndex every 100 µs of virtual
// time, so completions that land between the workers' steps are checked
// too, until *live drops to zero. The first failure is stored in *failed.
func monitor(e *sim.Engine, c *Cache, live *int, failed *error) {
	e.Spawn("monitor", func(p *sim.Proc) {
		for *live > 0 && *failed == nil {
			if err := checkIndex(c); err != nil {
				*failed = fmt.Errorf("at %v: %w", e.Now(), err)
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
}

// TestVictimIndexMatchesScan drives seeded random mixes of every cache
// operation from three processes, with I/O completions and injected
// media errors landing in between, and checks the victim index against
// the oracle scans after every step.
func TestVictimIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		e := sim.NewEngine(seed)
		d := disk.New(e, disk.DefaultParams())
		q := blockio.New(e)
		drv := driver.New(e, d, q, 0, trace.NewRing(1<<16))
		drv.SetLevel(driver.LevelOff)
		c := New(e, q, 12)
		rng := rand.New(rand.NewSource(seed))
		var failed error
		live := 3
		step := func(p *sim.Proc, i int) {
			blk := uint32(rng.Intn(40))
			data := make([]byte, BlockSize)
			data[0] = byte(i)
			switch rng.Intn(12) {
			case 0, 1, 2:
				_, _ = c.ReadBlock(p, blk, trace.OriginData)
			case 3, 4:
				_ = c.WriteBlock(p, blk, data, trace.OriginData)
			case 5:
				_ = c.UpdateBlock(p, blk, trace.OriginMeta, func(b []byte) { b[1]++ })
			case 6:
				run := []uint32{blk, blk + 1, blk + 2, blk + 3}
				_ = c.Prefetch(p, run[:1+rng.Intn(4)], trace.OriginData)
			case 7:
				c.WritebackAll(trace.OriginMeta)
			case 8:
				c.SetWriteThrough(rng.Intn(4) == 0)
			case 9:
				_ = c.Sync(p)
			case 10:
				if rng.Intn(2) == 0 {
					c.Invalidate(blk)
				} else {
					c.InvalidateClean()
				}
			case 11:
				// Media errors exercise the failed read, prefetch and
				// write-back paths; clearing them lets flushes succeed.
				if rng.Intn(3) == 0 {
					d.MarkBad(blk*SectorsPerBlock, SectorsPerBlock)
				} else {
					d.ClearBad()
				}
			}
		}
		for w := 0; w < live; w++ {
			e.Spawn("worker", func(p *sim.Proc) {
				defer func() { live-- }()
				for i := 0; i < 400 && failed == nil; i++ {
					step(p, i)
					if err := checkIndex(c); err != nil {
						failed = fmt.Errorf("step %d: %w", i, err)
						return
					}
					if rng.Intn(3) == 0 {
						p.Sleep(sim.Duration(rng.Intn(20_000)) * sim.Microsecond)
					}
				}
			})
		}
		monitor(e, c, &live, &failed)
		e.RunUntilIdle()
		if failed == nil {
			failed = checkIndex(c)
		}
		e.Close()
		if failed != nil {
			t.Fatalf("seed %d: %v", seed, failed)
		}
		if live != 0 {
			t.Fatalf("seed %d: %d workers never finished", seed, live)
		}
	}
}

// TestVictimIndexFullDirtyCache is the mkfs shape: a full cache of dirty
// buffers takes a stream of new blocks while a few hot bitmap-like blocks
// are updated in between, so every new block flushes and evicts the least
// recently used dirty buffer, and a final Sync drains the dirty heap.
func TestVictimIndexFullDirtyCache(t *testing.T) {
	const capacity = 64
	r := newRig(t, capacity)
	var failed error
	live := 1
	monitor(r.e, r.cache, &live, &failed)
	r.run(t, func(p *sim.Proc) {
		defer func() { live-- }()
		data := bytes.Repeat([]byte{0x5A}, BlockSize)
		for blk := uint32(0); blk < 400 && failed == nil; blk++ {
			if err := r.cache.WriteBlock(p, blk, data, trace.OriginMeta); err != nil {
				failed = err
				return
			}
			if blk%5 == 0 {
				hot := 10_000 + blk%3
				if err := r.cache.UpdateBlock(p, hot, trace.OriginMeta, func(b []byte) { b[blk%BlockSize]++ }); err != nil {
					failed = err
					return
				}
			}
			if blk >= capacity && r.cache.DirtyCount() != r.cache.Len() {
				failed = fmt.Errorf("block %d: %d of %d buffers dirty, want all", blk, r.cache.DirtyCount(), r.cache.Len())
				return
			}
			if err := checkIndex(r.cache); err != nil {
				failed = fmt.Errorf("block %d: %w", blk, err)
				return
			}
		}
		if failed == nil {
			failed = r.cache.Sync(p)
		}
	})
	if failed == nil {
		failed = checkIndex(r.cache)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if r.cache.DirtyCount() != 0 || len(r.cache.idleClean) != capacity {
		t.Fatalf("after Sync: %d dirty, %d idle clean; want 0 and %d", r.cache.DirtyCount(), len(r.cache.idleClean), capacity)
	}
	if s := r.cache.Stats(); s.Evictions < 400-capacity {
		t.Fatalf("%d evictions, want at least %d", s.Evictions, 400-capacity)
	}
}
