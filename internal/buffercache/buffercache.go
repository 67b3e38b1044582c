// Package buffercache implements the kernel's 1 KB-block buffer cache, the
// layer responsible for the dominant 1 KB request class the paper observes:
// all filesystem I/O passes through fixed 1 KB buffers, small requests
// therefore hit the disk as 1 KB transfers, and sequential streams grow to
// multi-kilobyte physical requests only through read-ahead plus elevator
// merging.
//
// The cache is write-back: writes dirty buffers in memory, and a periodic
// "update" daemon (see package kernel) pushes aged dirty buffers to disk,
// which is why the paper's baseline shows bursts of 1 KB writes even with no
// user load.
package buffercache

import (
	"container/list"
	"fmt"
	"sort"

	"essio/internal/blockio"
	"essio/internal/iotrace"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// BlockSize is the buffer/block size in bytes (Linux 1.x ext2 default).
const BlockSize = 1024

// SectorsPerBlock is how many 512 B sectors one block covers.
const SectorsPerBlock = BlockSize / trace.SectorSize

// DefaultReadAhead is the read-ahead window in blocks (16 KB), the source of
// the paper's "requests approaching 16 KB" during streaming reads.
const DefaultReadAhead = 16

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Prefetches uint64
	Writebacks uint64
	Evictions  uint64
	FlushWaits uint64
}

// buffer is one cached block.
type buffer struct {
	block  uint32
	data   []byte
	valid  bool
	dirty  bool
	busy   bool // I/O in flight
	gen    uint64
	stamp  uint64       // recency: raised at creation and on every touch
	origin trace.Origin // who dirtied this buffer (for write-back tagging)
	req    uint64       // I/O journey that dirtied this buffer (write-back attribution)
	elem   *list.Element
	wq     *sim.WaitQueue

	// Victim-index position: idle is the heap holding the buffer (nil
	// while busy or after eviction), slot its index there, and key the
	// stamp it was filed under (at most stamp; see idleHeap).
	idle *idleHeap
	slot int
	key  uint64
}

// Cache is one node's buffer cache over one block queue.
type Cache struct {
	e            *sim.Engine
	q            *blockio.Queue
	capacity     int
	blocks       map[uint32]*buffer
	lru          *list.List // front = most recently used
	clock        uint64     // last recency stamp issued
	idleClean    idleHeap   // non-busy clean buffers by recency
	idleDirty    idleHeap   // non-busy dirty buffers by recency
	dirty        int        // dirty buffers, busy or not
	stats        Stats
	readAhead    int
	writeThrough bool
	om           cacheMetrics
	journal      *iotrace.Journal
}

// SetJournal attaches the node's per-request I/O journal; nil detaches.
// The cache journals hits, miss fills, and writebacks; delayed writes
// are attributed to the journey that dirtied the buffer (buffer.req),
// which is how causal attribution survives write-back.
func (c *Cache) SetJournal(j *iotrace.Journal) { c.journal = j }

// cacheMetrics holds the cache's observability handles; the zero value
// records nothing.
type cacheMetrics struct {
	hits       *obs.Counter
	misses     *obs.Counter
	prefetches *obs.Counter
	writebacks *obs.Counter
	evictions  *obs.Counter
	flushWaits *obs.Counter
	resident   *obs.Gauge
	dirty      *obs.Gauge
}

// Instrument registers the cache's metrics in reg: the hit/miss/
// writeback counters mirror Stats live, and two gauges track residency
// and dirty-buffer population with high-water marks.
func (c *Cache) Instrument(reg *obs.Registry) {
	c.om = cacheMetrics{
		hits:       reg.Counter("bcache/hits"),
		misses:     reg.Counter("bcache/misses"),
		prefetches: reg.Counter("bcache/prefetches"),
		writebacks: reg.Counter("bcache/writebacks"),
		evictions:  reg.Counter("bcache/evictions"),
		flushWaits: reg.Counter("bcache/flush_waits"),
		resident:   reg.Gauge("bcache/resident"),
		dirty:      reg.Gauge("bcache/dirty"),
	}
}

// New returns a cache of capacity blocks over queue q.
func New(e *sim.Engine, q *blockio.Queue, capacity int) *Cache {
	if capacity < 2 {
		panic("buffercache: capacity must be at least 2 blocks")
	}
	return &Cache{
		e: e, q: q, capacity: capacity,
		blocks:    make(map[uint32]*buffer),
		lru:       list.New(),
		readAhead: DefaultReadAhead,
	}
}

// SetReadAhead changes the read-ahead window in blocks (0 disables).
func (c *Cache) SetReadAhead(blocks int) { c.readAhead = blocks }

// SetWriteThrough switches the cache to write-through: every write is
// submitted to disk immediately instead of waiting for the update daemon
// (ablation against the default write-back policy).
func (c *Cache) SetWriteThrough(on bool) { c.writeThrough = on }

// ReadAhead reports the current read-ahead window in blocks.
func (c *Cache) ReadAhead() int { return c.readAhead }

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyCount reports how many buffers are dirty.
func (c *Cache) DirtyCount() int { return c.dirty }

// Len reports the number of resident buffers.
func (c *Cache) Len() int { return len(c.blocks) }

// touch makes b the most recently used buffer. It only raises b's stamp:
// the victim index re-files b lazily, when b reaches the top of its heap.
func (c *Cache) touch(b *buffer) {
	if b.stamp == c.clock {
		return // already the most recently used
	}
	c.lru.MoveToFront(b.elem)
	c.clock++
	b.stamp = c.clock
}

// setBusy and setDirty are the only writers of b.busy and b.dirty, so the
// victim index and the dirty count follow every change of either.
func (c *Cache) setBusy(b *buffer, busy bool) {
	b.busy = busy
	c.reindex(b)
}

func (c *Cache) setDirty(b *buffer, dirty bool) {
	if b.dirty == dirty {
		return
	}
	b.dirty = dirty
	if dirty {
		c.dirty++
		c.om.dirty.Add(1)
	} else {
		c.dirty--
		c.om.dirty.Add(-1)
	}
	c.reindex(b)
}

// reindex files b in the idle heap its state calls for: none while busy,
// else the clean or the dirty one.
func (c *Cache) reindex(b *buffer) {
	var want *idleHeap
	if !b.busy {
		want = &c.idleClean
		if b.dirty {
			want = &c.idleDirty
		}
	}
	if b.idle == want {
		return
	}
	if b.idle != nil {
		b.idle.remove(b)
	}
	if want != nil {
		want.push(b)
	}
}

// getOrCreate returns the buffer for block, evicting as needed. The caller
// decides validity/IO. May sleep (eviction of a dirty buffer flushes it).
func (c *Cache) getOrCreate(p *sim.Proc, block uint32) (*buffer, error) {
	for {
		// Re-check on every iteration: flushing or waiting below parks
		// this process, and another process may have created (or
		// evicted) this block's buffer in the meantime. Creating a
		// second buffer for the same key would orphan the first in the
		// LRU list and corrupt the cache.
		if b, ok := c.blocks[block]; ok {
			c.touch(b)
			return b, nil
		}
		if len(c.blocks) < c.capacity {
			break
		}
		victim := c.findVictim()
		if victim == nil {
			// Everything is busy; wait for the oldest busy buffer.
			oldest := c.lru.Back().Value.(*buffer)
			c.stats.FlushWaits++
			c.om.flushWaits.Inc()
			oldest.wq.Sleep(p)
			continue
		}
		if victim.dirty {
			c.stats.FlushWaits++
			c.om.flushWaits.Inc()
			if err := c.flushBuffer(p, victim); err != nil {
				return nil, err
			}
			continue // state may have changed while sleeping
		}
		c.evict(victim)
	}
	c.clock++
	b := &buffer{block: block, data: make([]byte, BlockSize), stamp: c.clock, wq: sim.NewWaitQueue(c.e)}
	b.elem = c.lru.PushFront(b)
	c.blocks[block] = b
	c.reindex(b)
	c.om.resident.Set(int64(len(c.blocks)))
	return b, nil
}

// findVictim returns the least recently used non-busy buffer, preferring
// clean ones.
func (c *Cache) findVictim() *buffer {
	if b := c.idleClean.least(); b != nil {
		return b
	}
	return c.idleDirty.least()
}

var EvictDebug func(block uint32)

// MissDebug, when set, observes read misses (test instrumentation).
var MissDebug func(block uint32)

func (c *Cache) evict(b *buffer) {
	if EvictDebug != nil {
		EvictDebug(b.block)
	}
	c.lru.Remove(b.elem)
	if b.idle != nil {
		b.idle.remove(b)
	}
	if cur, ok := c.blocks[b.block]; ok && cur == b {
		delete(c.blocks, b.block)
	}
	c.stats.Evictions++
	c.om.evictions.Inc()
	c.om.resident.Set(int64(len(c.blocks)))
}

// flushBuffer synchronously writes one dirty buffer.
func (c *Cache) flushBuffer(p *sim.Proc, b *buffer) error {
	gen := b.gen
	c.setBusy(b, true)
	origin := b.origin
	if origin == trace.OriginUnknown {
		origin = trace.OriginMeta
	}
	req, start := b.req, c.e.Now()
	done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, origin, req)
	if err != nil {
		c.setBusy(b, false)
		return err
	}
	c.stats.Writebacks++
	c.om.writebacks.Inc()
	werr := done.Wait(p)
	if werr == nil && c.journal.Enabled() {
		c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(b.block))
	}
	if werr == nil && b.gen == gen {
		c.setDirty(b, false)
	}
	c.setBusy(b, false)
	b.wq.WakeAll()
	return werr
}

// ReadBlock returns the contents of a block, reading it from disk on a
// miss. The returned slice aliases the cache buffer; callers must copy out
// what they keep and must not retain it across sleeps.
func (c *Cache) ReadBlock(p *sim.Proc, block uint32, origin trace.Origin) ([]byte, error) {
	for {
		b, err := c.getOrCreate(p, block)
		if err != nil {
			return nil, err
		}
		if b.busy {
			b.wq.Sleep(p)
			continue // re-lookup: the buffer may have been reused
		}
		if b.valid {
			c.stats.Hits++
			c.om.hits.Inc()
			if c.journal.Enabled() {
				c.journal.Add(c.e.Now(), 0, iotrace.StageCacheHit, p.IOTag(), int64(block))
			}
			c.touch(b)
			return b.data, nil
		}
		// Miss: read it in.
		if MissDebug != nil {
			MissDebug(block)
		}
		c.stats.Misses++
		c.om.misses.Inc()
		c.setBusy(b, true)
		start := c.e.Now()
		done, err := c.q.SubmitReq(block*SectorsPerBlock, b.data, false, origin, p.IOTag())
		if err != nil {
			c.setBusy(b, false)
			b.wq.WakeAll()
			return nil, err
		}
		rerr := done.Wait(p)
		c.setBusy(b, false)
		b.valid = rerr == nil
		b.wq.WakeAll()
		if rerr != nil {
			c.evict(b)
			return nil, rerr
		}
		if c.journal.Enabled() {
			c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageCacheMiss, p.IOTag(), int64(block))
		}
		c.touch(b)
		return b.data, nil
	}
}

// Prefetch starts asynchronous reads for any of the given blocks that are
// not resident. It may sleep while making room but does not wait for the
// reads themselves.
func (c *Cache) Prefetch(p *sim.Proc, blocks []uint32, origin trace.Origin) error {
	for _, blk := range blocks {
		if b, ok := c.blocks[blk]; ok && (b.valid || b.busy) {
			continue
		}
		b, err := c.getOrCreate(p, blk)
		if err != nil {
			return err
		}
		if b.valid || b.busy {
			continue
		}
		c.setBusy(b, true)
		req, start := p.IOTag(), c.e.Now()
		done, err := c.q.SubmitReq(blk*SectorsPerBlock, b.data, false, origin, req)
		if err != nil {
			c.setBusy(b, false)
			return err
		}
		c.stats.Prefetches++
		c.om.prefetches.Inc()
		bb := b
		done.OnComplete(func(ioErr error) {
			c.setBusy(bb, false)
			bb.valid = ioErr == nil
			if ioErr == nil && c.journal.Enabled() {
				c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageCacheMiss, req, int64(bb.block))
			}
			bb.wq.WakeAll()
			if ioErr != nil && bb.elem != nil {
				if cur, ok := c.blocks[bb.block]; ok && cur == bb {
					c.evict(bb)
				}
			}
		})
	}
	return nil
}

// WriteBlock replaces the contents of a block in the cache and marks it
// dirty (write-back). data must be exactly one block long.
func (c *Cache) WriteBlock(p *sim.Proc, block uint32, data []byte, origin trace.Origin) error {
	if len(data) != BlockSize {
		return fmt.Errorf("buffercache: write of %d bytes, want %d", len(data), BlockSize)
	}
	for {
		b, err := c.getOrCreate(p, block)
		if err != nil {
			return err
		}
		if b.busy {
			b.wq.Sleep(p)
			continue
		}
		copy(b.data, data)
		b.valid = true
		c.setDirty(b, true)
		b.gen++
		b.origin = origin
		b.req = p.IOTag()
		c.touch(b)
		c.maybeWriteThrough(b)
		return nil
	}
}

// maybeWriteThrough submits an immediate asynchronous write when the cache
// is in write-through mode.
func (c *Cache) maybeWriteThrough(b *buffer) {
	if !c.writeThrough || b.busy || !b.dirty {
		return
	}
	gen := b.gen
	c.setBusy(b, true)
	req, start := b.req, c.e.Now()
	done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, b.origin, req)
	if err != nil {
		c.setBusy(b, false)
		return
	}
	c.stats.Writebacks++
	c.om.writebacks.Inc()
	bb := b
	done.OnComplete(func(ioErr error) {
		if ioErr == nil && bb.gen == gen {
			c.setDirty(bb, false)
		}
		c.setBusy(bb, false)
		if ioErr == nil && c.journal.Enabled() {
			c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(bb.block))
		}
		bb.wq.WakeAll()
	})
}

// UpdateBlock applies fn to the cached contents of a block (reading it
// first if needed) and marks it dirty — the read-modify-write path for
// partial-block writes and metadata updates.
func (c *Cache) UpdateBlock(p *sim.Proc, block uint32, origin trace.Origin, fn func(data []byte)) error {
	data, err := c.ReadBlock(p, block, origin)
	if err != nil {
		return err
	}
	b := c.blocks[block]
	if b == nil {
		// ReadBlock always leaves the block resident; see getOrCreate.
		panic(fmt.Sprintf("buffercache: block %d vanished after ReadBlock", block))
	}
	fn(data)
	c.setDirty(b, true)
	b.gen++
	b.origin = origin
	b.req = p.IOTag()
	c.maybeWriteThrough(b)
	return nil
}

// WritebackAll asynchronously submits every dirty, idle buffer for writing,
// as the periodic update daemon does. Each buffer is tagged with the origin
// that dirtied it; origin is the fallback for untagged buffers. It returns
// the number of buffers submitted. Engine-context safe.
func (c *Cache) WritebackAll(origin trace.Origin) int {
	n := 0
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*buffer)
		if !b.dirty || b.busy {
			continue
		}
		gen := b.gen
		c.setBusy(b, true)
		worigin := b.origin
		if worigin == trace.OriginUnknown {
			worigin = origin
		}
		req, start := b.req, c.e.Now()
		done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, worigin, req)
		if err != nil {
			c.setBusy(b, false)
			continue
		}
		c.stats.Writebacks++
		c.om.writebacks.Inc()
		n++
		bb := b
		done.OnComplete(func(ioErr error) {
			if ioErr == nil && bb.gen == gen {
				c.setDirty(bb, false)
			}
			c.setBusy(bb, false)
			if ioErr == nil && c.journal.Enabled() {
				c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(bb.block))
			}
			bb.wq.WakeAll()
		})
	}
	return n
}

// Sync flushes every dirty buffer and waits for all of them (fsync/unmount
// path).
func (c *Cache) Sync(p *sim.Proc) error {
	for {
		victim := c.idleDirty.least()
		if victim == nil {
			// Wait out any in-flight writebacks.
			busy := false
			for e := c.lru.Back(); e != nil; e = e.Prev() {
				b := e.Value.(*buffer)
				if b.busy {
					busy = true
					b.wq.Sleep(p)
					break
				}
			}
			if !busy {
				return nil
			}
			continue
		}
		if err := c.flushBuffer(p, victim); err != nil {
			return err
		}
	}
}

// InvalidateClean drops every clean, idle buffer, returning the count
// dropped. Experiments call it between software installation and
// measurement so programs start from a cold cache, as they would on a
// machine whose binaries were installed long before the run.
func (c *Cache) InvalidateClean() int {
	n := 0
	var victims []*buffer
	for _, b := range c.blocks {
		if !b.dirty && !b.busy && b.valid {
			victims = append(victims, b)
		}
	}
	// Evict in block order, not map order: eviction reshapes the LRU list
	// and free list, so a map-ordered sweep would leave the cache in a
	// different state on every run and desynchronize seeded experiments.
	sort.Slice(victims, func(i, j int) bool { return victims[i].block < victims[j].block })
	for _, b := range victims {
		c.evict(b)
		n++
	}
	return n
}

// Invalidate drops a clean resident block (used by tests and unmount).
// Dirty or busy blocks are left alone and reported as false.
func (c *Cache) Invalidate(block uint32) bool {
	b, ok := c.blocks[block]
	if !ok || b.dirty || b.busy {
		return false
	}
	c.evict(b)
	return true
}

// idleHeap is a binary min-heap of idle buffers ordered by key, the
// stamp a buffer had when it was last filed. touch raises a stamp without
// re-filing, so a key is never above its buffer's stamp; least re-files a
// stale root until the root's key is current, and that root then has the
// lowest stamp in the heap. A cache hit thus costs O(1), and each touch at
// most one O(log n) re-filing later.
type idleHeap []*buffer

func (h *idleHeap) push(b *buffer) {
	b.idle, b.key, b.slot = h, b.stamp, len(*h)
	*h = append(*h, b)
	h.up(b.slot)
}

func (h *idleHeap) remove(b *buffer) {
	s, i := *h, b.slot
	last := len(s) - 1
	s[i] = s[last]
	s[i].slot = i
	s[last] = nil
	*h = s[:last]
	if i < last && !h.down(i) {
		h.up(i)
	}
	b.idle = nil
}

// least returns the least recently used buffer in the heap, or nil.
func (h *idleHeap) least() *buffer {
	for len(*h) > 0 {
		b := (*h)[0]
		if b.key == b.stamp {
			return b
		}
		b.key = b.stamp
		h.down(0)
	}
	return nil
}

func (h idleHeap) up(i int) {
	b := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].key <= b.key {
			break
		}
		h[i] = h[parent]
		h[i].slot = i
		i = parent
	}
	h[i] = b
	b.slot = i
}

// down sifts h[i] towards the leaves, reporting whether it moved.
func (h idleHeap) down(i int) bool {
	b, start := h[i], i
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].key < h[child].key {
			child = r
		}
		if b.key <= h[child].key {
			break
		}
		h[i] = h[child]
		h[i].slot = i
		i = child
	}
	h[i] = b
	b.slot = i
	return i > start
}
