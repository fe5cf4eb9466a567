// Package cache models the non-volatile controller cache of the paper's
// cached organizations (section 3.4): a write-back LRU block cache that,
// for parity organizations, also retains the pre-write image of modified
// blocks (so destage can compute parity without re-reading old data) and,
// for RAID4 with parity caching, buffers pending parity updates destined
// for the dedicated parity disk. Data, shadows and pending parity share
// the slots: the parity spool may fill every free slot, with no part of
// the cache reserved for data.
//
// The cache is pure bookkeeping — all timing lives in the array
// controllers that drive it. The two candidate sets the controllers poll
// — dirty blocks with no write-back in flight, and the parity spool — are
// kept incrementally, so each query costs what it returns, not the cache
// size.
package cache

import (
	"cmp"
	"fmt"
	"slices"
)

// Config sizes and configures a cache.
type Config struct {
	// Blocks is the capacity in cache block slots. Old-data shadows and
	// pending parity blocks occupy slots too.
	Blocks int
	// KeepOldData retains the pre-write image when a clean cached block
	// is first modified (parity organizations).
	KeepOldData bool
}

// Entry describes a cached data block.
//
// Entries are recycled: Drop returns a block's entry to the cache's free
// list and a later Insert reuses it for another block. A pointer from
// Lookup, Victim, CleanVictim or Insert is therefore valid only until
// that block is dropped; callers that need the block past that point keep
// its LBA, never the pointer.
type Entry struct {
	LBA       int64
	Dirty     bool
	HasOld    bool  // an old-data shadow slot is held for this block
	Destaging bool  // a write-back is in flight
	redirtied bool  // written again while the write-back was in flight
	idleAt    int32 // 1 + index in Cache.idle while Dirty && !Destaging, else 0

	prev, next *Entry // LRU list, most recent at head
}

// Stats counts cache-internal events.
type Stats struct {
	Inserts        int64
	Evictions      int64
	DirtyEvictions int64
	OldCaptured    int64
	OldSkipped     int64 // shadow capture skipped because the cache was full
	Destages       int64
	ParityQueued   int64
	ParityStalls   int64 // parity admission failed for lack of space
	PeakUsed       int
	PeakParity     int
}

// Cache is a fixed-capacity write-back LRU block cache.
type Cache struct {
	cfg   Config
	m     map[int64]*Entry
	head  *Entry // MRU
	tail  *Entry // LRU
	used  int    // slots: entries + old shadows + pending parity
	dirty int    // dirty entries, kept incrementally so DirtyCount is O(1)

	idle []*Entry // dirty entries with no write-back in flight, unordered
	free []*Entry // dropped entries awaiting reuse by Insert
	slab []Entry  // never-used entries, carved off entrySlab at a time

	parity []PendingParity // the parity spool, sorted by (Disk, Block)
	S      Stats
}

// ParityKey identifies a pending parity block by its physical location.
type ParityKey struct {
	Disk  int
	Block int64
}

// entrySlab is how many entries Insert allocates at once while the cache
// fills; once it is full, dropped entries are reused instead.
const entrySlab = 256

// New returns an empty cache. It rejects a non-positive capacity.
func New(cfg Config) (*Cache, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", cfg.Blocks)
	}
	return &Cache{cfg: cfg, m: make(map[int64]*Entry)}, nil
}

// Capacity returns the slot capacity.
func (c *Cache) Capacity() int { return c.cfg.Blocks }

// Used returns occupied slots (entries + shadows + pending parity).
func (c *Cache) Used() int { return c.used }

// Len returns the number of cached data blocks.
func (c *Cache) Len() int { return len(c.m) }

// ParityPendingCount returns the number of buffered parity updates.
func (c *Cache) ParityPendingCount() int { return len(c.parity) }

// Contains reports whether lba is cached, without touching LRU order.
func (c *Cache) Contains(lba int64) bool {
	_, ok := c.m[lba]
	return ok
}

// Lookup returns the entry for lba without touching LRU order.
func (c *Cache) Lookup(lba int64) *Entry { return c.m[lba] }

func (c *Cache) bumpUsed(delta int) {
	c.used += delta
	if c.used < 0 {
		panic("cache: negative occupancy")
	}
	if c.used > c.S.PeakUsed {
		c.S.PeakUsed = c.used
	}
	if c.used > c.cfg.Blocks {
		panic(fmt.Sprintf("cache: occupancy %d exceeds capacity %d", c.used, c.cfg.Blocks))
	}
}

func (c *Cache) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// idleAdd adds e to the idle-dirty set. Callers invoke it on every
// transition into Dirty && !Destaging.
func (c *Cache) idleAdd(e *Entry) {
	c.idle = append(c.idle, e)
	e.idleAt = int32(len(c.idle))
}

// idleRemove removes e from the idle-dirty set by moving the last member
// into its slot. Callers invoke it on every transition out of
// Dirty && !Destaging.
func (c *Cache) idleRemove(e *Entry) {
	i, last := int(e.idleAt)-1, len(c.idle)-1
	moved := c.idle[last]
	c.idle[i] = moved
	moved.idleAt = int32(i + 1)
	c.idle[last] = nil
	c.idle = c.idle[:last]
	e.idleAt = 0
}

func (c *Cache) pushFront(e *Entry) {
	e.next = c.head
	e.prev = nil
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Touch moves lba to MRU if present and reports whether it was cached.
func (c *Cache) Touch(lba int64) bool {
	e, ok := c.m[lba]
	if !ok {
		return false
	}
	c.unlink(e)
	c.pushFront(e)
	return true
}

// MarkDirty records a write hit on a cached block and reports whether
// the block was cached; an absent block is left alone. A hit entry
// becomes dirty and moves to MRU. On the first modification of a clean
// block, a shadow slot for the old image is captured when KeepOldData is
// set and space allows; destage uses it to avoid re-reading old data.
func (c *Cache) MarkDirty(lba int64) bool {
	e, ok := c.m[lba]
	if !ok {
		return false
	}
	if e.Destaging {
		// Written again while its write-back is in flight: it must stay
		// dirty when the write-back lands.
		e.redirtied = true
		e.Dirty = true
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	if !e.Dirty {
		c.dirty++
		c.idleAdd(e)
	}
	if !e.Dirty && c.cfg.KeepOldData && !e.HasOld {
		if c.used < c.cfg.Blocks {
			e.HasOld = true
			c.bumpUsed(1)
			c.S.OldCaptured++
		} else {
			c.S.OldSkipped++
		}
	}
	e.Dirty = true
	c.unlink(e)
	c.pushFront(e)
	return true
}

// FreeSlots returns capacity not currently occupied.
func (c *Cache) FreeSlots() int { return c.cfg.Blocks - c.used }

// Insert adds an uncached block at MRU. The caller must have made room
// (FreeSlots() > 0); inserting over capacity panics.
func (c *Cache) Insert(lba int64, dirty bool) *Entry {
	if _, ok := c.m[lba]; ok {
		panic(fmt.Sprintf("cache: duplicate insert of block %d", lba))
	}
	c.bumpUsed(1)
	var e *Entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]Entry, min(entrySlab, c.cfg.Blocks))
		}
		e = &c.slab[0]
		c.slab = c.slab[1:]
	}
	*e = Entry{LBA: lba, Dirty: dirty}
	if dirty {
		c.dirty++
		c.idleAdd(e)
	}
	c.m[lba] = e
	c.pushFront(e)
	c.S.Inserts++
	return e
}

// Victim returns the least recently used entry that is not mid-destage,
// or nil if none qualifies.
func (c *Cache) Victim() *Entry {
	for e := c.tail; e != nil; e = e.prev {
		if !e.Destaging {
			return e
		}
	}
	return nil
}

// CleanVictim returns the least recently used clean, not-mid-destage
// entry, or nil. Dropping it frees a slot without any disk I/O.
func (c *Cache) CleanVictim() *Entry {
	for e := c.tail; e != nil; e = e.prev {
		if !e.Destaging && !e.Dirty {
			return e
		}
	}
	return nil
}

// Drop removes an entry, releasing its slot and any shadow slot. The
// entry goes to the free list for a later Insert to reuse.
func (c *Cache) Drop(lba int64) {
	e, ok := c.m[lba]
	if !ok {
		panic(fmt.Sprintf("cache: dropping uncached block %d", lba))
	}
	c.unlink(e)
	delete(c.m, lba)
	if e.Dirty {
		c.dirty--
		if !e.Destaging {
			c.idleRemove(e)
		}
	}
	n := 1
	if e.HasOld {
		n++
	}
	c.bumpUsed(-n)
	c.S.Evictions++
	c.free = append(c.free, e)
}

// NoteDirtyEviction records that an eviction had to write its victim back
// first. Controllers call it from their room-making path (by the time the
// victim is dropped it has already been cleaned, so Drop can't see it).
func (c *Cache) NoteDirtyEviction() { c.S.DirtyEvictions++ }

// BeginDestage marks a dirty block as having a write-back in flight, so
// it is not picked as a victim and not re-destaged.
func (c *Cache) BeginDestage(lba int64) {
	e, ok := c.m[lba]
	if !ok || !e.Dirty || e.Destaging {
		panic(fmt.Sprintf("cache: BeginDestage of block %d in wrong state", lba))
	}
	e.Destaging = true
	c.idleRemove(e)
}

// CompleteDestage marks the write-back done: the block becomes clean and
// its old-data shadow (if any) is released. The block stays cached.
func (c *Cache) CompleteDestage(lba int64) {
	e, ok := c.m[lba]
	if !ok || !e.Destaging {
		panic(fmt.Sprintf("cache: CompleteDestage of block %d in wrong state", lba))
	}
	e.Destaging = false
	if e.redirtied {
		// The concurrent write keeps the block dirty; its old image is
		// now the version just written, which we no longer hold, so the
		// shadow (if any) is released and the next destage reads old
		// data from disk.
		e.redirtied = false
		c.idleAdd(e)
	} else {
		e.Dirty = false
		c.dirty--
	}
	if e.HasOld {
		e.HasOld = false
		c.bumpUsed(-1)
	}
	c.S.Destages++
}

// DirtyNotDestaging appends the LBAs of dirty blocks with no write-back
// in flight to dst, sorted ascending, and returns the extended slice —
// the destage scan's candidate set. It walks only those blocks, never
// the whole cache, and allocates only when dst must grow.
func (c *Cache) DirtyNotDestaging(dst []int64) []int64 {
	n := len(dst)
	for _, e := range c.idle {
		dst = append(dst, e.LBA)
	}
	slices.Sort(dst[n:])
	return dst
}

// DirtyNotDestagingCount returns how many LBAs DirtyNotDestaging would
// append, in O(1).
func (c *Cache) DirtyNotDestagingCount() int { return len(c.idle) }

// DirtyCount returns the number of dirty blocks (in flight or not).
func (c *Cache) DirtyCount() int { return c.dirty }

// PendingParity is a buffered parity update. Full means the complete new
// parity is known (a fully overwritten stripe), so applying it needs no
// old-parity read; otherwise the buffered value is the XOR of old and new
// data and the parity disk must read-modify-write.
type PendingParity struct {
	Key  ParityKey
	Full bool
}

// compareParityKey orders parity blocks by (disk, block) — the order a
// SCAN sweep of the parity disks visits them.
func compareParityKey(a, b ParityKey) int {
	if c := cmp.Compare(a.Disk, b.Disk); c != 0 {
		return c
	}
	return cmp.Compare(a.Block, b.Block)
}

// parityIndex binary-searches the spool for k: its position if present,
// else the position it would be inserted at.
func (c *Cache) parityIndex(k ParityKey) (int, bool) {
	return slices.BinarySearchFunc(c.parity, k, func(p PendingParity, k ParityKey) int {
		return compareParityKey(p.Key, k)
	})
}

// AddParityPending buffers a parity update for the given physical parity
// block. It reports false — a stall, per section 4.4 — when no slot is
// free: the spool may fill every free slot. Duplicate keys coalesce (the
// update is an XOR accumulation; a full image absorbs later deltas) and
// always succeed.
func (c *Cache) AddParityPending(k ParityKey, full bool) bool {
	i, ok := c.parityIndex(k)
	if ok {
		c.parity[i].Full = c.parity[i].Full || full
		return true
	}
	if c.used >= c.cfg.Blocks {
		c.S.ParityStalls++
		return false
	}
	c.parity = slices.Insert(c.parity, i, PendingParity{Key: k, Full: full})
	c.bumpUsed(1)
	c.S.ParityQueued++
	if len(c.parity) > c.S.PeakParity {
		c.S.PeakParity = len(c.parity)
	}
	return true
}

// hasParityPending reports whether the key is buffered.
func (c *Cache) hasParityPending(k ParityKey) bool {
	_, ok := c.parityIndex(k)
	return ok
}

// RemoveParityPending releases a buffered parity update's slot.
func (c *Cache) RemoveParityPending(k ParityKey) {
	i, ok := c.parityIndex(k)
	if !ok {
		panic(fmt.Sprintf("cache: removing absent parity update %+v", k))
	}
	c.parity = slices.Delete(c.parity, i, i+1)
	c.bumpUsed(-1)
}

// NextParity is the C-SCAN pick of the parity spool: the first buffered
// update at or after from in (disk, block) order, else — the sweep wraps
// — the lowest one. It reports false when the spool is empty.
func (c *Cache) NextParity(from ParityKey) (PendingParity, bool) {
	if len(c.parity) == 0 {
		return PendingParity{}, false
	}
	i, _ := c.parityIndex(from)
	if i == len(c.parity) {
		i = 0
	}
	return c.parity[i], true
}
