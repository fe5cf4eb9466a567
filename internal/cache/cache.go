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
	"math"
	"math/bits"
	"slices"
	"sync"
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
// Entries live in a store of fixed chunks that never move, and Drop
// recycles a block's entry for a later Insert to reuse. A pointer from
// Lookup, Victim, CleanVictim or Insert is therefore valid only until
// that block is dropped; callers that need the block past that point
// keep its LBA, never the pointer.
type Entry struct {
	LBA       int64
	Dirty     bool
	HasOld    bool  // an old-data shadow slot is held for this block
	Destaging bool  // a write-back is in flight
	redirtied bool  // written again while the write-back was in flight
	idleAt    int32 // 1 + index in Cache.idle while Dirty && !Destaging, else 0

	prev, next int32 // store indices of the LRU neighbours (most recent at head), or none
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

// Merge folds o into s: counts add and peaks take the larger.
func (s *Stats) Merge(o *Stats) {
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.DirtyEvictions += o.DirtyEvictions
	s.OldCaptured += o.OldCaptured
	s.OldSkipped += o.OldSkipped
	s.Destages += o.Destages
	s.ParityQueued += o.ParityQueued
	s.ParityStalls += o.ParityStalls
	s.PeakUsed = max(s.PeakUsed, o.PeakUsed)
	s.PeakParity = max(s.PeakParity, o.PeakParity)
}

// Cache is a fixed-capacity write-back LRU block cache.
//
// Its one index is an open-addressed, linear-probing table from LBA to
// entry, at most half full and doubled as the cache fills. Deletion
// shifts the rest of a probe chain back, so the table holds no
// tombstones. The entries sit in a chunked store and link into the LRU
// list by store index, so the garbage collector scans no pointer per
// block.
//
// Release hands a cache back for New to recycle. A recycled cache keeps
// its index buffers and its full store chunks, and starts again from the
// minIndex buffer, so it fills and grows exactly as a new one does.
type Cache struct {
	cfg   Config
	index []slot // power-of-two length, at most half full
	shift uint8  // 64 - log2(len(index)): home keeps the hash's top bits

	// indexes[k] is the index buffer of length minIndex<<k, nil until
	// this cache first grows that far; index is one of them.
	indexes [maxIndexes][]slot

	store      [][]Entry // chunks of chunkLen entries, the last capped by cfg.Blocks
	spare      [][]Entry // full chunks kept from before the last Release, for reuse
	n          int32     // entries ever handed out; store index n is the next new one
	head, tail int32     // MRU and LRU store indices, or none
	used       int       // slots: entries + old shadows + pending parity
	dirty      int       // dirty entries, kept incrementally so DirtyCount is O(1)

	idle []int32 // store indices of dirty entries with no write-back in flight, unordered
	free []int32 // store indices of dropped entries awaiting reuse by Insert

	parity []PendingParity // the parity spool, sorted by (Disk, Block)
	S      Stats
}

// slot is one cell of the index: a cached block and its entry's store
// index plus one, so the zero slot is empty.
type slot struct {
	lba int64
	ref int32
}

// none is the store index of no entry.
const none int32 = -1

// ParityKey identifies a pending parity block by its physical location.
type ParityKey struct {
	Disk  int
	Block int64
}

// minIndex is the index's length in a new or recycled cache; it doubles
// whenever an Insert would fill it past half, so a cache pays for the
// blocks it holds, not for its capacity.
const minIndex = 16

// maxIndexes bounds the index's doublings: minIndex<<28 = 2^32
// positions hold math.MaxInt32 blocks at most half full.
const maxIndexes = 29

// chunkBits sizes the store's chunks: chunkLen entries, 6 KiB, each
// allocated when the cache first needs one of its entries.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// released holds caches handed back by Release for New to recycle. An
// item survives one garbage collection in it, not two, so it keeps alive
// only caches released since the last two collections.
var released = sync.Pool{New: func() any { return new(Cache) }}

// New returns an empty cache, recycling a released one when it can. It
// rejects a non-positive capacity, and one too large for int32 store
// indices.
func New(cfg Config) (*Cache, error) {
	if cfg.Blocks <= 0 || cfg.Blocks > math.MaxInt32 {
		return nil, fmt.Errorf("cache: capacity must be in [1, %d], got %d", math.MaxInt32, cfg.Blocks)
	}
	c := released.Get().(*Cache)
	c.reset(cfg)
	return c, nil
}

// Release hands c back for a later New to recycle, buffers and all. The
// caller must not use c, or any Entry it returned, afterwards.
func (c *Cache) Release() { released.Put(c) }

// reset empties c for a cache of cfg, keeping its index buffers, its
// full store chunks and its slices' capacity.
func (c *Cache) reset(cfg Config) {
	for _, ch := range c.store {
		if len(ch) == chunkLen {
			c.spare = append(c.spare, ch)
		}
	}
	clear(c.store)
	*c = Cache{
		cfg:     cfg,
		indexes: c.indexes,
		store:   c.store[:0],
		spare:   c.spare,
		head:    none,
		tail:    none,
		idle:    c.idle[:0],
		free:    c.free[:0],
		parity:  c.parity[:0],
	}
	c.useIndex(0)
}

// useIndex makes the empty buffer of length minIndex<<k the index,
// allocating it the first time this cache grows that far.
func (c *Cache) useIndex(k int) {
	if c.indexes[k] == nil {
		c.indexes[k] = make([]slot, minIndex<<k)
	} else {
		clear(c.indexes[k])
	}
	c.index = c.indexes[k]
	c.shift = uint8(64 - bits.TrailingZeros(uint(len(c.index))))
}

// chunk returns a store chunk of n entries: a spare one when n is a full
// chunk and one is kept, else a new one. A reused chunk's stale entries
// are never read: insertAt overwrites each entry it hands out.
func (c *Cache) chunk(n int) []Entry {
	k := len(c.spare) - 1
	if n != chunkLen || k < 0 {
		return make([]Entry, n)
	}
	ch := c.spare[k]
	c.spare[k] = nil
	c.spare = c.spare[:k]
	return ch
}

// Capacity returns the slot capacity.
func (c *Cache) Capacity() int { return c.cfg.Blocks }

// Used returns occupied slots (entries + shadows + pending parity).
func (c *Cache) Used() int { return c.used }

// Len returns the number of cached data blocks.
func (c *Cache) Len() int { return int(c.n) - len(c.free) }

// at returns the entry at store index x.
func (c *Cache) at(x int32) *Entry { return &c.store[x>>chunkBits][x&chunkMask] }

// ParityPendingCount returns the number of buffered parity updates.
func (c *Cache) ParityPendingCount() int { return len(c.parity) }

// hash is the Fibonacci hash of lba. Its top bits pick the block's home
// in the index, so runs of consecutive blocks spread over the table.
func hash(lba int64) uint64 { return uint64(lba) * 0x9e3779b97f4a7c15 }

// home is lba's preferred index position.
func (c *Cache) home(lba int64) int { return int(hash(lba) >> c.shift) }

// probe returns the index position holding lba and true, or the empty
// position where lba would go and false.
func (c *Cache) probe(lba int64) (int, bool) {
	mask := len(c.index) - 1
	for i := c.home(lba); ; i = (i + 1) & mask {
		s := &c.index[i]
		if s.ref == 0 {
			return i, false
		}
		if s.lba == lba {
			return i, true
		}
	}
}

// find returns lba's store index, or none.
func (c *Cache) find(lba int64) int32 {
	i, ok := c.probe(lba)
	if !ok {
		return none
	}
	return c.index[i].ref - 1
}

// grow doubles the index and re-places every block in it.
func (c *Cache) grow() {
	old := c.index
	c.useIndex(bits.TrailingZeros(uint(len(old)/minIndex)) + 1)
	mask := len(c.index) - 1
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := c.home(s.lba)
		for c.index[i].ref != 0 {
			i = (i + 1) & mask
		}
		c.index[i] = s
	}
}

// unindex empties index position i and shifts back each later block of
// its probe chain that may move into the hole, so every block stays
// reachable from its home without crossing an empty position.
func (c *Cache) unindex(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j].ref != 0; j = (j + 1) & mask {
		// The block at j may fill the hole at i only if i lies between
		// its home and j, cyclically.
		if (j-c.home(c.index[j].lba))&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = slot{}
}

// Contains reports whether lba is cached, without touching LRU order.
func (c *Cache) Contains(lba int64) bool {
	_, ok := c.probe(lba)
	return ok
}

// Lookup returns the entry for lba without touching LRU order, or nil.
func (c *Cache) Lookup(lba int64) *Entry {
	if x := c.find(lba); x != none {
		return c.at(x)
	}
	return nil
}

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

func (c *Cache) unlink(x int32) {
	e := c.at(x)
	if e.prev != none {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = none, none
}

func (c *Cache) pushFront(x int32) {
	e := c.at(x)
	e.next = c.head
	e.prev = none
	if c.head != none {
		c.at(c.head).prev = x
	}
	c.head = x
	if c.tail == none {
		c.tail = x
	}
}

// idleAdd adds entry x to the idle-dirty set. Callers invoke it on every
// transition into Dirty && !Destaging.
func (c *Cache) idleAdd(x int32) {
	c.idle = append(c.idle, x)
	c.at(x).idleAt = int32(len(c.idle))
}

// idleRemove removes entry x from the idle-dirty set by moving the last
// member into its place. Callers invoke it on every transition out of
// Dirty && !Destaging.
func (c *Cache) idleRemove(x int32) {
	i, last := int(c.at(x).idleAt)-1, len(c.idle)-1
	moved := c.idle[last]
	c.idle[i] = moved
	c.at(moved).idleAt = int32(i + 1)
	c.idle = c.idle[:last]
	c.at(x).idleAt = 0
}

// Touch moves lba to MRU if present and reports whether it was cached.
func (c *Cache) Touch(lba int64) bool {
	x := c.find(lba)
	if x == none {
		return false
	}
	c.unlink(x)
	c.pushFront(x)
	return true
}

// MarkDirty records a write hit on a cached block and reports whether
// the block was cached; an absent block is left alone. A hit entry
// becomes dirty and moves to MRU. On the first modification of a clean
// block, a shadow slot for the old image is captured when KeepOldData is
// set and space allows; destage uses it to avoid re-reading old data.
func (c *Cache) MarkDirty(lba int64) bool {
	x := c.find(lba)
	if x == none {
		return false
	}
	e := c.at(x)
	if e.Destaging {
		// Written again while its write-back is in flight: it must stay
		// dirty when the write-back lands.
		e.redirtied = true
		e.Dirty = true
		c.unlink(x)
		c.pushFront(x)
		return true
	}
	if !e.Dirty {
		c.dirty++
		c.idleAdd(x)
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
	c.unlink(x)
	c.pushFront(x)
	return true
}

// FreeSlots returns capacity not currently occupied.
func (c *Cache) FreeSlots() int { return c.cfg.Blocks - c.used }

// Insert adds an uncached block at MRU. The caller must have made room
// (FreeSlots() > 0); inserting over capacity or inserting a cached block
// panics.
func (c *Cache) Insert(lba int64, dirty bool) *Entry {
	i, ok := c.probe(lba)
	if ok {
		panic(fmt.Sprintf("cache: duplicate insert of block %d", lba))
	}
	return c.at(c.insertAt(i, lba, dirty))
}

// InsertIfAbsent inserts an uncached block at MRU as Insert does, in the
// same probe that finds it absent, and reports whether it did; a cached
// block is left alone.
func (c *Cache) InsertIfAbsent(lba int64, dirty bool) bool {
	i, ok := c.probe(lba)
	if ok {
		return false
	}
	c.insertAt(i, lba, dirty)
	return true
}

// insertAt caches the absent block lba, whose probe ended at the empty
// index position i, and returns its store index.
func (c *Cache) insertAt(i int, lba int64, dirty bool) int32 {
	c.bumpUsed(1)
	if 2*(c.Len()+1) > len(c.index) {
		c.grow()
		i, _ = c.probe(lba)
	}
	var x int32
	if n := len(c.free); n > 0 {
		x = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		// A new entry: used <= Blocks keeps the live entries, all the
		// store has handed out here, below the capacity.
		x = c.n
		if x&chunkMask == 0 {
			c.store = append(c.store, c.chunk(min(chunkLen, c.cfg.Blocks-int(x))))
		}
		c.n++
	}
	*c.at(x) = Entry{LBA: lba, Dirty: dirty}
	if dirty {
		c.dirty++
		c.idleAdd(x)
	}
	c.index[i] = slot{lba: lba, ref: x + 1}
	c.pushFront(x)
	c.S.Inserts++
	return x
}

// Victim returns the least recently used entry that is not mid-destage,
// or nil if none qualifies.
func (c *Cache) Victim() *Entry {
	for x := c.tail; x != none; x = c.at(x).prev {
		if e := c.at(x); !e.Destaging {
			return e
		}
	}
	return nil
}

// CleanVictim returns the least recently used clean, not-mid-destage
// entry, or nil. Dropping it frees a slot without any disk I/O.
func (c *Cache) CleanVictim() *Entry {
	for x := c.tail; x != none; x = c.at(x).prev {
		if e := c.at(x); !e.Destaging && !e.Dirty {
			return e
		}
	}
	return nil
}

// Drop removes an entry, releasing its slot and any shadow slot. The
// entry goes to the free list for a later Insert to reuse.
func (c *Cache) Drop(lba int64) {
	i, ok := c.probe(lba)
	if !ok {
		panic(fmt.Sprintf("cache: dropping uncached block %d", lba))
	}
	x := c.index[i].ref - 1
	c.unlink(x)
	c.unindex(i)
	e := c.at(x)
	if e.Dirty {
		c.dirty--
		if !e.Destaging {
			c.idleRemove(x)
		}
	}
	n := 1
	if e.HasOld {
		n++
	}
	c.bumpUsed(-n)
	c.S.Evictions++
	c.free = append(c.free, x)
}

// NoteDirtyEviction records that an eviction had to write its victim back
// first. Controllers call it from their room-making path (by the time the
// victim is dropped it has already been cleaned, so Drop can't see it).
func (c *Cache) NoteDirtyEviction() { c.S.DirtyEvictions++ }

// BeginDestage marks a dirty block as having a write-back in flight, so
// it is not picked as a victim and not re-destaged.
func (c *Cache) BeginDestage(lba int64) {
	x := c.find(lba)
	if x == none || !c.at(x).Dirty || c.at(x).Destaging {
		panic(fmt.Sprintf("cache: BeginDestage of block %d in wrong state", lba))
	}
	c.at(x).Destaging = true
	c.idleRemove(x)
}

// CompleteDestage marks the write-back done: the block becomes clean and
// its old-data shadow (if any) is released. The block stays cached.
func (c *Cache) CompleteDestage(lba int64) {
	x := c.find(lba)
	if x == none || !c.at(x).Destaging {
		panic(fmt.Sprintf("cache: CompleteDestage of block %d in wrong state", lba))
	}
	e := c.at(x)
	e.Destaging = false
	if e.redirtied {
		// The concurrent write keeps the block dirty; its old image is
		// now the version just written, which we no longer hold, so the
		// shadow (if any) is released and the next destage reads old
		// data from disk.
		e.redirtied = false
		c.idleAdd(x)
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
	for _, x := range c.idle {
		dst = append(dst, c.at(x).LBA)
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
