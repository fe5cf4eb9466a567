package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"raidsim/internal/rng"
)

// refEntry describes a cached data block.
//
// Entries are recycled: Drop returns a block's entry to the cache's free
// list and a later Insert reuses it for another block. A pointer from
// Lookup, Victim, CleanVictim or Insert is therefore valid only until
// that block is dropped; callers that need the block past that point keep
// its LBA, never the pointer.
type refEntry struct {
	LBA       int64
	Dirty     bool
	HasOld    bool  // an old-data shadow slot is held for this block
	Destaging bool  // a write-back is in flight
	redirtied bool  // written again while the write-back was in flight
	idleAt    int32 // 1 + index in refCache.idle while Dirty && !Destaging, else 0

	prev, next *refEntry // LRU list, most recent at head
}

// refCache is the cache as it was first written: a Go map from LBA to
// entry and a pointer-linked LRU list. It is the reference model that
// TestCacheMatchesReference and FuzzCacheMatchesReference hold the
// open-addressed Cache to, observable by observable.
type refCache struct {
	cfg   Config
	m     map[int64]*refEntry
	head  *refEntry // MRU
	tail  *refEntry // LRU
	used  int       // slots: entries + old shadows + pending parity
	dirty int       // dirty entries, kept incrementally so DirtyCount is O(1)

	idle []*refEntry // dirty entries with no write-back in flight, unordered
	free []*refEntry // dropped entries awaiting reuse by Insert
	slab []refEntry  // never-used entries, carved off refEntrySlab at a time

	parity []PendingParity // the parity spool, sorted by (Disk, Block)
	S      Stats
}

// refEntrySlab is how many entries Insert allocates at once while the cache
// fills; once it is full, dropped entries are reused instead.
const refEntrySlab = 256

// New returns an empty cache. It rejects a non-positive capacity.
func newRef(cfg Config) (*refCache, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", cfg.Blocks)
	}
	return &refCache{cfg: cfg, m: make(map[int64]*refEntry)}, nil
}

// Capacity returns the slot capacity.
func (c *refCache) Capacity() int { return c.cfg.Blocks }

// Used returns occupied slots (entries + shadows + pending parity).
func (c *refCache) Used() int { return c.used }

// Len returns the number of cached data blocks.
func (c *refCache) Len() int { return len(c.m) }

// ParityPendingCount returns the number of buffered parity updates.
func (c *refCache) ParityPendingCount() int { return len(c.parity) }

// Contains reports whether lba is cached, without touching LRU order.
func (c *refCache) Contains(lba int64) bool {
	_, ok := c.m[lba]
	return ok
}

// Lookup returns the entry for lba without touching LRU order.
func (c *refCache) Lookup(lba int64) *refEntry { return c.m[lba] }

func (c *refCache) bumpUsed(delta int) {
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

func (c *refCache) unlink(e *refEntry) {
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
func (c *refCache) idleAdd(e *refEntry) {
	c.idle = append(c.idle, e)
	e.idleAt = int32(len(c.idle))
}

// idleRemove removes e from the idle-dirty set by moving the last member
// into its slot. Callers invoke it on every transition out of
// Dirty && !Destaging.
func (c *refCache) idleRemove(e *refEntry) {
	i, last := int(e.idleAt)-1, len(c.idle)-1
	moved := c.idle[last]
	c.idle[i] = moved
	moved.idleAt = int32(i + 1)
	c.idle[last] = nil
	c.idle = c.idle[:last]
	e.idleAt = 0
}

func (c *refCache) pushFront(e *refEntry) {
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
func (c *refCache) Touch(lba int64) bool {
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
func (c *refCache) MarkDirty(lba int64) bool {
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
func (c *refCache) FreeSlots() int { return c.cfg.Blocks - c.used }

// Insert adds an uncached block at MRU. The caller must have made room
// (FreeSlots() > 0); inserting over capacity panics.
func (c *refCache) Insert(lba int64, dirty bool) *refEntry {
	if _, ok := c.m[lba]; ok {
		panic(fmt.Sprintf("cache: duplicate insert of block %d", lba))
	}
	c.bumpUsed(1)
	var e *refEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]refEntry, min(refEntrySlab, c.cfg.Blocks))
		}
		e = &c.slab[0]
		c.slab = c.slab[1:]
	}
	*e = refEntry{LBA: lba, Dirty: dirty}
	if dirty {
		c.dirty++
		c.idleAdd(e)
	}
	c.m[lba] = e
	c.pushFront(e)
	c.S.Inserts++
	return e
}

// InsertIfAbsent is the Contains-then-Insert pair it fuses.
func (c *refCache) InsertIfAbsent(lba int64, dirty bool) bool {
	if c.Contains(lba) {
		return false
	}
	c.Insert(lba, dirty)
	return true
}

// Victim returns the least recently used entry that is not mid-destage,
// or nil if none qualifies.
func (c *refCache) Victim() *refEntry {
	for e := c.tail; e != nil; e = e.prev {
		if !e.Destaging {
			return e
		}
	}
	return nil
}

// CleanVictim returns the least recently used clean, not-mid-destage
// entry, or nil. Dropping it frees a slot without any disk I/O.
func (c *refCache) CleanVictim() *refEntry {
	for e := c.tail; e != nil; e = e.prev {
		if !e.Destaging && !e.Dirty {
			return e
		}
	}
	return nil
}

// Drop removes an entry, releasing its slot and any shadow slot. The
// entry goes to the free list for a later Insert to reuse.
func (c *refCache) Drop(lba int64) {
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
func (c *refCache) NoteDirtyEviction() { c.S.DirtyEvictions++ }

// BeginDestage marks a dirty block as having a write-back in flight, so
// it is not picked as a victim and not re-destaged.
func (c *refCache) BeginDestage(lba int64) {
	e, ok := c.m[lba]
	if !ok || !e.Dirty || e.Destaging {
		panic(fmt.Sprintf("cache: BeginDestage of block %d in wrong state", lba))
	}
	e.Destaging = true
	c.idleRemove(e)
}

// CompleteDestage marks the write-back done: the block becomes clean and
// its old-data shadow (if any) is released. The block stays cached.
func (c *refCache) CompleteDestage(lba int64) {
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
func (c *refCache) DirtyNotDestaging(dst []int64) []int64 {
	n := len(dst)
	for _, e := range c.idle {
		dst = append(dst, e.LBA)
	}
	slices.Sort(dst[n:])
	return dst
}

// DirtyNotDestagingCount returns how many LBAs DirtyNotDestaging would
// append, in O(1).
func (c *refCache) DirtyNotDestagingCount() int { return len(c.idle) }

// DirtyCount returns the number of dirty blocks (in flight or not).
func (c *refCache) DirtyCount() int { return c.dirty }

// parityIndex binary-searches the spool for k: its position if present,
// else the position it would be inserted at.
func (c *refCache) parityIndex(k ParityKey) (int, bool) {
	return slices.BinarySearchFunc(c.parity, k, func(p PendingParity, k ParityKey) int {
		return compareParityKey(p.Key, k)
	})
}

// AddParityPending buffers a parity update for the given physical parity
// block. It reports false — a stall, per section 4.4 — when no slot is
// free: the spool may fill every free slot. Duplicate keys coalesce (the
// update is an XOR accumulation; a full image absorbs later deltas) and
// always succeed.
func (c *refCache) AddParityPending(k ParityKey, full bool) bool {
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
func (c *refCache) hasParityPending(k ParityKey) bool {
	_, ok := c.parityIndex(k)
	return ok
}

// RemoveParityPending releases a buffered parity update's slot.
func (c *refCache) RemoveParityPending(k ParityKey) {
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
func (c *refCache) NextParity(from ParityKey) (PendingParity, bool) {
	if len(c.parity) == 0 {
		return PendingParity{}, false
	}
	i, _ := c.parityIndex(from)
	if i == len(c.parity) {
		i = 0
	}
	return c.parity[i], true
}

// refPool is the block pool the reference tests draw from: blocks whose
// hashes' top bits are all ones, so at every index length up to 256 they
// share the last position and their probe chains wrap the table end;
// blocks whose top bits are all zeros, homed at position 0 where those
// wrapped chains land; and a run of consecutive blocks, homed apart.
var refPool = func() []int64 {
	var top, bottom, pool []int64
	for lba := int64(0); len(top) < 16 || len(bottom) < 16; lba++ {
		switch h := hash(lba) >> 56; {
		case h == 0xff && len(top) < 16:
			top = append(top, lba)
		case h == 0 && len(bottom) < 16:
			bottom = append(bottom, lba)
		}
	}
	pool = append(pool, top...)
	pool = append(pool, bottom...)
	for lba := int64(0); lba < 32; lba++ {
		pool = append(pool, 1000+lba)
	}
	return pool
}()

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// refOrder lists the reference's blocks from MRU to LRU.
func refOrder(r *refCache) []int64 {
	var out []int64
	for e := r.head; e != nil; e = e.next {
		out = append(out, e.LBA)
	}
	return out
}

// lruOrder lists the cache's blocks from MRU to LRU, and checks that the
// backward links retrace the same list.
func lruOrder(t testing.TB, c *Cache) []int64 {
	var out []int64
	prev := none
	for x := c.head; x != none; x = c.at(x).next {
		if c.at(x).prev != prev {
			t.Fatalf("entry %d links back to %d, want %d", x, c.at(x).prev, prev)
		}
		out = append(out, c.at(x).LBA)
		prev = x
	}
	if c.tail != prev {
		t.Fatalf("tail %d, want %d", c.tail, prev)
	}
	return out
}

// checkIndex checks the open-addressed index against its own invariants:
// at most half full, one position per live entry, each block reachable
// from its home without crossing an empty position, and each position
// naming a live entry of the same block.
func checkIndex(t testing.TB, c *Cache) {
	mask := len(c.index) - 1
	if len(c.index)&mask != 0 || 64-int(c.shift) != bits.TrailingZeros(uint(len(c.index))) {
		t.Fatalf("index length %d with shift %d", len(c.index), c.shift)
	}
	if 2*c.Len() > len(c.index) {
		t.Fatalf("index of %d positions holds %d blocks", len(c.index), c.Len())
	}
	if int(c.n) > c.cfg.Blocks {
		t.Fatalf("store of %d entries exceeds capacity %d", c.n, c.cfg.Blocks)
	}
	n := 0
	for i, s := range c.index {
		if s.ref == 0 {
			continue
		}
		n++
		if s.ref < 1 || s.ref > c.n || c.at(s.ref-1).LBA != s.lba {
			t.Fatalf("position %d names entry %d for block %d", i, s.ref-1, s.lba)
		}
		for j := c.home(s.lba); j != i; j = (j + 1) & mask {
			if c.index[j].ref == 0 {
				t.Fatalf("block %d at position %d is cut off from its home %d by the hole at %d", s.lba, i, c.home(s.lba), j)
			}
		}
	}
	if n != c.Len() {
		t.Fatalf("index holds %d blocks, Len %d", n, c.Len())
	}
}

// compareToRef fails unless every observable of c equals the
// reference's: the counts, the stats, the destage candidates, both
// victims, the LRU order, each pool block's presence and flags, and the
// parity spool's pick from a sweep position.
func compareToRef(t testing.TB, step int, c *Cache, r *refCache, from ParityKey) {
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("op %d: %s = %v, reference %v", step, what, got, want)
	}
	if c.Len() != r.Len() {
		fail("Len", c.Len(), r.Len())
	}
	if c.Used() != r.Used() || c.FreeSlots() != r.FreeSlots() {
		fail("Used", c.Used(), r.Used())
	}
	if c.DirtyCount() != r.DirtyCount() {
		fail("DirtyCount", c.DirtyCount(), r.DirtyCount())
	}
	if c.S != r.S {
		fail("S", c.S, r.S)
	}
	if got, want := c.DirtyNotDestaging(nil), r.DirtyNotDestaging(nil); !slices.Equal(got, want) {
		fail("DirtyNotDestaging", got, want)
	}
	if c.DirtyNotDestagingCount() != r.DirtyNotDestagingCount() {
		fail("DirtyNotDestagingCount", c.DirtyNotDestagingCount(), r.DirtyNotDestagingCount())
	}
	// A victim's LBA, or -1 for none.
	lba := func(e *Entry) int64 {
		if e == nil {
			return -1
		}
		return e.LBA
	}
	refLBA := func(e *refEntry) int64 {
		if e == nil {
			return -1
		}
		return e.LBA
	}
	if got, want := lba(c.Victim()), refLBA(r.Victim()); got != want {
		fail("Victim", got, want)
	}
	if got, want := lba(c.CleanVictim()), refLBA(r.CleanVictim()); got != want {
		fail("CleanVictim", got, want)
	}
	if got, want := lruOrder(t, c), refOrder(r); !slices.Equal(got, want) {
		fail("LRU order", got, want)
	}
	for _, l := range refPool {
		e, re := c.Lookup(l), r.Lookup(l)
		if (e == nil) != (re == nil) || c.Contains(l) != r.Contains(l) {
			fail(fmt.Sprintf("Lookup(%d)", l), e, re)
		}
		if e != nil && (e.LBA != re.LBA || e.Dirty != re.Dirty || e.HasOld != re.HasOld || e.Destaging != re.Destaging) {
			fail(fmt.Sprintf("Lookup(%d)", l), *e, *re)
		}
	}
	if c.ParityPendingCount() != r.ParityPendingCount() || c.hasParityPending(from) != r.hasParityPending(from) {
		fail("ParityPendingCount", c.ParityPendingCount(), r.ParityPendingCount())
	}
	gp, gok := c.NextParity(from)
	wp, wok := r.NextParity(from)
	if gp != wp || gok != wok {
		fail(fmt.Sprintf("NextParity(%v)", from), gp, wp)
	}
	checkIndex(t, c)
}

// runAgainstRef drives a Cache and the reference with the op sequence
// data encodes and compares them after every op. The first byte picks the
// capacity (1–48 blocks) and whether old data is kept; each later pair is
// an op and its argument, which picks a pool block or a parity key.
// An insert into a full cache evicts the LRU victim first, or failing
// that releases a pending parity block. Every op runs
// on both caches, including ops that panic: which ones do is compared
// too. Both caches carry on after a panic that leaves them intact (a
// duplicate insert, a drop or destage in the wrong state); the run ends
// at an insert over capacity, which only a cache whose every block is
// mid-destage can reach.
func runAgainstRef(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := Config{Blocks: 1 + int(data[0]>>1)%48, KeepOldData: data[0]&1 == 1}
	c := mustNew(cfg)
	r, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; 2*step+2 < len(data); step++ {
		op, arg := data[1+2*step], data[2+2*step]
		lba := refPool[int(arg)%len(refPool)]
		dirty := arg&0x80 != 0
		key := ParityKey{Disk: int(arg>>5) & 1, Block: int64(arg & 0x1f)}
		var gotPanic, wantPanic bool
		if op%12 <= 1 && r.FreeSlots() == 0 {
			// An insert into a full cache first evicts, as the
			// controllers do, so runs stay long.
			if v := r.Victim(); v != nil {
				l := v.LBA
				c.Drop(l)
				r.Drop(l)
			} else if p, ok := r.NextParity(ParityKey{}); ok {
				c.RemoveParityPending(p.Key)
				r.RemoveParityPending(p.Key)
			}
		}
		switch op % 12 {
		case 0:
			gotPanic = panics(func() { c.Insert(lba, dirty) })
			wantPanic = panics(func() { r.Insert(lba, dirty) })
		case 1:
			var got, want bool
			gotPanic = panics(func() { got = c.InsertIfAbsent(lba, dirty) })
			wantPanic = panics(func() { want = r.InsertIfAbsent(lba, dirty) })
			if got != want {
				t.Fatalf("op %d: InsertIfAbsent(%d) = %v, reference %v", step, lba, got, want)
			}
		case 2:
			if got, want := c.Touch(lba), r.Touch(lba); got != want {
				t.Fatalf("op %d: Touch(%d) = %v, reference %v", step, lba, got, want)
			}
		case 3:
			if got, want := c.MarkDirty(lba), r.MarkDirty(lba); got != want {
				t.Fatalf("op %d: MarkDirty(%d) = %v, reference %v", step, lba, got, want)
			}
		case 4:
			if v := r.Victim(); v != nil {
				l := v.LBA
				gotPanic, wantPanic = panics(func() { c.Drop(l) }), panics(func() { r.Drop(l) })
			}
		case 5:
			if v := r.CleanVictim(); v != nil {
				l := v.LBA
				gotPanic, wantPanic = panics(func() { c.Drop(l) }), panics(func() { r.Drop(l) })
			}
		case 6:
			gotPanic, wantPanic = panics(func() { c.Drop(lba) }), panics(func() { r.Drop(lba) })
		case 7:
			gotPanic, wantPanic = panics(func() { c.BeginDestage(lba) }), panics(func() { r.BeginDestage(lba) })
		case 8:
			gotPanic, wantPanic = panics(func() { c.CompleteDestage(lba) }), panics(func() { r.CompleteDestage(lba) })
		case 9:
			full := arg&0x40 != 0
			if got, want := c.AddParityPending(key, full), r.AddParityPending(key, full); got != want {
				t.Fatalf("op %d: AddParityPending(%v) = %v, reference %v", step, key, got, want)
			}
		case 10:
			gotPanic = panics(func() { c.RemoveParityPending(key) })
			wantPanic = panics(func() { r.RemoveParityPending(key) })
		case 11:
			c.NoteDirtyEviction()
			r.NoteDirtyEviction()
		}
		if gotPanic != wantPanic {
			t.Fatalf("op %d (%d on block %d): panicked %v, reference %v", step, op%12, lba, gotPanic, wantPanic)
		}
		if wantPanic && r.Used() > r.Capacity() {
			// An insert over capacity breaks the occupancy bound every
			// later op relies on; the cache is not usable after it.
			return
		}
		compareToRef(t, step, c, r, ParityKey{Disk: int(op>>4) & 1, Block: int64(op>>5) * 5})
	}
}

// TestCacheMatchesReference drives the cache and the map-and-list
// reference with seeded random op sequences over colliding blocks.
func TestCacheMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src := rng.New(seed)
		data := make([]byte, 1+2*600)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		runAgainstRef(t, data)
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference over op
// sequences the fuzzer chooses.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x21, 0, 0, 0, 1, 0, 2, 4, 0, 6, 1})
	f.Add([]byte{0x0a, 0, 0x80, 0, 0x81, 0, 0x82, 7, 0, 3, 1, 8, 0, 4, 0, 9, 0x45, 10, 0x05})
	f.Add([]byte{0x07, 1, 16, 1, 17, 1, 0, 1, 18, 6, 16, 2, 18, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runAgainstRef(t, data) })
}

// TestIndexChainDeletion: blocks homed at the index's last position wrap
// into position 0 and on, ahead of the blocks homed there. Deleting from
// the middle of that chain must shift every later block that can move
// back, so all of them stay reachable, and the LRU order is untouched.
func TestIndexChainDeletion(t *testing.T) {
	c := newCache(64, false)
	wrap, zero := refPool[:4], refPool[16:20]
	for i := range wrap {
		c.Insert(wrap[i], false)
		c.Insert(zero[i], false)
	}
	if len(c.index) != minIndex {
		t.Fatalf("index grew to %d positions for %d blocks", len(c.index), c.Len())
	}
	// The chain runs from the last position through position 6: eight
	// blocks, the first homed at the end.
	if last := len(c.index) - 1; c.index[last].lba != wrap[0] {
		t.Fatalf("last position holds %d, want %d", c.index[last].lba, wrap[0])
	}
	before := lruOrder(t, c)
	for _, l := range []int64{wrap[1], zero[0], wrap[0], zero[3]} {
		c.Drop(l)
		checkIndex(t, c)
		before = slices.DeleteFunc(before, func(x int64) bool { return x == l })
		if got := lruOrder(t, c); !slices.Equal(got, before) {
			t.Fatalf("after dropping %d, LRU order %v, want %v", l, got, before)
		}
		for _, k := range before {
			if !c.Contains(k) {
				t.Fatalf("after dropping %d, block %d is lost", l, k)
			}
		}
		if c.Contains(l) {
			t.Fatalf("dropped block %d is still found", l)
		}
	}
}
