package cache

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"raidsim/internal/rng"
)

func newCache(blocks int, keepOld bool) *Cache {
	return mustNew(Config{Blocks: blocks, KeepOldData: keepOld})
}

func mustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestBasicLRU(t *testing.T) {
	c := newCache(3, false)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(3, false)
	if c.Used() != 3 || c.FreeSlots() != 0 {
		t.Fatalf("used %d free %d", c.Used(), c.FreeSlots())
	}
	// Touch 1: LRU victim becomes 2.
	if !c.Touch(1) {
		t.Fatal("touch miss")
	}
	if v := c.Victim(); v.LBA != 2 {
		t.Fatalf("victim %d, want 2", v.LBA)
	}
	c.Drop(2)
	if c.Contains(2) || c.Used() != 2 {
		t.Fatal("drop failed")
	}
	if c.Touch(99) {
		t.Fatal("touch of absent block succeeded")
	}
}

func TestDirtyLifecycle(t *testing.T) {
	c := newCache(4, false)
	c.Insert(7, false)
	c.MarkDirty(7)
	if e := c.Lookup(7); !e.Dirty {
		t.Fatal("not dirty after MarkDirty")
	}
	if got := c.DirtyNotDestaging(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("dirty list %v", got)
	}
	c.BeginDestage(7)
	if got := c.DirtyNotDestaging(nil); len(got) != 0 {
		t.Fatalf("destaging block still listed: %v", got)
	}
	if v := c.Victim(); v != nil {
		t.Fatalf("destaging block offered as victim: %d", v.LBA)
	}
	c.CompleteDestage(7)
	e := c.Lookup(7)
	if e.Dirty || e.Destaging {
		t.Fatal("destage did not clean the block")
	}
	if c.S.Destages != 1 {
		t.Fatalf("destage count %d", c.S.Destages)
	}
}

func TestRedirtyDuringDestage(t *testing.T) {
	c := newCache(4, false)
	c.Insert(7, true)
	c.BeginDestage(7)
	c.MarkDirty(7) // written again while the write-back is in flight
	c.CompleteDestage(7)
	e := c.Lookup(7)
	if !e.Dirty {
		t.Fatal("redirtied block lost its dirty bit when the destage landed")
	}
	if e.Destaging {
		t.Fatal("still marked destaging")
	}
	// And it can be destaged again.
	c.BeginDestage(7)
	c.CompleteDestage(7)
	if c.Lookup(7).Dirty {
		t.Fatal("second destage failed")
	}
}

func TestOldDataShadows(t *testing.T) {
	c := newCache(4, true)
	c.Insert(1, false)
	c.MarkDirty(1) // clean -> dirty: shadow captured
	if !c.Lookup(1).HasOld {
		t.Fatal("no shadow captured")
	}
	if c.Used() != 2 {
		t.Fatalf("used %d, want 2 (entry + shadow)", c.Used())
	}
	c.MarkDirty(1) // second write: no second shadow
	if c.Used() != 2 {
		t.Fatalf("used %d after second write", c.Used())
	}
	if c.S.OldCaptured != 1 {
		t.Fatalf("captured %d", c.S.OldCaptured)
	}
	c.BeginDestage(1)
	c.CompleteDestage(1)
	e := c.Lookup(1)
	if e.HasOld || c.Used() != 1 {
		t.Fatal("destage did not release the shadow")
	}
}

func TestShadowSkippedWhenFull(t *testing.T) {
	c := newCache(2, true)
	c.Insert(1, false)
	c.Insert(2, false)
	c.MarkDirty(1) // full: no room for the shadow
	if c.Lookup(1).HasOld {
		t.Fatal("shadow captured in a full cache")
	}
	if c.S.OldSkipped != 1 {
		t.Fatalf("skip count %d", c.S.OldSkipped)
	}
}

func TestDirtyWriteMissHasNoShadow(t *testing.T) {
	c := newCache(4, true)
	c.Insert(9, true) // write miss: inserted dirty, no old image known
	if c.Lookup(9).HasOld {
		t.Fatal("write-miss block should have no shadow")
	}
	if c.Used() != 1 {
		t.Fatalf("used %d", c.Used())
	}
}

func TestCleanVictim(t *testing.T) {
	c := newCache(3, false)
	c.Insert(1, true)
	c.Insert(2, false)
	c.Insert(3, true)
	if v := c.CleanVictim(); v == nil || v.LBA != 2 {
		t.Fatalf("clean victim %v", v)
	}
	c.Drop(2)
	if v := c.CleanVictim(); v != nil {
		t.Fatalf("clean victim in all-dirty cache: %d", v.LBA)
	}
}

func TestParityPending(t *testing.T) {
	c := newCache(6, true)
	k1 := ParityKey{Disk: 10, Block: 5}
	k2 := ParityKey{Disk: 10, Block: 2}
	if !c.AddParityPending(k1, false) || !c.AddParityPending(k2, true) {
		t.Fatal("admission failed with space available")
	}
	if c.Used() != 2 || c.ParityPendingCount() != 2 {
		t.Fatalf("used %d pending %d", c.Used(), c.ParityPendingCount())
	}
	// Coalescing: duplicate key keeps one slot; full flag is sticky.
	if !c.AddParityPending(k1, true) {
		t.Fatal("coalescing add failed")
	}
	if c.ParityPendingCount() != 2 {
		t.Fatal("duplicate consumed a slot")
	}
	// C-SCAN picks: from the start of the disk, between the two blocks,
	// and past the last one (wrap to the lowest).
	for _, tc := range []struct {
		from ParityKey
		want ParityKey
	}{
		{ParityKey{Disk: 10, Block: 0}, k2},
		{ParityKey{Disk: 10, Block: 3}, k1},
		{ParityKey{Disk: 10, Block: 5}, k1},
		{ParityKey{Disk: 10, Block: 6}, k2},
	} {
		if p, ok := c.NextParity(tc.from); !ok || p.Key != tc.want {
			t.Fatalf("NextParity(%v) = %v, %v; want %v", tc.from, p, ok, tc.want)
		}
	}
	if p, _ := c.NextParity(k1); !p.Full {
		t.Fatal("full flag not sticky across coalescing")
	}
	if p, _ := c.NextParity(k2); !p.Full {
		t.Fatal("full flag lost")
	}
	c.RemoveParityPending(k1)
	if c.Used() != 1 {
		t.Fatalf("used %d after removal", c.Used())
	}
	if c.hasParityPending(k1) {
		t.Fatal("removed key still pending")
	}
	c.RemoveParityPending(k2)
	if _, ok := c.NextParity(ParityKey{}); ok {
		t.Fatal("NextParity on an empty spool reported a pick")
	}
}

func TestParityAdmissionStall(t *testing.T) {
	c := mustNew(Config{Blocks: 4, KeepOldData: true})
	c.Insert(7, false)
	// The spool may fill every free slot: three beside the data block.
	for b := int64(1); b <= 3; b++ {
		if !c.AddParityPending(ParityKey{0, b}, false) {
			t.Fatalf("admission %d into a free slot failed", b)
		}
	}
	if c.AddParityPending(ParityKey{0, 4}, false) {
		t.Fatal("admission into a full cache should stall")
	}
	if c.S.ParityStalls != 1 {
		t.Fatalf("stall count %d", c.S.ParityStalls)
	}
	// A duplicate coalesces without a slot, even when the cache is full.
	if !c.AddParityPending(ParityKey{0, 2}, true) {
		t.Fatal("duplicate admission into a full cache should coalesce")
	}
}

func TestAccountingPanics(t *testing.T) {
	cases := []func(c *Cache){
		func(c *Cache) { c.Insert(1, false); c.Insert(1, false) }, // duplicate
		func(c *Cache) { c.Drop(42) },                             // absent
		func(c *Cache) { c.BeginDestage(42) },                     // absent
		func(c *Cache) { c.Insert(1, false); c.BeginDestage(1) },  // clean
		func(c *Cache) { c.CompleteDestage(42) },                  // absent
		func(c *Cache) { c.RemoveParityPending(ParityKey{1, 1}) },
		func(c *Cache) { // over capacity
			c.Insert(1, false)
			c.Insert(2, false)
			c.Insert(3, false)
			c.Insert(4, false)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f(newCache(3, true))
		}()
	}
	// MarkDirty of an absent block reports the miss and changes nothing.
	c := newCache(3, true)
	c.Insert(1, false)
	before := c.S
	if c.MarkDirty(42) {
		t.Error("MarkDirty of an absent block reported a hit")
	}
	if c.S != before || c.Used() != 1 || c.Len() != 1 || c.DirtyCount() != 0 || c.Contains(42) {
		t.Errorf("MarkDirty of an absent block changed the cache: used %d, len %d, dirty %d, stats %+v",
			c.Used(), c.Len(), c.DirtyCount(), c.S)
	}
}

// liveEntries returns a copy of every cached block's entry, found
// through the block index.
func liveEntries(c *Cache) []Entry {
	var out []Entry
	for _, s := range c.index {
		if s.ref != 0 {
			out = append(out, *c.at(s.ref - 1))
		}
	}
	return out
}

// bruteDirtyNotDestaging is the reference for the idle-dirty index: a
// sorted scan of every entry.
func bruteDirtyNotDestaging(c *Cache) []int64 {
	var out []int64
	for _, e := range liveEntries(c) {
		if e.Dirty && !e.Destaging {
			out = append(out, e.LBA)
		}
	}
	slices.Sort(out)
	return out
}

// bruteNextParity is the reference C-SCAN pick over a single parity disk:
// copy the spool, sort it, and take the first block at or after from,
// else the lowest.
func bruteNextParity(pending map[ParityKey]bool, from int64) (ParityKey, bool) {
	keys := make([]ParityKey, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return ParityKey{}, false
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Disk != keys[j].Disk {
			return keys[i].Disk < keys[j].Disk
		}
		return keys[i].Block < keys[j].Block
	})
	for _, k := range keys {
		if k.Block >= from {
			return k, true
		}
	}
	return keys[0], true
}

// TestQuickOccupancyInvariant drives the cache with random operations and
// checks that used slots always equal entries + shadows + pending parity
// and never exceed capacity, and that both incremental indexes — the
// idle-dirty set and the sorted parity spool — agree with brute-force
// references after every operation. The small cache fills often, so
// shadow captures are regularly skipped; dirty blocks are redirtied
// mid-destage and dropped.
func TestQuickOccupancyInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := mustNew(Config{Blocks: 16, KeepOldData: true})
		inCache := map[int64]bool{}
		destaging := map[int64]bool{}
		pending := map[ParityKey]bool{} // key -> full
		for op := 0; op < 500; op++ {
			lba := int64(src.Intn(40))
			switch src.Intn(7) {
			case 0: // insert
				if !inCache[lba] && c.FreeSlots() > 0 {
					c.Insert(lba, src.Bool(0.5))
					inCache[lba] = true
				}
			case 1: // write hit, possibly redirtying a block mid-destage
				if inCache[lba] {
					c.MarkDirty(lba)
				}
			case 2: // drop a victim
				if v := c.Victim(); v != nil && !v.Dirty {
					delete(inCache, v.LBA)
					c.Drop(v.LBA)
				}
			case 3: // begin destage
				if e := c.Lookup(lba); e != nil && e.Dirty && !e.Destaging {
					c.BeginDestage(lba)
					destaging[lba] = true
				}
			case 4: // complete destage
				for l := range destaging {
					c.CompleteDestage(l)
					delete(destaging, l)
					break
				}
			case 5: // parity traffic
				k := ParityKey{Disk: 0, Block: int64(src.Intn(10))}
				if src.Bool(0.5) {
					full := src.Bool(0.3)
					if c.AddParityPending(k, full) {
						pending[k] = pending[k] || full
					}
				} else if _, ok := pending[k]; ok {
					c.RemoveParityPending(k)
					delete(pending, k)
				}
			case 6: // drop a block with no write-back in flight, dirty or not
				if e := c.Lookup(lba); e != nil && !e.Destaging {
					delete(inCache, lba)
					c.Drop(lba)
				}
			}
			// Invariant.
			shadows := 0
			for l := range inCache {
				if e := c.Lookup(l); e != nil && e.HasOld {
					shadows++
				}
			}
			want := len(inCache) + shadows + c.ParityPendingCount()
			if c.Used() != want || c.Used() > c.Capacity() {
				return false
			}
			if c.Len() != len(inCache) {
				return false
			}
			dirty := 0
			for _, e := range liveEntries(c) {
				if e.Dirty {
					dirty++
				}
			}
			if c.DirtyCount() != dirty {
				return false
			}
			// Idle-dirty index against a full scan.
			ref := bruteDirtyNotDestaging(c)
			if !slices.Equal(c.DirtyNotDestaging(nil), ref) || c.DirtyNotDestagingCount() != len(ref) {
				t.Logf("seed %d op %d: DirtyNotDestaging %v, scan %v", seed, op, c.DirtyNotDestaging(nil), ref)
				return false
			}
			// Parity spool against copy-sort-scan, from a random sweep
			// position that includes past-the-end (the wrap).
			if c.ParityPendingCount() != len(pending) {
				return false
			}
			pos := int64(src.Intn(12))
			got, gotOK := c.NextParity(ParityKey{Disk: 0, Block: pos})
			wantKey, wantOK := bruteNextParity(pending, pos)
			if gotOK != wantOK || (gotOK && (got.Key != wantKey || got.Full != pending[wantKey])) {
				t.Logf("seed %d op %d: NextParity(%d) = %v %v, reference %v %v", seed, op, pos, got, gotOK, wantKey, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNextParityMultiDisk: with several parity disks in the spool the
// pick follows (disk, block) order and wraps from the last disk's last
// block to the first disk's first.
func TestNextParityMultiDisk(t *testing.T) {
	c := newCache(16, false)
	for _, k := range []ParityKey{{2, 1}, {1, 9}, {1, 3}, {2, 7}} {
		if !c.AddParityPending(k, false) {
			t.Fatalf("admission of %v failed", k)
		}
	}
	for _, tc := range []struct{ from, want ParityKey }{
		{ParityKey{0, 50}, ParityKey{1, 3}},
		{ParityKey{1, 4}, ParityKey{1, 9}},
		{ParityKey{1, 10}, ParityKey{2, 1}},
		{ParityKey{2, 7}, ParityKey{2, 7}},
		{ParityKey{2, 8}, ParityKey{1, 3}},
	} {
		if p, ok := c.NextParity(tc.from); !ok || p.Key != tc.want {
			t.Errorf("NextParity(%v) = %v, want %v", tc.from, p.Key, tc.want)
		}
	}
}

// TestIndexAllocBudgets pins the per-call cost of the cache's two polled
// indexes in allocations, which unlike host time is the same on every
// machine: a regression to a whole-cache scan or a spool copy fails here
// instead of hiding in timing noise.
func TestIndexAllocBudgets(t *testing.T) {
	// A full cache of clean blocks has no destage candidates: the tick's
	// query must not allocate.
	c := newCache(4096, true)
	for i := int64(0); i < 4096; i++ {
		c.Insert(i, false)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.DirtyNotDestaging(nil) }); n != 0 {
		t.Errorf("DirtyNotDestaging on a clean cache allocates %.0f, want 0", n)
	}
	// With candidates, appending into a reused buffer allocates nothing.
	for _, l := range []int64{4000, 7, 1234} {
		c.MarkDirty(l)
	}
	var buf []int64
	if n := testing.AllocsPerRun(100, func() { buf = c.DirtyNotDestaging(buf[:0]) }); n != 0 {
		t.Errorf("DirtyNotDestaging with 3 candidates into a reused buffer allocates %.0f, want 0", n)
	}
	if want := []int64{7, 1234, 4000}; !slices.Equal(buf, want) {
		t.Errorf("DirtyNotDestaging = %v, want %v", buf, want)
	}
	// The spool pick reads in place.
	p := newCache(4096, true)
	for b := int64(0); b < 2048; b++ {
		p.AddParityPending(ParityKey{Disk: 5, Block: 3 * b}, b%4 == 0)
	}
	from := ParityKey{Disk: 5}
	if n := testing.AllocsPerRun(100, func() {
		pick, _ := p.NextParity(from)
		from.Block = pick.Key.Block + 1
	}); n != 0 {
		t.Errorf("NextParity allocates %.0f, want 0", n)
	}
}

// TestDirtyNotDestagingSkipsEntryMap: the destage query reads only the
// idle-dirty index. With the block index and the LRU list hidden and
// every entry's dirty bit cleared, a whole-cache walk would find nothing;
// the idle-dirty index still yields every candidate, in order.
func TestDirtyNotDestagingSkipsEntryMap(t *testing.T) {
	c := newCache(4096, false)
	for i := int64(0); i < 4000; i++ {
		c.Insert(i, i == 3999 || i == 17 || i == 512)
	}
	index, head, tail := c.index, c.head, c.tail
	c.index, c.head, c.tail = nil, none, none
	for x := range c.n {
		c.at(x).Dirty = false
	}
	got := c.DirtyNotDestaging(nil)
	c.index, c.head, c.tail = index, head, tail
	if want := []int64{17, 512, 3999}; !slices.Equal(got, want) {
		t.Fatalf("DirtyNotDestaging without the entry map = %v, want %v", got, want)
	}
}

// TestRecycledEntryNeverAliases: Drop hands an entry to the free list and
// Insert reuses it, but the reused entry must describe only its new
// block — the dropped block stays absent and no two live blocks share
// an entry.
func TestRecycledEntryNeverAliases(t *testing.T) {
	c := newCache(8, true)
	for l := int64(0); l < 4; l++ {
		c.Insert(l, l%2 == 1)
	}
	old := c.Lookup(1)
	c.Drop(1)
	e := c.Insert(100, false)
	if e != old {
		t.Fatal("Insert did not reuse the dropped entry")
	}
	if got := c.Lookup(1); got != nil {
		t.Fatalf("Lookup of the dropped block returned %+v, want nil", got)
	}
	if e.LBA != 100 || e.Dirty || e.HasOld || e.Destaging {
		t.Fatalf("reused entry carries stale state: %+v", e)
	}
	if c.DirtyCount() != 1 || !slices.Equal(c.DirtyNotDestaging(nil), []int64{3}) {
		t.Fatalf("dirty set %v (count %d), want [3]", c.DirtyNotDestaging(nil), c.DirtyCount())
	}
	seen := make(map[*Entry]int64)
	for _, l := range []int64{0, 2, 3, 100} {
		p := c.Lookup(l)
		if p == nil || p.LBA != l {
			t.Fatalf("Lookup(%d) = %+v", l, p)
		}
		if prev, ok := seen[p]; ok {
			t.Fatalf("blocks %d and %d share one entry", prev, l)
		}
		seen[p] = l
	}
	// Steady-state churn reuses entries instead of allocating.
	next := int64(200)
	if n := testing.AllocsPerRun(100, func() {
		c.Drop(c.Victim().LBA)
		c.Insert(next, false)
		next++
	}); n != 0 {
		t.Errorf("drop+insert allocates %.0f, want 0", n)
	}
}

// bytesAllocated returns the heap bytes f allocates, the least of three
// runs so that an allocation elsewhere in the process cannot inflate it.
func bytesAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCacheAllocBudget pins what the block index and the entry store
// cost in allocations, which unlike host time are the same on every
// machine. A cache that holds few blocks must pay for those blocks, not
// for its capacity: a fleet of short runs each builds caches of 8–64 MB
// and fills a small part of them.
func TestCacheAllocBudget(t *testing.T) {
	// Steady state on a full cache: hits, write hits and the
	// drop-then-insert of eviction reuse what the fill allocated.
	c := newCache(4096, true)
	for l := int64(0); l < 4096; l++ {
		c.Insert(l, l%3 == 0)
	}
	next, hot := int64(4096), int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Touch(hot)
		c.MarkDirty(hot + 1)
		hot = (hot + 7) % next
		v := c.Victim()
		if v.Dirty {
			c.BeginDestage(v.LBA)
			c.CompleteDestage(v.LBA)
		}
		c.Drop(v.LBA)
		c.Insert(next, next%2 == 0)
		next++
	}); n != 0 {
		t.Errorf("steady-state touch, mark, drop and insert allocate %.1f per op, want 0", n)
	}

	// A 64 MB cache (16,384 blocks) holding 1,400 blocks: the index
	// doubles to 4,096 positions and the store takes six 6 KiB chunks,
	// 168,296 bytes in all. Sized from the capacity instead, they would
	// take 32,768 16-byte index positions and 16,384 24-byte entries,
	// 917,504 bytes.
	const fillBudget = 192 << 10
	if b := bytesAllocated(func() {
		c := newCache(16384, true)
		for l := int64(0); l < 1400; l++ {
			c.Insert(7*l, false)
		}
	}); b > fillBudget {
		t.Errorf("filling 1,400 of 16,384 blocks allocates %d bytes, want at most %d", b, fillBudget)
	}

	// Filling a 4,096-block cache takes 32: the cache and its first
	// index, 9 index doublings (16 to 8,192 positions), 16 store chunks
	// and 5 growths of the chunk list.
	const fillAllocs = 36
	if n := testing.AllocsPerRun(10, func() {
		c := newCache(4096, true)
		for l := int64(0); l < 4096; l++ {
			c.Insert(l, false)
		}
	}); n > fillAllocs {
		t.Errorf("filling a 4,096-block cache takes %.0f allocations, want at most %d", n, fillAllocs)
	}
}

// TestRecycledCacheGrowsAsNew: a cache reset for a smaller capacity
// reuses its full store chunks, and fills and grows its index exactly as
// a new cache does, position for position.
func TestRecycledCacheGrowsAsNew(t *testing.T) {
	c := newCache(1000, true)
	for l := int64(0); l < 600; l++ {
		c.Insert(3*l, l%2 == 0)
	}
	kept := map[*Entry]bool{}
	for _, ch := range c.store {
		if len(ch) == chunkLen {
			kept[&ch[0]] = true
		}
	}
	cfg := Config{Blocks: 300, KeepOldData: false}
	c.reset(cfg)
	fresh := new(Cache)
	fresh.reset(cfg)
	if c.Len() != 0 || c.Used() != 0 || c.S != (Stats{}) || len(c.index) != minIndex {
		t.Fatalf("reset cache: len %d, used %d, stats %+v, index %d", c.Len(), c.Used(), c.S, len(c.index))
	}
	for l := int64(0); l < 300; l++ {
		c.Insert(5*l, l%3 == 0)
		fresh.Insert(5*l, l%3 == 0)
		if !slices.Equal(c.index, fresh.index) {
			t.Fatalf("after %d inserts the recycled index differs from a new cache's", l+1)
		}
		checkIndex(t, c)
	}
	if !kept[&c.store[0][0]] || len(c.store[1]) != 300-chunkLen {
		t.Errorf("recycled store did not reuse a full chunk, or sized its last one %d", len(c.store[1]))
	}
	if got, want := lruOrder(t, c), lruOrder(t, fresh); !slices.Equal(got, want) {
		t.Errorf("LRU order %v, want %v", got, want)
	}
}

// TestNewRejectsCapacity: a capacity must be positive, and its store
// indices must fit the int32 links.
func TestNewRejectsCapacity(t *testing.T) {
	bad := []int{0, -1}
	if huge := int64(math.MaxInt32) + 1; huge <= math.MaxInt {
		bad = append(bad, int(huge))
	}
	for _, n := range bad {
		if _, err := New(Config{Blocks: n}); err == nil {
			t.Errorf("New accepted a capacity of %d blocks", n)
		}
	}
	if _, err := New(Config{Blocks: math.MaxInt32}); err != nil {
		t.Errorf("New rejected the largest capacity: %v", err)
	}
}
