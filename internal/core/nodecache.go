package core

// The decoded-object cache generalizes the pinned-root discipline of
// rootcache.go to the rest of the tree: decoded directory nodes and data
// pages are kept in their operable in-memory form, keyed by PageID, so a
// steady-state descent touches serialized page bytes only at the storage
// boundary. Coherence follows the same commit-point rules as the root:
//
//   - read-only descents (Search, Range, Validate, walks) may share the
//     cached object and must not mutate it; concurrent readers of a data
//     page hold its shared latch, because of the in-place exception below;
//   - node-mutating descents work on a private copy (readNodeMut,
//     readPageMut) and the cache is updated write-through only after the
//     page write committed (writeNode, writePage), so a storage fault
//     leaves cache, memory and disk agreeing on the previous state;
//   - the insert fast path is the one in-place exception: under the
//     page's exclusive latch it mutates the cached data page directly and
//     writes it through, dropping the entry if the store write fails —
//     the next decode then restores the committed state;
//   - freeing a page invalidates its entry before the store free, so a
//     recycled PageID can never resurrect a stale decoded image.
//
// Concurrency: a hit takes no lock and writes no shared memory. Each shard
// publishes an open-addressing table of entry pointers behind an atomic
// pointer, and get probes it lock-free. Writers serialize on the shard's
// mutex and keep three rules that make a lock-free probe safe:
//
//   - a slot never goes back to nil: a delete stores a tombstone, so a
//     concurrent probe cannot stop short of an entry further down its run;
//   - when live entries plus tombstones would pass ¾ of the slots, the
//     writer builds a fresh table, publishes it, and never writes the old
//     one again — a probe still walking the old table sees a consistent,
//     if momentarily stale, image;
//   - an entry's id never changes, and put on a present id swaps its value
//     with an atomic store, so a probe that found the entry returns either
//     the old or the new object for that id, never another id's.
//
// The ref bit is stored only when clear, so a hot entry's hits leave its
// cache line shared; eviction is a clock hand over the slots. Dirty
// entries are pinned, and a fresh entry is clean, so an install can always
// evict something: a shard never holds more than its capacity. In a shard
// full of dirty entries the fresh entry itself is the victim.
//
// Accounting: a cache hit still counts one logical read at the store
// layer via pagestore.ReadAccounter, keeping the paper's §4 access model
// (levels−1 node reads + 1 data read per probe) exact on counting stores
// while skipping the byte copy and the decode entirely.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
)

const (
	// objCacheShards stripes the writers' mutexes and the read tables.
	objCacheShards = 16
	// defaultNodeCacheCap bounds cached decoded directory nodes. Interior
	// nodes are few (one per ~2^φ regions), so this covers directories far
	// past the paper's 2^27-element scale.
	defaultNodeCacheCap = 1024
	// defaultPageCacheCap bounds cached decoded data pages. Sized to keep
	// the hot working set of write-heavy workloads decoded: a miss costs a
	// Decode allocation and, because a fresh decode has no spare record
	// capacity, a reallocation on the next in-place insert. At ~2KB per
	// decoded page this bounds the cache near 64MB.
	defaultPageCacheCap = 32768
	// objMinSlots is the smallest slot table; tables are powers of two.
	objMinSlots = 16
	// cacheLine is the padding unit that keeps the readers' table pointer
	// off the line the writers' mutex and counters dirty.
	cacheLine = 64
)

// objCacheStats are the cache's white-box counters. Hits are not counted:
// a shared hit counter is exactly the cache-line write a hit must avoid.
type objCacheStats struct {
	Misses, Evictions, Invalidations uint64
}

// objEntry is one cached object with its second-chance reference bit and,
// for data pages on the deferred write-back path, a dirty bit. A dirty
// entry's decoded object is ahead of the page bytes and is the only
// up-to-date form, so eviction skips it; the dirty-page flusher clears the
// bit once the bytes catch up. markDirty and the eviction sweep both run
// under the shard mutex, so an entry can never be both chosen as victim
// and marked dirty.
type objEntry[T any] struct {
	id    pagestore.PageID
	val   atomic.Pointer[T]
	ref   atomic.Bool
	dirty atomic.Bool
}

// objTable is one published slot array. Slots hold nil (never used), the
// cache's tombstone (deleted), or a live entry.
type objTable[T any] struct {
	slots []atomic.Pointer[objEntry[T]]
	mask  uint32
	shift uint32
}

// newObjTable returns an empty table of n slots, a power of two.
func newObjTable[T any](n int) *objTable[T] {
	return &objTable[T]{
		slots: make([]atomic.Pointer[objEntry[T]], n),
		mask:  uint32(n - 1),
		shift: uint32(32 - bits.TrailingZeros(uint(n))),
	}
}

// home is id's first probe slot: a Fibonacci hash of the id's bits above
// the shard selector.
func (tb *objTable[T]) home(id pagestore.PageID) uint32 {
	return (uint32(id/objCacheShards) * 0x9e3779b9) >> tb.shift
}

// objShard is one stripe: the read table, then — a cache line away — the
// writers' mutex and the bookkeeping it guards.
type objShard[T any] struct {
	tab  atomic.Pointer[objTable[T]]
	_    [cacheLine - 8]byte
	mu   sync.Mutex
	live int // entries in tab
	dead int // tombstones in tab
	hand uint32
	_    [cacheLine - 32]byte
}

// objCache is a sharded, capacity-bounded map from PageID to a decoded
// object (*T) with CLOCK eviction. Capacity 0 disables the cache (every
// get misses, puts are dropped).
type objCache[T any] struct {
	perShard int
	tomb     *objEntry[T]
	shards   [objCacheShards]objShard[T]
	misses   atomic.Uint64
	evicts   atomic.Uint64
	invals   atomic.Uint64
}

// newObjCache returns a cache bounded to roughly capacity entries.
func newObjCache[T any](capacity int) *objCache[T] {
	c := &objCache[T]{
		perShard: (capacity + objCacheShards - 1) / objCacheShards,
		tomb:     &objEntry[T]{},
	}
	for i := range c.shards {
		c.shards[i].tab.Store(newObjTable[T](objMinSlots))
	}
	return c
}

func (c *objCache[T]) shard(id pagestore.PageID) *objShard[T] {
	return &c.shards[uint32(id)%objCacheShards]
}

// probe walks id's run in tab and returns its slot and entry, or -1, nil.
func (c *objCache[T]) probe(tab *objTable[T], id pagestore.PageID) (int, *objEntry[T]) {
	for i := tab.home(id); ; i = (i + 1) & tab.mask {
		e := tab.slots[i].Load()
		if e == nil {
			return -1, nil
		}
		if e.id == id && e != c.tomb {
			return int(i), e
		}
	}
}

// find returns id's entry, or nil. Readers call it without a lock;
// writers, under s.mu, see the current table.
func (c *objCache[T]) find(id pagestore.PageID) *objEntry[T] {
	if c.perShard == 0 {
		return nil
	}
	_, e := c.probe(c.shard(id).tab.Load(), id)
	return e
}

// get returns the cached object for id, marking it recently used.
func (c *objCache[T]) get(id pagestore.PageID) (*T, bool) {
	e := c.find(id)
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.touch()
	return e.val.Load(), true
}

// touch sets the ref bit, storing only when it is clear.
func (e *objEntry[T]) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// insertLocked adds a fresh entry for id, which must be absent, rebuilding
// the table first if the insert would push its used slots past ¾, and
// evicting one entry if the shard is then over capacity.
func (c *objCache[T]) insertLocked(s *objShard[T], id pagestore.PageID, v *T) {
	tab := s.tab.Load()
	if 4*(s.live+s.dead+1) > 3*len(tab.slots) {
		tab = c.rebuildLocked(s)
	}
	e := &objEntry[T]{id: id}
	e.val.Store(v)
	e.ref.Store(true)
	for i := tab.home(id); ; i = (i + 1) & tab.mask {
		switch tab.slots[i].Load() {
		case c.tomb:
			s.dead--
		case nil:
		default:
			continue
		}
		tab.slots[i].Store(e)
		if s.live++; s.live > c.perShard {
			c.evictLocked(s)
			c.evicts.Add(1)
		}
		return
	}
}

// rebuildLocked publishes a fresh table holding the live entries, sized so
// they fill at most half of it, and drops the tombstones. The old table is
// never written again: probes still walking it see a frozen image.
func (c *objCache[T]) rebuildLocked(s *objShard[T]) *objTable[T] {
	n := objMinSlots
	for n < 2*(s.live+1) {
		n <<= 1
	}
	old, tab := s.tab.Load(), newObjTable[T](n)
	for i := range old.slots {
		e := old.slots[i].Load()
		if e == nil || e == c.tomb {
			continue
		}
		j := tab.home(e.id)
		for tab.slots[j].Load() != nil {
			j = (j + 1) & tab.mask
		}
		tab.slots[j].Store(e)
	}
	s.tab.Store(tab)
	s.dead, s.hand = 0, 0
	return tab
}

// removeLocked tombstones slot i of the current table.
func (c *objCache[T]) removeLocked(s *objShard[T], i int) {
	s.tab.Load().slots[i].Store(c.tomb)
	s.live--
	s.dead++
}

// evictLocked removes one clean entry, which the caller guarantees exists,
// by a second-chance clock sweep: the hand clears the ref bits of recently
// used entries on its first lap and takes the first clean entry after
// that. Dirty entries are never victims: their decoded object is the only
// up-to-date form.
func (c *objCache[T]) evictLocked(s *objShard[T]) {
	tab := s.tab.Load()
	for step := 0; ; step++ {
		i := s.hand
		s.hand = (i + 1) & tab.mask
		e := tab.slots[i].Load()
		if e == nil || e == c.tomb || e.dirty.Load() {
			continue
		}
		if step < len(tab.slots) && e.ref.Load() {
			e.ref.Store(false) // recently used: spend its second chance
			continue
		}
		c.removeLocked(s, int(i))
		return
	}
}

// put installs (or replaces) the object for id. A put is a write commit —
// the caller just wrote the bytes — so it clears any dirty bit.
func (c *objCache[T]) put(id pagestore.PageID, v *T) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e := c.find(id); e != nil {
		e.val.Store(v)
		e.touch()
		e.dirty.Store(false)
	} else {
		c.insertLocked(s, id, v)
	}
	s.mu.Unlock()
}

// putIfAbsent installs the object for id only when no entry exists.
// Read-miss installs use this so a slow reader cannot overwrite a newer
// object committed by a writer between the reader's storage read and its
// cache install.
func (c *objCache[T]) putIfAbsent(id pagestore.PageID, v *T) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e := c.find(id); e != nil {
		e.touch()
	} else {
		c.insertLocked(s, id, v)
	}
	s.mu.Unlock()
}

// markDirty flags id's entry as dirty, pinning it against eviction until
// the flusher clears it. It reports whether an entry was present: when it
// is not (cache disabled, or the entry was evicted before the caller's
// mutation), the caller must fall back to writing the page through.
// newly distinguishes the first marking from re-dirtying, so each page
// enters the flush queue once.
func (c *objCache[T]) markDirty(id pagestore.PageID) (newly, ok bool) {
	if c.perShard == 0 {
		return false, false
	}
	s := c.shard(id)
	s.mu.Lock()
	e := c.find(id)
	if e != nil {
		e.touch()
		newly = e.dirty.CompareAndSwap(false, true)
	}
	s.mu.Unlock()
	return newly, e != nil
}

// getIfDirty returns the cached object only if it is present and dirty.
// The flusher uses it: an entry that went absent (freed) or clean
// (rewritten through writePage) since it was queued needs no flush.
func (c *objCache[T]) getIfDirty(id pagestore.PageID) (*T, bool) {
	if e := c.find(id); e != nil && e.dirty.Load() {
		return e.val.Load(), true
	}
	return nil, false
}

// clearDirty marks id's entry clean again. The caller must have excluded
// concurrent mutators of the object (the flusher holds the page's shared
// latch, so in-place inserters, who need it exclusive, are out).
func (c *objCache[T]) clearDirty(id pagestore.PageID) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if e := c.find(id); e != nil {
		e.dirty.Store(false)
	}
	s.mu.Unlock()
}

// invalidate drops the entry for id, if any.
func (c *objCache[T]) invalidate(id pagestore.PageID) {
	if c.perShard == 0 {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if i, _ := c.probe(s.tab.Load(), id); i >= 0 {
		c.removeLocked(s, i)
		c.invals.Add(1)
	}
	s.mu.Unlock()
}

// forEach calls fn for every cached (id, object) pair; for tests and the
// coherence checker. fn must not mutate the object.
func (c *objCache[T]) forEach(fn func(id pagestore.PageID, v *T)) {
	for i := range c.shards {
		tab := c.shards[i].tab.Load()
		for j := range tab.slots {
			if e := tab.slots[j].Load(); e != nil && e != c.tomb {
				fn(e.id, e.val.Load())
			}
		}
	}
}

// len returns the number of cached entries.
func (c *objCache[T]) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.live
		s.mu.Unlock()
	}
	return n
}

// stats snapshots the counters.
func (c *objCache[T]) stats() objCacheStats {
	return objCacheStats{
		Misses:        c.misses.Load(),
		Evictions:     c.evicts.Load(),
		Invalidations: c.invals.Load(),
	}
}

// CacheStats is a snapshot of one decoded cache's counters.
type CacheStats struct {
	Misses, Evictions, Invalidations uint64
	Entries                          int
}

// NodeCacheStats reports the decoded directory-node cache's counters.
func (t *Tree) NodeCacheStats() CacheStats {
	s := t.nc.stats()
	return CacheStats{s.Misses, s.Evictions, s.Invalidations, t.nc.len()}
}

// PageCacheStats reports the decoded data-page cache's counters.
func (t *Tree) PageCacheStats() CacheStats {
	s := t.pc.stats()
	return CacheStats{s.Misses, s.Evictions, s.Invalidations, t.pc.len()}
}

// SetDecodedCacheCapacity resizes the decoded caches (rebuilding them
// empty): nodes bounds cached directory nodes, pages cached data pages.
// Zero or negative disables the respective cache — every read then decodes
// from page bytes, the pre-cache behavior. Dirty pages are flushed first,
// since dropping the old cache discards the only up-to-date form of each.
// Not safe to call concurrently with operations on the tree.
func (t *Tree) SetDecodedCacheCapacity(nodes, pages int) error {
	if err := t.FlushDirtyPages(); err != nil {
		return err
	}
	if nodes < 0 {
		nodes = 0
	}
	if pages < 0 {
		pages = 0
	}
	t.nc = newObjCache[dirnode.Node](nodes)
	t.pc = newObjCache[datapage.Page](pages)
	return nil
}
