package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bmeh/internal/datapage"
	"bmeh/internal/dirnode"
	"bmeh/internal/pagestore"
	"bmeh/internal/params"
	"bmeh/internal/workload"
)

// checkCacheCoherence verifies that every decoded-cache entry agrees
// byte-for-byte with a fresh decode of its page from the store: the
// write-through and invalidation discipline must never let a cached object
// drift from the committed bytes. Deferred in-place inserts are flushed
// first — a dirty page is *supposed* to be ahead of its bytes, and the
// invariant under test is that flushing reconciles the two exactly.
func checkCacheCoherence(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.FlushDirtyPages(); err != nil {
		t.Fatalf("flushing dirty pages: %v", err)
	}
	nbuf := make([]byte, tr.st.PageSize())
	cbuf := make([]byte, tr.st.PageSize())
	tr.nc.forEach(func(id pagestore.PageID, n *dirnode.Node) {
		fresh, err := tr.nodes.Read(id)
		if err != nil {
			t.Fatalf("cached node %d unreadable from store: %v", id, err)
		}
		cn, err := n.Encode(cbuf)
		if err != nil {
			t.Fatalf("encoding cached node %d: %v", id, err)
		}
		fn, err := fresh.Encode(nbuf)
		if err != nil {
			t.Fatalf("encoding stored node %d: %v", id, err)
		}
		if !bytes.Equal(cbuf[:cn], nbuf[:fn]) {
			t.Fatalf("node %d: decoded cache diverged from page bytes", id)
		}
	})
	tr.pc.forEach(func(id pagestore.PageID, p *datapage.Page) {
		fresh, err := tr.pages.Read(id)
		if err != nil {
			t.Fatalf("cached page %d unreadable from store: %v", id, err)
		}
		cn, err := p.Encode(cbuf)
		if err != nil {
			t.Fatalf("encoding cached page %d: %v", id, err)
		}
		fn, err := fresh.Encode(nbuf)
		if err != nil {
			t.Fatalf("encoding stored page %d: %v", id, err)
		}
		if !bytes.Equal(cbuf[:cn], nbuf[:fn]) {
			t.Fatalf("page %d: decoded cache diverged from page bytes", id)
		}
	})
}

// TestObjCacheBasics covers the cache mechanics directly: miss
// accounting, replacement of an existing entry, invalidation, and the
// capacity-0 disable switch.
func TestObjCacheBasics(t *testing.T) {
	ten, eleven := 10, 11
	c := newObjCache[int](64)
	if _, ok := c.get(1); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.put(1, &ten)
	if v, ok := c.get(1); !ok || *v != 10 {
		t.Fatalf("get(1) = %v, %v; want 10, true", v, ok)
	}
	c.put(1, &eleven) // replace
	if v, _ := c.get(1); *v != 11 {
		t.Fatalf("replacement not visible: got %d", *v)
	}
	c.invalidate(1)
	if _, ok := c.get(1); ok {
		t.Fatal("invalidated entry still cached")
	}
	s := c.stats()
	if s.Misses != 2 || s.Invalidations != 1 {
		t.Fatalf("stats = %+v; want 2 misses, 1 invalidation", s)
	}

	off := newObjCache[int](0)
	off.put(1, &ten)
	if _, ok := off.get(1); ok {
		t.Fatal("capacity-0 cache cached an entry")
	}
	if off.len() != 0 {
		t.Fatal("capacity-0 cache has entries")
	}
	off.invalidate(1) // must be a no-op, not a panic
}

// TestObjCacheEviction fills one shard past capacity and checks the clock
// sweep keeps the shard bounded while counting evictions.
func TestObjCacheEviction(t *testing.T) {
	c := newObjCache[int](objCacheShards * 2) // 2 entries per shard
	// PageIDs congruent mod objCacheShards land in the same shard.
	ids := []pagestore.PageID{0, objCacheShards, 2 * objCacheShards, 3 * objCacheShards}
	for i, id := range ids {
		c.put(id, &i)
	}
	s := &c.shards[0]
	s.mu.Lock()
	n := s.live
	s.mu.Unlock()
	if n > c.perShard {
		t.Fatalf("shard holds %d entries, capacity %d", n, c.perShard)
	}
	if st := c.stats(); st.Evictions == 0 {
		t.Fatal("overflow caused no evictions")
	}
	// The cache stays functional after eviction.
	hundred := 100
	c.put(1, &hundred)
	if v, ok := c.get(1); !ok || *v != 100 {
		t.Fatal("cache broken after eviction")
	}
}

// TestObjCacheDirtyPinned checks that dirty entries are never evicted: in
// a shard full of dirty entries a new install is the victim itself, and
// marking an entry clean lets eviction take it instead.
func TestObjCacheDirtyPinned(t *testing.T) {
	c := newObjCache[int](objCacheShards * 2) // 2 entries per shard
	a, b, x := pagestore.PageID(0), pagestore.PageID(objCacheShards), pagestore.PageID(2*objCacheShards)
	one := 1
	c.put(a, &one)
	c.put(b, &one)
	for _, id := range []pagestore.PageID{a, b} {
		if newly, ok := c.markDirty(id); !newly || !ok {
			t.Fatalf("markDirty(%d) = %v, %v; want true, true", id, newly, ok)
		}
	}
	c.put(x, &one)
	if _, ok := c.get(x); ok {
		t.Fatal("install into an all-dirty shard evicted a dirty entry")
	}
	for _, id := range []pagestore.PageID{a, b} {
		if _, ok := c.getIfDirty(id); !ok {
			t.Fatalf("dirty entry %d lost", id)
		}
	}
	c.clearDirty(a)
	c.put(x, &one)
	if _, ok := c.get(x); !ok {
		t.Fatal("no install after an entry went clean")
	}
	if _, ok := c.getIfDirty(b); !ok || c.len() != 2 {
		t.Fatalf("dirty entry %d lost or shard over capacity (len %d)", b, c.len())
	}
}

// TestObjCacheConcurrentStress runs lock-free readers against writers on a
// cache small enough (8 entries per shard over 512 ids) that evictions and
// table rebuilds run throughout. Writers alternate between a dirtying
// phase, which fills shards with dirty entries, and a cleaning phase. It
// checks that get never returns another id's object, that a dirty entry
// that was not invalidated is never missed, and that len() stays within
// capacity — dirty entries are pinned, so this holds only because an
// install into a shard full of them evicts the fresh entry instead.
//
// The "never missed" property depends on the page latch, modeled here by
// latches: in the tree, readers hold a data page's shared latch across
// readPage and the insert fast path marks the page dirty under the
// exclusive one, so a probe cannot overlap the markDirty it would
// otherwise race with. Every writer operation here holds the id's
// exclusive latch and every read the shared one, which also keeps the
// dirty model exact.
func TestObjCacheConcurrentStress(t *testing.T) {
	const (
		nids     = 512
		writers  = 4
		readers  = 4
		phaseOps = 1000
	)
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	type obj struct{ id pagestore.PageID }
	c := newObjCache[obj](objCacheShards * 8)
	var latches [nids]sync.RWMutex
	var dirty [nids]bool // guarded by latches[id]

	var done atomic.Bool
	var writersWG, othersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := pagestore.PageID(rng.Intn(nids))
				r := rng.Intn(100)
				if (i/phaseOps)%2 == 0 { // dirtying phase
					switch {
					case r < 45:
						r = 30 // putIfAbsent
					case r < 90:
						r = 60 // markDirty
					default:
						r = 95 // getIfDirty
					}
				}
				l := &latches[id]
				l.Lock()
				switch {
				case r < 25:
					c.put(id, &obj{id})
					dirty[id] = false
				case r < 40:
					c.putIfAbsent(id, &obj{id})
				case r < 55:
					c.invalidate(id)
					dirty[id] = false
				case r < 65:
					newly, ok := c.markDirty(id)
					if dirty[id] && (!ok || newly) {
						t.Errorf("markDirty(%d) = %v, %v on a dirty entry", id, newly, ok)
					}
					dirty[id] = dirty[id] || ok
				case r < 90:
					c.clearDirty(id)
					dirty[id] = false
				default:
					v, ok := c.getIfDirty(id)
					if ok != dirty[id] {
						t.Errorf("getIfDirty(%d) ok=%v, want %v", id, ok, dirty[id])
					} else if ok && v.id != id {
						t.Errorf("getIfDirty(%d) returned id %d's object", id, v.id)
					}
				}
				l.Unlock()
			}
		}(int64(w + 1))
	}
	for r := 0; r < readers; r++ {
		othersWG.Add(1)
		go func(seed int64) {
			defer othersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				id := pagestore.PageID(rng.Intn(nids))
				l := &latches[id]
				l.RLock()
				v, ok := c.get(id)
				if ok && v.id != id {
					t.Errorf("get(%d) returned id %d's object", id, v.id)
				}
				if !ok && dirty[id] {
					t.Errorf("get(%d) missed a dirty entry", id)
				}
				l.RUnlock()
			}
		}(int64(100 + r))
	}
	othersWG.Add(1)
	go func() {
		defer othersWG.Done()
		for !done.Load() {
			checkObjCacheShards(t, c)
		}
	}()
	writersWG.Wait()
	done.Store(true)
	othersWG.Wait()
	checkObjCacheShards(t, c)
	if c.stats().Evictions == 0 {
		t.Fatal("stress run caused no evictions")
	}
}

// checkObjCacheShards verifies each shard's bookkeeping against its table,
// the capacity bound, and the table's ¾ load limit.
func checkObjCacheShards[T any](t *testing.T, c *objCache[T]) {
	t.Helper()
	if n, capacity := c.len(), c.perShard*objCacheShards; n > capacity {
		t.Errorf("len() = %d over capacity %d", n, capacity)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		live, dead := 0, 0
		tab := s.tab.Load()
		for j := range tab.slots {
			switch e := tab.slots[j].Load(); e {
			case nil:
			case c.tomb:
				dead++
			default:
				live++
			}
		}
		if live != s.live || dead != s.dead {
			t.Errorf("shard %d: counted %d entries, %d tombstones; bookkeeping says %d, %d",
				i, live, dead, s.live, s.dead)
		}
		if live > c.perShard {
			t.Errorf("shard %d: %d entries over capacity %d", i, live, c.perShard)
		}
		if 4*(live+dead) > 3*len(tab.slots) {
			t.Errorf("shard %d: %d of %d slots used", i, live+dead, len(tab.slots))
		}
		s.mu.Unlock()
	}
}

// TestDecodedCacheCoherenceInsert checks cache-vs-store agreement through
// the full growth repertoire: page splits, node doubling, and node split
// chains (the paper example's parameters force all three), with searches
// interleaved to keep the caches populated.
func TestDecodedCacheCoherenceInsert(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("insert K%d: %v", i+1, err)
		}
		for j := 0; j <= i; j++ { // populate the read caches
			if _, ok, err := tr.Search(keys[j]); err != nil || !ok {
				t.Fatalf("after K%d: K%d lost (%v)", i+1, j+1, err)
			}
		}
		checkCacheCoherence(t, tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// A second pass over the keys is served by the caches alone.
	misses := tr.NodeCacheStats().Misses + tr.PageCacheStats().Misses
	for _, k := range keys {
		if _, ok, err := tr.Search(k); err != nil || !ok {
			t.Fatalf("search: ok=%v err=%v", ok, err)
		}
	}
	if m := tr.NodeCacheStats().Misses + tr.PageCacheStats().Misses; m != misses {
		t.Fatalf("warm searches missed the decoded caches %d times", m-misses)
	}
}

// TestDecodedCacheCoherenceDelete deletes a grown tree down to empty,
// checking coherence after every removal: page merges, node merges, GC
// sweeps and root collapses must all leave cache and store agreeing.
func TestDecodedCacheCoherenceDelete(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	keys := workload.Uniform(2, 7).Take(120)
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if _, err := tr.Delete(k); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
		checkCacheCoherence(t, tr)
		// The survivors stay reachable through the (possibly restructured)
		// cached nodes.
		for j := i + 1; j < len(keys); j++ {
			if _, ok, err := tr.Search(keys[j]); err != nil || !ok {
				t.Fatalf("after delete %d: key %d lost (%v)", i, j, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty: %d records", tr.Len())
	}
}

// TestDecodedCacheDisabled runs the paper example with the decoded caches
// off: behavior must be identical (every read decodes from bytes, the
// pre-cache configuration) and nothing may be cached.
func TestDecodedCacheDisabled(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, _ := newTree(t, prm)
	tr.SetDecodedCacheCapacity(0, 0)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	if n, p := tr.NodeCacheStats(), tr.PageCacheStats(); n.Entries != 0 || p.Entries != 0 {
		t.Fatalf("disabled caches hold entries: nodes=%d pages=%d", n.Entries, p.Entries)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedCacheAccounting checks the §4 access model survives the
// decoded cache: a warm exact-match probe still counts (levels−1) node
// reads plus one data-page read at the store layer even when every byte
// read is absorbed by the cache.
func TestDecodedCacheAccounting(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	tr, st := newTree(t, prm)
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Levels() < 2 {
		t.Fatalf("want a multi-level tree, got %d levels", tr.Levels())
	}
	for _, k := range keys { // warm both caches
		if _, ok, err := tr.Search(k); err != nil || !ok {
			t.Fatal("warmup failed")
		}
	}
	want := uint64(tr.Levels()) // (levels−1) node reads + 1 page read
	for i, k := range keys {
		before := st.Stats().Reads
		if _, ok, err := tr.Search(k); err != nil || !ok {
			t.Fatal("probe failed")
		}
		if got := st.Stats().Reads - before; got != want {
			t.Fatalf("key %d: warm probe counted %d reads, want %d", i, got, want)
		}
	}
}

// TestDecodedCacheReload verifies a freshly loaded tree (recovery path)
// starts with empty caches and rebuilds coherent ones from the recovered
// bytes.
func TestDecodedCacheReload(t *testing.T) {
	prm := params.Params{Dims: 2, Width: 32, Capacity: 2, Xi: []int{2, 2}}
	st := pagestore.NewMemDisk(PageBytes(prm))
	tr, err := New(st, prm)
	if err != nil {
		t.Fatal(err)
	}
	keys := paperKeys()
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	meta := tr.MarshalMeta()
	re, err := Load(st, meta)
	if err != nil {
		t.Fatal(err)
	}
	if n, p := re.NodeCacheStats(), re.PageCacheStats(); n.Entries != 0 || p.Entries != 0 {
		t.Fatalf("reloaded tree has pre-populated caches: nodes=%d pages=%d", n.Entries, p.Entries)
	}
	for i, k := range keys {
		if v, ok, err := re.Search(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("reloaded key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	checkCacheCoherence(t, re)
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}
