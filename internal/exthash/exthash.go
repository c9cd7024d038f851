// Package exthash implements the order-preserving variant of 1-dimensional
// extendible hashing described in §2.1 of the paper. It differs from Fagin
// et al.'s original in two ways that carry over to every multidimensional
// scheme in this repository:
//
//   - the address function g(K, H) uses the first H *prefix* bits of the
//     key (order preserving), not a hashed suffix;
//   - the local depth h is stored in the directory element next to the page
//     pointer, not in the data page, which permits immediate deletion of
//     empty pages (their elements become nil).
//
// The package exists both as executable documentation of the base technique
// and as the subject of the §3 worst-case analysis: with w-bit keys the flat
// directory can reach O(M/(b+1)) elements under adversarial low-order-bit
// "noise", the degeneration the BMEH-tree is built to prevent. The
// directory here is kept in memory (it is the data pages whose accesses the
// two-disk-access principle counts); the multidimensional schemes keep
// their directories on disk.
package exthash

import (
	"errors"
	"fmt"

	"bmeh/internal/bitkey"
	"bmeh/internal/datapage"
	"bmeh/internal/pagestore"
)

// ErrDuplicate is returned when inserting a key that is already present.
var ErrDuplicate = errors.New("exthash: duplicate key")

// MaxGlobalDepth caps the directory at 2^24 elements; beyond that the flat
// directory has degenerated (§3 worst case) and Insert fails rather than
// exhausting memory.
const MaxGlobalDepth = 24

// ErrDirectoryOverflow is returned when an insertion would double the
// directory beyond 2^MaxGlobalDepth elements.
var ErrDirectoryOverflow = errors.New("exthash: directory overflow: keys share prefixes too long for a flat directory")

type slot struct {
	ptr pagestore.PageID
	h   int // local depth; meaningful also for nil regions
}

// Table is a 1-dimensional order-preserving extendible hash table.
type Table struct {
	st       pagestore.Store
	pages    *datapage.IO
	width    int
	capacity int
	globalH  int
	dir      []slot
	n        int
}

// Config configures a Table.
type Config struct {
	// Width is the significant bit width of keys (1..64); default 32.
	Width int
	// Capacity is the data page capacity b; default 8.
	Capacity int
}

// PageBytes returns the page size a store must have for the configuration.
func (c Config) PageBytes() int {
	return datapage.Size(1, c.capacityOrDefault())
}

func (c Config) widthOrDefault() int {
	if c.Width == 0 {
		return bitkey.Width
	}
	return c.Width
}

func (c Config) capacityOrDefault() int {
	if c.Capacity == 0 {
		return 8
	}
	return c.Capacity
}

// New creates an empty table over st.
func New(st pagestore.Store, cfg Config) (*Table, error) {
	w, b := cfg.widthOrDefault(), cfg.capacityOrDefault()
	if w < 1 || w > 64 {
		return nil, fmt.Errorf("exthash: width %d out of range 1..64", w)
	}
	if b < 1 {
		return nil, fmt.Errorf("exthash: capacity %d < 1", b)
	}
	if st.PageSize() < datapage.Size(1, b) {
		return nil, fmt.Errorf("exthash: page size %d < required %d", st.PageSize(), datapage.Size(1, b))
	}
	return &Table{
		st:       st,
		pages:    datapage.NewIO(st, 1),
		width:    w,
		capacity: b,
		dir:      []slot{{ptr: pagestore.NilPage, h: 0}},
	}, nil
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.n }

// GlobalDepth returns the directory depth H (directory size is 2^H).
func (t *Table) GlobalDepth() int { return t.globalH }

// DirSize returns the number of directory elements, 2^H.
func (t *Table) DirSize() int { return len(t.dir) }

// addr returns the directory address of key k: g(k, H).
func (t *Table) addr(k bitkey.Component) int {
	return int(bitkey.G(k, t.globalH, t.width))
}

// checkKey rejects keys whose significant bits exceed the table's width.
func (t *Table) checkKey(k bitkey.Component) error {
	if t.width < 64 && uint64(k) >= 1<<uint(t.width) {
		return fmt.Errorf("exthash: key %d exceeds %d-bit width", k, t.width)
	}
	return nil
}

// Search looks up key k. It returns the stored value and whether the key
// was found. Cost: at most one data-page read (the directory is resident).
func (t *Table) Search(k bitkey.Component) (uint64, bool, error) {
	if err := t.checkKey(k); err != nil {
		return 0, false, err
	}
	s := t.dir[t.addr(k)]
	if s.ptr == pagestore.NilPage {
		return 0, false, nil
	}
	p, err := t.pages.Read(s.ptr)
	if err != nil {
		return 0, false, err
	}
	v, ok := p.Get(bitkey.Vector{k})
	return v, ok, nil
}

// Insert stores (k, v). It returns ErrDuplicate if k is present.
func (t *Table) Insert(k bitkey.Component, v uint64) error {
	if err := t.checkKey(k); err != nil {
		return err
	}
	for {
		q := t.addr(k)
		s := t.dir[q]
		if s.ptr == pagestore.NilPage {
			// Allocate a page for the whole nil region (all buddies of q at
			// local depth s.h keep their region; only its pointer changes).
			id, err := t.pages.Alloc()
			if err != nil {
				return err
			}
			p := datapage.New(1)
			p.Insert(bitkey.Vector{k}, v)
			if err := t.pages.Write(id, p); err != nil {
				return err
			}
			t.setRegion(q, s.h, id)
			t.n++
			return nil
		}
		p, err := t.pages.Read(s.ptr)
		if err != nil {
			return err
		}
		if _, dup := p.Get(bitkey.Vector{k}); dup {
			return ErrDuplicate
		}
		if p.Len() < t.capacity {
			p.Insert(bitkey.Vector{k}, v)
			if err := t.pages.Write(s.ptr, p); err != nil {
				return err
			}
			t.n++
			return nil
		}
		if err := t.split(q, p); err != nil {
			return err
		}
	}
}

// split splits the full page under directory element q once, deepening its
// region by one bit, then lets the caller retry.
func (t *Table) split(q int, p *datapage.Page) error {
	s := t.dir[q]
	newh := s.h + 1
	if newh > t.width {
		return fmt.Errorf("exthash: page capacity exhausted at depth %d (duplicate-prefix keys)", s.h)
	}
	if newh > t.globalH {
		if t.globalH >= MaxGlobalDepth {
			return ErrDirectoryOverflow
		}
		t.double()
		q <<= 1 // the region's first element under the deeper directory
	}
	ones := p.PartitionByBit(0, newh, t.width)
	zeroPtr, onePtr := s.ptr, pagestore.NilPage
	switch {
	case ones.Len() == 0:
		// All records stayed low: the high half becomes a nil region.
	case p.Len() == 0:
		// All records moved high: reuse the page for them, low half nil.
		zeroPtr, onePtr = pagestore.NilPage, s.ptr
		p = ones
		ones = nil
	default:
		id, err := t.pages.Alloc()
		if err != nil {
			return err
		}
		onePtr = id
		if err := t.pages.Write(onePtr, ones); err != nil {
			return err
		}
	}
	if zeroPtr != pagestore.NilPage {
		if err := t.pages.Write(zeroPtr, p); err != nil {
			return err
		}
	} else if onePtr != pagestore.NilPage && ones == nil {
		if err := t.pages.Write(onePtr, p); err != nil {
			return err
		}
	}
	// Update the directory: the old region (local depth s.h) splits into
	// two half-regions of local depth newh.
	base := q >> uint(t.globalH-s.h) << uint(t.globalH-s.h)
	half := 1 << uint(t.globalH-newh)
	for i := 0; i < half; i++ {
		t.dir[base+i] = slot{ptr: zeroPtr, h: newh}
		t.dir[base+half+i] = slot{ptr: onePtr, h: newh}
	}
	return nil
}

// double doubles the directory (prefix semantics: element i of the new
// directory inherits element i>>1 of the old).
func (t *Table) double() {
	nd := make([]slot, len(t.dir)*2)
	for i := range nd {
		nd[i] = t.dir[i>>1]
	}
	t.dir = nd
	t.globalH++
}

// setRegion points every element of the region containing q at local depth
// h to ptr.
func (t *Table) setRegion(q, h int, ptr pagestore.PageID) {
	base := q >> uint(t.globalH-h) << uint(t.globalH-h)
	n := 1 << uint(t.globalH-h)
	for i := 0; i < n; i++ {
		t.dir[base+i] = slot{ptr: ptr, h: h}
	}
}

// Delete removes key k, returning whether it was present. Empty pages are
// freed immediately and their region becomes nil (the design point of
// storing local depths in the directory); buddy regions whose pages fit
// together are merged and the directory is halved when no region needs its
// full depth.
func (t *Table) Delete(k bitkey.Component) (bool, error) {
	if err := t.checkKey(k); err != nil {
		return false, err
	}
	q := t.addr(k)
	s := t.dir[q]
	if s.ptr == pagestore.NilPage {
		return false, nil
	}
	p, err := t.pages.Read(s.ptr)
	if err != nil {
		return false, err
	}
	if !p.Delete(bitkey.Vector{k}) {
		return false, nil
	}
	t.n--
	if p.Len() == 0 {
		if err := t.pages.Free(s.ptr); err != nil {
			return false, err
		}
		t.setRegion(q, s.h, pagestore.NilPage)
	} else {
		if err := t.pages.Write(s.ptr, p); err != nil {
			return false, err
		}
		if err := t.tryMerge(t.addr(k), p); err != nil {
			return false, err
		}
	}
	t.shrink()
	return true, nil
}

// tryMerge merges the region of q with its buddy region if their combined
// records fit in one page.
func (t *Table) tryMerge(q int, p *datapage.Page) error {
	s := t.dir[q]
	for s.h > 0 {
		buddy := q ^ (1 << uint(t.globalH-s.h))
		bs := t.dir[buddy]
		if bs.h != s.h {
			return nil // buddy region is split finer; cannot merge
		}
		if bs.ptr == pagestore.NilPage {
			// Merge with an empty region: just coarsen the depth.
			t.setRegion(q, s.h-1, s.ptr)
			s.h--
			continue
		}
		bp, err := t.pages.Read(bs.ptr)
		if err != nil {
			return err
		}
		if p.Len()+bp.Len() > t.capacity {
			return nil
		}
		if err := p.Merge(bp); err != nil {
			return err
		}
		if err := t.pages.Free(bs.ptr); err != nil {
			return err
		}
		if err := t.pages.Write(s.ptr, p); err != nil {
			return err
		}
		t.setRegion(q, s.h-1, s.ptr)
		s.h--
	}
	return nil
}

// shrink halves the directory while no element needs the full depth.
func (t *Table) shrink() {
	for t.globalH > 0 {
		for _, s := range t.dir {
			if s.h == t.globalH {
				return
			}
		}
		nd := make([]slot, len(t.dir)/2)
		for i := range nd {
			nd[i] = t.dir[2*i]
		}
		t.dir = nd
		t.globalH--
	}
}

// Range calls fn for every record with lo ≤ key ≤ hi, in key order.
// It visits each page of the covering regions once.
func (t *Table) Range(lo, hi bitkey.Component, fn func(k bitkey.Component, v uint64) bool) error {
	if err := t.checkKey(lo); err != nil {
		return err
	}
	if err := t.checkKey(hi); err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	qlo, qhi := t.addr(lo), t.addr(hi)
	var last pagestore.PageID
	for q := qlo; q <= qhi; q++ {
		s := t.dir[q]
		if s.ptr == pagestore.NilPage || s.ptr == last {
			continue
		}
		last = s.ptr
		p, err := t.pages.Read(s.ptr)
		if err != nil {
			return err
		}
		for i := 0; i < p.Len(); i++ {
			if k := p.Key(i)[0]; k >= lo && k <= hi {
				if !fn(k, p.Value(i)) {
					return nil
				}
			}
		}
	}
	return nil
}

// Validate checks directory invariants: regions aligned and uniform, local
// depths within the global depth. For tests and the inspector.
func (t *Table) Validate() error {
	if len(t.dir) != 1<<uint(t.globalH) {
		return fmt.Errorf("exthash: directory size %d != 2^%d", len(t.dir), t.globalH)
	}
	for q := 0; q < len(t.dir); {
		s := t.dir[q]
		if s.h < 0 || s.h > t.globalH {
			return fmt.Errorf("exthash: element %d local depth %d out of range", q, s.h)
		}
		n := 1 << uint(t.globalH-s.h)
		if q%n != 0 {
			return fmt.Errorf("exthash: element %d region misaligned for depth %d", q, s.h)
		}
		for i := 0; i < n; i++ {
			if t.dir[q+i] != s {
				return fmt.Errorf("exthash: region at %d not uniform", q)
			}
		}
		q += n
	}
	return nil
}
