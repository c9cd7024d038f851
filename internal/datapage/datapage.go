// Package datapage defines the byte layout and in-memory manipulation of
// level-0 data pages. A data page stores up to b records; a record is a
// d-dimensional pseudo-key (w-bit components) plus a 64-bit payload (a row
// id or value). Records inside a page are kept sorted by key, which makes
// page images deterministic and duplicate detection a binary search.
//
// Layout (big endian):
//
//	offset 0: count  uint16
//	then count records of (d × 8 bytes key components, 8 bytes value)
package datapage

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bmeh/internal/bitkey"
	"bmeh/internal/latch"
)

// recordSize returns the encoded size of one record for dimensionality d.
func recordSize(d int) int { return d*8 + 8 }

// Size returns the page bytes needed for capacity records of dimensionality d.
func Size(d, capacity int) int { return 2 + capacity*recordSize(d) }

// Page is the decoded form of a data page. Its records live in one flat,
// pointer-free array laid out like the page image: record i occupies words
// [i·(d+1), (i+1)·(d+1)), its d key components followed by its value. A
// decode is therefore one allocation for the array, and the garbage
// collector never scans a cached page's contents.
type Page struct {
	// Latch protects the page's identity on the concurrent write path; it
	// is attached by the cache layer and carried by Clone so every
	// in-memory generation of the same PageID shares one latch instance.
	// Ignored by Encode/Decode.
	Latch *latch.Latch
	d     int
	n     int // records held: len(recs) / (d+1), kept to spare a division
	recs  []bitkey.Component
}

// New returns an empty decoded page for dimensionality d.
func New(d int) *Page { return &Page{d: d} }

// Decode parses a page image. The record array is freshly allocated.
func Decode(buf []byte, d int) (*Page, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("datapage: short page (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[0:2]))
	if 2+n*recordSize(d) > len(buf) {
		return nil, fmt.Errorf("datapage: count %d overflows %d-byte page", n, len(buf))
	}
	p := &Page{d: d, n: n, recs: make([]bitkey.Component, n*(d+1))}
	for i := range p.recs {
		p.recs[i] = bitkey.Component(binary.BigEndian.Uint64(buf[2+8*i:]))
	}
	return p, nil
}

// Encode writes the page image into buf, which must be at least
// Size(d, Len()) bytes. It returns the number of bytes written.
func (p *Page) Encode(buf []byte) (int, error) {
	need := Size(p.d, p.Len())
	if len(buf) < need {
		return 0, fmt.Errorf("datapage: buffer %d bytes < needed %d", len(buf), need)
	}
	binary.BigEndian.PutUint16(buf[0:2], uint16(p.Len()))
	for i, w := range p.recs {
		binary.BigEndian.PutUint64(buf[2+8*i:], uint64(w))
	}
	return need, nil
}

// Clone returns a copy of p with its own record array.
func (p *Page) Clone() *Page {
	return &Page{Latch: p.Latch, d: p.d, n: p.n, recs: append([]bitkey.Component(nil), p.recs...)}
}

// Len returns the number of records in the page.
func (p *Page) Len() int { return p.n }

// Key returns the key of record i as a view into the page: valid, and
// unchanged, only until the page is next mutated, and never to be
// mutated by the caller. Its capacity is capped, so appending to it
// cannot overwrite the page.
func (p *Page) Key(i int) bitkey.Vector {
	o := i * (p.d + 1)
	return p.recs[o : o+p.d : o+p.d]
}

// Value returns the value of record i.
func (p *Page) Value(i int) uint64 { return uint64(p.recs[i*(p.d+1)+p.d]) }

// Find returns the index of key and whether it is present. The search is
// a hand-rolled three-way binary search that compares keys in place: it
// sits on the per-insert and per-get hot path, where sort.Search's
// closure calls and its extra equality probe at the end are measurable.
// Keys in one page nearly always differ in their first component, so each
// probe decides on that alone and compares the rest only on a tie.
func (p *Page) Find(key bitkey.Vector) (int, bool) {
	s := p.d + 1
	key = key[:p.d]
	k0 := key[0]
	lo, hi := 0, p.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec := p.recs[mid*s : mid*s+len(key)]
		if rc := rec[0]; rc != k0 {
			if rc < k0 {
				lo = mid + 1
			} else {
				hi = mid
			}
			continue
		}
		switch bitkey.Vector(rec[1:]).Compare(key[1:]) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// Get returns the value stored under key.
func (p *Page) Get(key bitkey.Vector) (uint64, bool) {
	if i, ok := p.Find(key); ok {
		return p.Value(i), true
	}
	return 0, false
}

// Insert adds the record (k, v) in sorted position, copying k. It returns
// false if the key is already present (no change). Capacity is not
// enforced here; callers check Len() against b and split first.
func (p *Page) Insert(k bitkey.Vector, v uint64) bool {
	i, ok := p.Find(k)
	if ok {
		return false
	}
	p.InsertAt(i, k, v)
	return true
}

// InsertAt inserts the record (k, v) at position i, copying k. The caller
// obtained i from a Find that reported the key absent; InsertAt skips
// Insert's own search for callers that already probed the page, and the
// records stay sorted only if i is that insertion point.
func (p *Page) InsertAt(i int, k bitkey.Vector, v uint64) {
	s := p.d + 1
	n := len(p.recs)
	p.recs = slices.Grow(p.recs, s)[:n+s]
	o := i * s
	copy(p.recs[o+s:], p.recs[o:n])
	copy(p.recs[o:o+p.d], k[:p.d])
	p.recs[o+p.d] = bitkey.Component(v)
	p.n++
}

// Set overwrites the value of an existing key, or inserts it. It reports
// whether the key was newly inserted.
func (p *Page) Set(k bitkey.Vector, v uint64) bool {
	if i, ok := p.Find(k); ok {
		p.recs[i*(p.d+1)+p.d] = bitkey.Component(v)
		return false
	}
	return p.Insert(k, v)
}

// Delete removes key and reports whether it was present.
func (p *Page) Delete(key bitkey.Vector) bool {
	i, ok := p.Find(key)
	if !ok {
		return false
	}
	s := p.d + 1
	p.recs = append(p.recs[:i*s], p.recs[(i+1)*s:]...)
	p.n--
	return true
}

// PartitionByBit splits the page's records by bit number bitPos (1-based
// from the most significant of width) of key component dim (0-based):
// records with the bit 0 stay in p, records with the bit 1 move to the
// returned page. This is the page-splitting step of every scheme: bitPos is
// the new local depth of dimension dim, counted in the page's own (possibly
// shifted) coordinate frame.
func (p *Page) PartitionByBit(dim, bitPos, width int) *Page {
	s := p.d + 1
	ones := &Page{d: p.d}
	zeros := p.recs[:0]
	for o := 0; o < len(p.recs); o += s {
		rec := p.recs[o : o+s]
		if bitkey.Bit(rec[dim], bitPos, width) == 1 {
			ones.recs = append(ones.recs, rec...)
			ones.n++
		} else {
			zeros = append(zeros, rec...)
		}
	}
	p.recs = zeros
	p.n -= ones.n
	return ones
}

// Merge moves all records of q into p (used by deletion's page merging).
// Records are assumed disjoint; duplicates are rejected with an error.
func (p *Page) Merge(q *Page) error {
	for i := 0; i < q.Len(); i++ {
		if !p.Insert(q.Key(i), q.Value(i)) {
			return fmt.Errorf("datapage: merge found duplicate key %v", q.Key(i))
		}
	}
	q.recs, q.n = nil, 0
	return nil
}

// SortCheck verifies the sorted-and-unique invariant; used by tests and the
// integrity checker.
func (p *Page) SortCheck() error {
	for i := 1; i < p.Len(); i++ {
		if !p.Key(i - 1).Less(p.Key(i)) {
			return fmt.Errorf("datapage: records %d,%d out of order", i-1, i)
		}
	}
	return nil
}
