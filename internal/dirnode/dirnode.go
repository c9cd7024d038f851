// Package dirnode defines directory nodes: the building block of the
// BMEH-tree and MEH-tree directories, and (entry codec only) of the flat
// MDEH directory's pages.
//
// A node is a small multidimensional extendible-hash directory (paper
// §3.1): it has per-dimension global depths H_j bounded by ξ_j, and
// 2^{ΣH_j} directory elements. Each element carries a pointer P (to a data
// page or to a lower-level node), d local depths h_j ≤ H_j, and the
// dimension m along which the element's region was last split.
//
// In memory the element array is dense row-major over the current depths.
// A node always occupies exactly one disk page regardless of how many of
// its element slots are in use, which is why the paper reports tree
// directory sizes in multiples of the node capacity M = 2^φ.
//
// On-disk layout (big endian):
//
//	offset 0:            level  uint8 (1 = leaf directory, counts up to root)
//	offset 1..d:         H_j    uint8 each
//	then 2^{ΣH_j} entries of:
//	    ptr   uint32   (bit 31 set ⇒ pointer is a directory node)
//	    h_j   uint8 × d
//	    m     uint8    (0-based last-split dimension)
package dirnode

import (
	"fmt"

	"bmeh/internal/latch"
	"bmeh/internal/pagestore"
)

// nodeFlag marks a pointer as referring to a directory node rather than a
// data page. PageIDs therefore must stay below 2^31.
const nodeFlag uint32 = 1 << 31

// MaxDims bounds the dimensionality a node supports; it equals
// extarray.MaxDims (the package's tests assert it). Fixing it lets an
// entry carry its local depths inline, so a decoded node holds no
// per-element pointers.
const MaxDims = 8

// Entry is one directory element. It is a plain value: copying an Entry
// copies everything, and a slice of entries holds no pointers for the
// garbage collector to scan.
type Entry struct {
	// Ptr is the page the element points to; NilPage for an empty region.
	Ptr pagestore.PageID
	// IsNode reports whether Ptr refers to a directory node (true) or a
	// data page (false). Meaningless when Ptr is nil.
	IsNode bool
	// H holds the element's local depths h_j, one per dimension; slots at
	// and beyond the node's dimensionality stay zero, so two entries'
	// depths compare with ==.
	H [MaxDims]uint8
	// M is the 0-based dimension along which the element's region was last
	// split; the next split uses the cyclically following dimension.
	M uint8
}

// Clone copies the node: mutating the copy (its depths or entries) never
// affects the original. Used by mutating descents to take a private copy
// of a shared cached node.
func (n *Node) Clone() *Node {
	c := *n // the latch follows the page identity, not the copy
	c.Entries = append([]Entry(nil), n.Entries...)
	return &c
}

// EntrySize returns the encoded size of one element for dimensionality d.
func EntrySize(d int) int { return 4 + d + 1 }

// HeaderSize returns the encoded size of a node header for dimensionality d.
func HeaderSize(d int) int { return 1 + d }

// PageBytes returns the page bytes needed by a node with capacity
// 2^phi elements of dimensionality d.
func PageBytes(d, phi int) int {
	return HeaderSize(d) + (1<<uint(phi))*EntrySize(d)
}

// Node is the decoded form of a directory node.
type Node struct {
	// Level is the node's height: 1 for leaf directory nodes (whose data
	// pointers refer to data pages), increasing toward the root.
	Level int
	// Depths holds the node's global depths H_j; slots at and beyond Dims()
	// stay zero.
	Depths [MaxDims]uint8
	// Entries is the dense row-major element array, len = 2^{ΣDepths}.
	Entries []Entry
	// Latch is the latch protecting this node's page identity, attached by
	// the cache layer when the node enters the decoded cache and carried by
	// Clone: every in-memory generation of the same PageID shares one latch
	// instance, so two writers in different subtrees clone and commit
	// independently while writers to the same node serialize. Ignored by
	// Encode/Decode (a latch is a runtime object, not page state).
	Latch *latch.Latch
	d     int
}

// New returns a single-element node (all depths zero) of the given level.
func New(d, level int) *Node {
	if d < 1 || d > MaxDims {
		panic(fmt.Sprintf("dirnode: dimensionality %d out of range 1..%d", d, MaxDims))
	}
	return &Node{Level: level, Entries: []Entry{{M: uint8(d - 1)}}, d: d}
}

// Dims returns the dimensionality.
func (n *Node) Dims() int { return n.d }

// Size returns the number of element slots, 2^{ΣH_j}.
func (n *Node) Size() int { return len(n.Entries) }

// SumDepths returns ΣH_j.
func (n *Node) SumDepths() int {
	s := 0
	for _, h := range n.Depths[:n.d] {
		s += int(h)
	}
	return s
}

// Index converts a tuple index (one value per dimension, each < 2^{H_j})
// into the row-major element position.
func (n *Node) Index(idx []uint64) int {
	q := uint64(0)
	for j := 0; j < n.d; j++ {
		if idx[j] >= uint64(1)<<uint(n.Depths[j]) {
			panic(fmt.Sprintf("dirnode: index %d ≥ 2^%d in dimension %d", idx[j], n.Depths[j], j))
		}
		q = q<<uint(n.Depths[j]) | idx[j]
	}
	return int(q)
}

// Tuple is the inverse of Index.
func (n *Node) Tuple(q int) []uint64 {
	idx := make([]uint64, n.d)
	u := uint64(q)
	for j := n.d - 1; j >= 0; j-- {
		mask := uint64(1)<<uint(n.Depths[j]) - 1
		idx[j] = u & mask
		u >>= uint(n.Depths[j])
	}
	return idx
}

// At returns a pointer to the element with the given tuple index.
func (n *Node) At(idx []uint64) *Entry { return &n.Entries[n.Index(idx)] }

// Double doubles the node along dimension m (0-based) using prefix
// semantics: each old element's region splits in two and both halves
// inherit its content (pointer, local depths, m). The element array is
// rewritten; the node still fits its page by construction (callers enforce
// H_m < ξ_m before doubling).
func (n *Node) Double(m int) {
	// Row-major positions split into the bits of the dimensions before m
	// (hi), of m itself, and of those after it (lo). Doubling appends one
	// bit to m's field; the source element drops it again.
	low := 0
	for j := m + 1; j < n.d; j++ {
		low += int(n.Depths[j])
	}
	old := n.Entries
	hm := int(n.Depths[m])
	n.Depths[m]++
	n.Entries = make([]Entry, len(old)*2)
	loMask := 1<<low - 1
	for q := range n.Entries {
		mid := q >> low & (1<<(hm+1) - 1)
		hi := q >> (low + hm + 1)
		n.Entries[q] = old[hi<<(low+hm)|mid>>1<<low|q&loMask]
	}
}

// Halve is the inverse of Double: it halves the node along dimension m
// (H_m ≥ 1), keeping of every element pair that differs only in the last
// bit of its dimension-m index the one with that bit 0. Callers ensure the
// pairs are equivalent; local depths h_m above the new H_m (possible only
// on nil regions) are clamped to it.
func (n *Node) Halve(m int) {
	low := 0
	for j := m + 1; j < n.d; j++ {
		low += int(n.Depths[j])
	}
	old := n.Entries
	n.Depths[m]--
	hm := int(n.Depths[m])
	n.Entries = make([]Entry, len(old)/2)
	loMask := 1<<low - 1
	for q := range n.Entries {
		mid := q >> low & (1<<hm - 1)
		hi := q >> (low + hm)
		e := old[hi<<(low+hm+1)|mid<<1<<low|q&loMask]
		e.H[m] = min(e.H[m], n.Depths[m])
		n.Entries[q] = e
	}
}

// regionMask returns the mask that keeps, of a row-major element
// position, the top h_j bits of each dimension's H_j-bit field: two
// elements lie in one region at local depths h exactly when their masked
// positions are equal.
func (n *Node) regionMask(h *[MaxDims]uint8) int {
	mask, off := 0, 0
	for j := n.d - 1; j >= 0; j-- {
		H, hj := int(n.Depths[j]), int(h[j])
		mask |= (1<<hj - 1) << (H - hj) << off
		off += H
	}
	return mask
}

// Buddies returns the positions of every element sharing the element at
// position q's pointer region: all tuples that agree with q's tuple on the
// first h_j bits of each dimension's index (equivalently, i_j >> (H_j-h_j)
// matches). The element at q itself is included.
func (n *Node) Buddies(q int) []int {
	mask := n.regionMask(&n.Entries[q].H)
	var out []int
	for p := range n.Entries {
		if p&mask == q&mask {
			out = append(out, p)
		}
	}
	return out
}

// SetRegion stores e in every element of the region that contains element
// q at e's local depths, e.g. to coarsen two buddy regions into one.
func (n *Node) SetRegion(q int, e Entry) {
	mask := n.regionMask(&e.H)
	for p := range n.Entries {
		if p&mask == q&mask {
			n.Entries[p] = e
		}
	}
}

// Encode writes the node image into buf and returns the bytes written.
func (n *Node) Encode(buf []byte) (int, error) {
	need := HeaderSize(n.d) + len(n.Entries)*EntrySize(n.d)
	if len(buf) < need {
		return 0, fmt.Errorf("dirnode: buffer %d bytes < needed %d", len(buf), need)
	}
	if n.Level < 0 || n.Level > 255 {
		return 0, fmt.Errorf("dirnode: level %d out of range", n.Level)
	}
	buf[0] = byte(n.Level)
	for j := 0; j < n.d; j++ {
		if n.Depths[j] > 63 {
			return 0, fmt.Errorf("dirnode: depth H_%d = %d out of range", j+1, n.Depths[j])
		}
		buf[1+j] = n.Depths[j]
	}
	off := HeaderSize(n.d)
	for i := range n.Entries {
		e := &n.Entries[i]
		for j := 0; j < n.d; j++ {
			if e.H[j] > n.Depths[j] {
				return 0, fmt.Errorf("dirnode: entry %d local depth h_%d = %d out of range 0..%d", i, j+1, e.H[j], n.Depths[j])
			}
		}
		if err := EncodeEntry(buf[off:], e, n.d); err != nil {
			return 0, fmt.Errorf("dirnode: entry %d: %w", i, err)
		}
		off += EntrySize(n.d)
	}
	return off, nil
}

// Decode parses a node image for dimensionality d. It allocates the node
// and one entry array, and rejects every image Encode could not have
// written, so a decoded node re-encodes to the bytes it came from.
func Decode(buf []byte, d int) (*Node, error) {
	if d < 1 || d > MaxDims {
		return nil, fmt.Errorf("dirnode: dimensionality %d out of range 1..%d", d, MaxDims)
	}
	if len(buf) < HeaderSize(d) {
		return nil, fmt.Errorf("dirnode: short page (%d bytes)", len(buf))
	}
	var depths [MaxDims]uint8
	sum := 0
	for j := 0; j < d; j++ {
		depths[j] = buf[1+j]
		sum += int(depths[j])
	}
	if sum > 30 {
		return nil, fmt.Errorf("dirnode: implausible ΣH_j = %d", sum)
	}
	count := 1 << uint(sum)
	es := EntrySize(d)
	off := HeaderSize(d)
	if off+count*es > len(buf) {
		return nil, fmt.Errorf("dirnode: %d entries overflow %d-byte page", count, len(buf))
	}
	n := &Node{Level: int(buf[0]), Depths: depths, d: d, Entries: make([]Entry, count)}
	for i := range n.Entries {
		e := &n.Entries[i]
		decodeEntry(e, buf[off:off+es], d)
		for j := 0; j < d; j++ {
			if e.H[j] > depths[j] {
				return nil, fmt.Errorf("dirnode: entry %d local depth h_%d = %d out of range 0..%d", i, j+1, e.H[j], depths[j])
			}
		}
		if int(e.M) >= d {
			return nil, fmt.Errorf("dirnode: entry %d split dimension %d out of range", i, e.M)
		}
		off += es
	}
	return n, nil
}

// Validate checks node invariants: local depths within global depths, and
// every group of elements sharing a pointer forming a complete aligned
// sub-box of the element grid.
func (n *Node) Validate() error {
	if len(n.Entries) != 1<<uint(n.SumDepths()) {
		return fmt.Errorf("dirnode: %d entries, want 2^%d", len(n.Entries), n.SumDepths())
	}
	for q := range n.Entries {
		e := &n.Entries[q]
		for j := 0; j < n.d; j++ {
			if e.H[j] > n.Depths[j] {
				return fmt.Errorf("dirnode: entry %d local depth h_%d = %d out of range 0..H=%d", q, j+1, e.H[j], n.Depths[j])
			}
		}
		if e.Ptr == pagestore.NilPage {
			continue
		}
		for _, p := range n.Buddies(q) {
			b := &n.Entries[p]
			if b.Ptr != e.Ptr || b.IsNode != e.IsNode {
				return fmt.Errorf("dirnode: entries %d and %d should share pointer %d but differ", q, p, e.Ptr)
			}
			if b.H != e.H {
				return fmt.Errorf("dirnode: buddy entries %d,%d disagree on local depths", q, p)
			}
		}
	}
	return nil
}
