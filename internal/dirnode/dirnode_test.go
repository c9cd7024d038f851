package dirnode

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bmeh/internal/extarray"
	"bmeh/internal/pagestore"
)

func TestNewNode(t *testing.T) {
	n := New(2, 1)
	if n.Size() != 1 || n.SumDepths() != 0 || n.Level != 1 {
		t.Fatalf("fresh node: size=%d sum=%d level=%d", n.Size(), n.SumDepths(), n.Level)
	}
	if n.Entries[0].M != 1 {
		t.Fatalf("initial split phase M = %d, want d-1 = 1", n.Entries[0].M)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTupleRoundTrip(t *testing.T) {
	n := New(3, 1)
	n.Double(0)
	n.Double(1)
	n.Double(0)
	n.Double(2)
	// Depths (2,1,1): 16 entries.
	if n.Size() != 16 {
		t.Fatalf("size = %d", n.Size())
	}
	for q := 0; q < n.Size(); q++ {
		idx := n.Tuple(q)
		if got := n.Index(idx); got != q {
			t.Fatalf("Index(Tuple(%d)) = %d (tuple %v)", q, got, idx)
		}
	}
}

func TestDoublePrefixSemantics(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Entries[n.Index([]uint64{0, 0})].Ptr = 10
	n.Entries[n.Index([]uint64{1, 0})].Ptr = 20
	n.Double(0)
	// Old i_0 = 0 covers new 0,1; old 1 covers new 2,3.
	for i, want := range map[uint64]pagestore.PageID{0: 10, 1: 10, 2: 20, 3: 20} {
		if got := n.At([]uint64{i, 0}).Ptr; got != want {
			t.Errorf("cell (%d,0) = %d, want %d", i, got, want)
		}
		_ = want
		_ = i
	}
	n.Double(1)
	if n.At([]uint64{3, 0}).Ptr != 20 || n.At([]uint64{3, 1}).Ptr != 20 {
		t.Error("doubling dim 2 should duplicate across the new bit")
	}
}

func TestBuddies(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Double(1)
	n.Double(0) // depths (2,1), 8 entries
	// Region with h = (1, 0): all cells with i_0 in {2,3} (prefix 1), any i_1.
	q := n.Index([]uint64{2, 0})
	e := &n.Entries[q]
	e.Ptr = 42
	e.H = [MaxDims]uint8{1, 0}
	buddies := n.Buddies(q)
	if len(buddies) != 4 {
		t.Fatalf("region size %d, want 4", len(buddies))
	}
	for _, b := range buddies {
		idx := n.Tuple(b)
		if idx[0]>>1 != 1 {
			t.Errorf("buddy %v outside region", idx)
		}
	}
	// Full-depth region: only itself.
	e.H = [MaxDims]uint8{2, 1}
	if got := n.Buddies(q); len(got) != 1 || got[0] != q {
		t.Errorf("full-depth buddies = %v", got)
	}
}

func randomNode(rng *rand.Rand, d int) *Node {
	n := New(d, 1+rng.Intn(3))
	total := 0
	for total < 6 {
		m := rng.Intn(d)
		n.Double(m)
		total++
	}
	// Assign region structure: walk entries, assign aligned regions.
	ptr := pagestore.PageID(100)
	for q := 0; q < n.Size(); q++ {
		if n.Entries[q].Ptr != pagestore.NilPage {
			continue
		}
		// Pick local depths at most the global depths, aligned at q.
		var h [MaxDims]uint8
		idx := n.Tuple(q)
		ok := true
		for j := 0; j < d; j++ {
			h[j] = uint8(rng.Intn(int(n.Depths[j]) + 1))
			shift := uint(n.Depths[j] - h[j])
			if idx[j]>>shift<<shift != idx[j] {
				ok = false
			}
		}
		region := func(h [MaxDims]uint8) []int {
			var cells []int
			for p := 0; p < n.Size(); p++ {
				pi := n.Tuple(p)
				in := true
				for j := 0; j < d; j++ {
					shift := uint(n.Depths[j] - h[j])
					if pi[j]>>shift != idx[j]>>shift {
						in = false
						break
					}
				}
				if in {
					cells = append(cells, p)
				}
			}
			return cells
		}
		cells := region(h)
		for _, p := range cells {
			if !ok || n.Entries[p].Ptr != pagestore.NilPage {
				// Misaligned or overlapping an earlier region: fall back to
				// a singleton region.
				h = n.Depths
				cells = region(h)
				break
			}
		}
		isNode := rng.Intn(2) == 0
		m := rng.Intn(d)
		for _, p := range cells {
			n.Entries[p] = Entry{Ptr: ptr, IsNode: isNode, H: h, M: uint8(m)}
		}
		ptr++
	}
	return n
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		d := int(dRaw%3) + 1
		rng := rand.New(rand.NewSource(seed))
		n := randomNode(rng, d)
		if err := n.Validate(); err != nil {
			return false
		}
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		w, err := n.Encode(buf)
		if err != nil {
			return false
		}
		if w != len(buf) {
			return false
		}
		m, err := Decode(buf, d)
		if err != nil {
			return false
		}
		if m.Level != n.Level || m.Size() != n.Size() {
			return false
		}
		for q := range n.Entries {
			a, b := n.Entries[q], m.Entries[q]
			if a.Ptr != b.Ptr || a.IsNode != b.IsNode || a.M != b.M {
				return false
			}
			for j := 0; j < d; j++ {
				if a.H[j] != b.H[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsBadEntries(t *testing.T) {
	n := New(2, 1)
	n.Entries[0].H = [MaxDims]uint8{1, 0} // local depth above global depth 0
	buf := make([]byte, 256)
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted h > H")
	}
	n = New(2, 1)
	n.Entries[0].M = 5
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted out-of-range M")
	}
	n = New(2, 1)
	n.Entries[0].Ptr = pagestore.PageID(1 << 31)
	if _, err := n.Encode(buf); err == nil {
		t.Fatal("Encode accepted overflowing page id")
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	buf := make([]byte, 64)
	buf[1], buf[2] = 40, 40 // ΣH = 80: implausible
	if _, err := Decode(buf, 2); err == nil {
		t.Fatal("Decode accepted implausible depths")
	}
	if _, err := Decode([]byte{1}, 2); err == nil {
		t.Fatal("Decode accepted short page")
	}
}

func TestValidateCatchesBrokenRegions(t *testing.T) {
	n := New(2, 1)
	n.Double(0)
	n.Entries[0] = Entry{Ptr: 5, M: 0}
	n.Entries[1] = Entry{Ptr: 6, M: 0} // same region, different ptr
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted inconsistent region")
	}
}

func TestIORoundTrip(t *testing.T) {
	st := pagestore.NewMemDisk(PageBytes(2, 6))
	io := NewIO(st, 2)
	id, err := io.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	n := randomNode(rand.New(rand.NewSource(4)), 2)
	if err := io.Write(id, n); err != nil {
		t.Fatal(err)
	}
	m, err := io.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != n.Size() || m.Level != n.Level {
		t.Fatalf("round trip mismatch: %d/%d entries", m.Size(), n.Size())
	}
}

func TestEntryCodecStandalone(t *testing.T) {
	e := Entry{Ptr: 12345, IsNode: true, H: [MaxDims]uint8{3, 0, 7}, M: 2}
	buf := make([]byte, EntrySize(3))
	if err := EncodeEntry(buf, &e, 3); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ptr != e.Ptr || !got.IsNode || got.M != 2 || got.H[2] != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPageBytes(t *testing.T) {
	// φ = 6, d = 2: 3-byte header + 64 × 7-byte entries.
	if got := PageBytes(2, 6); got != 3+64*7 {
		t.Fatalf("PageBytes(2,6) = %d", got)
	}
}

func TestMaxDimsMatchesExtarray(t *testing.T) {
	if MaxDims != extarray.MaxDims {
		t.Fatalf("dirnode.MaxDims = %d, extarray.MaxDims = %d", MaxDims, extarray.MaxDims)
	}
}

// TestDoubleMatchesTuples checks Double's bit arithmetic against the
// definition: new cell idx copies old cell idx with idx_m halved.
func TestDoubleMatchesTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(4)
		n := randomNode(rng, d)
		old := n.Clone()
		m := rng.Intn(d)
		n.Double(m)
		for q := range n.Entries {
			src := n.Tuple(q)
			src[m] >>= 1
			if n.Entries[q] != old.Entries[old.Index(src)] {
				t.Fatalf("d=%d m=%d: cell %v differs from its source", d, m, n.Tuple(q))
			}
		}
	}
}

// TestBuddiesMatchesTuples checks Buddies against the definition: the
// cells whose tuple agrees with q's on the top h_j bits of every index.
func TestBuddiesMatchesTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(4)
		n := randomNode(rng, d)
		for q := range n.Entries {
			e, base := n.Entries[q], n.Tuple(q)
			var want []int
			for p := range n.Entries {
				idx, in := n.Tuple(p), true
				for j := 0; j < d; j++ {
					shift := n.Depths[j] - e.H[j]
					in = in && idx[j]>>shift == base[j]>>shift
				}
				if in {
					want = append(want, p)
				}
			}
			if got := n.Buddies(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("Buddies(%d) = %v, want %v", q, got, want)
			}
		}
	}
}

// fullNode returns a node with 2^phi elements spread over d dimensions.
func fullNode(d, phi int) *Node {
	n := New(d, 1)
	for i := 0; i < phi; i++ {
		n.Double(i % d)
	}
	for q := range n.Entries {
		n.Entries[q].Ptr = pagestore.PageID(q + 1)
		n.Entries[q].H = n.Depths
	}
	return n
}

func TestDecodeAllocs(t *testing.T) {
	n := fullNode(2, 6)
	buf := make([]byte, PageBytes(2, 6))
	if _, err := n.Encode(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Decode of a 64-entry node: %.1f allocations, want ≤ 2", allocs)
	}
}

func TestCloneAllocs(t *testing.T) {
	n := fullNode(2, 6)
	allocs := testing.AllocsPerRun(100, func() { _ = n.Clone() })
	if allocs > 2 {
		t.Fatalf("Clone of a 64-entry node: %.1f allocations, want ≤ 2", allocs)
	}
	c := n.Clone()
	c.Entries[0].H[0] = 0
	c.Depths[1] = 0
	if n.Entries[0].H[0] == 0 || n.Depths[1] == 0 {
		t.Fatal("mutating a clone changed the original")
	}
}

// TestHalveMatchesTuples checks Halve against the definition (new cell idx
// copies old cell idx with idx_m doubled) and that it undoes Double.
func TestHalveMatchesTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(4)
		n := randomNode(rng, d)
		m := rng.Intn(d)
		if n.Depths[m] == 0 {
			continue
		}
		old := n.Clone()
		n.Halve(m)
		for q := range n.Entries {
			src := n.Tuple(q)
			src[m] <<= 1
			want := old.Entries[old.Index(src)]
			want.H[m] = min(want.H[m], n.Depths[m])
			if n.Entries[q] != want {
				t.Fatalf("d=%d m=%d: cell %v differs from its source", d, m, n.Tuple(q))
			}
		}
		before := n.Clone()
		n.Double(m)
		n.Halve(m)
		if !reflect.DeepEqual(n.Entries, before.Entries) || n.Depths != before.Depths {
			t.Fatalf("d=%d m=%d: Halve does not undo Double", d, m)
		}
	}
}
