package datapage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bmeh/internal/bitkey"
	"bmeh/internal/pagestore"
)

func key(d int, vals ...uint64) bitkey.Vector {
	k := make(bitkey.Vector, d)
	for j := 0; j < d && j < len(vals); j++ {
		k[j] = bitkey.Component(vals[j])
	}
	return k
}

func TestInsertKeepsSortedUnique(t *testing.T) {
	p := New(2)
	keys := [][]uint64{{5, 1}, {1, 9}, {3, 3}, {1, 2}, {5, 0}, {2, 2}}
	for i, kv := range keys {
		if !p.Insert(key(2, kv...), uint64(i)) {
			t.Fatalf("insert %d rejected", i)
		}
	}
	if p.Insert(key(2, 3, 3), 99) {
		t.Fatal("duplicate key accepted")
	}
	if err := p.SortCheck(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != len(keys) {
		t.Fatalf("Len = %d", p.Len())
	}
	v, ok := p.Get(key(2, 1, 2))
	if !ok || v != 3 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if _, ok := p.Get(key(2, 9, 9)); ok {
		t.Fatal("found absent key")
	}
}

func TestSetOverwrites(t *testing.T) {
	p := New(1)
	if !p.Set(key(1, 4), 10) {
		t.Fatal("Set of new key should report insertion")
	}
	if p.Set(key(1, 4), 20) {
		t.Fatal("Set of existing key should not report insertion")
	}
	if v, _ := p.Get(key(1, 4)); v != 20 {
		t.Fatalf("value = %d, want 20", v)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestDelete(t *testing.T) {
	p := New(1)
	for i := uint64(0); i < 10; i++ {
		p.Insert(key(1, i), i)
	}
	if !p.Delete(key(1, 4)) || p.Delete(key(1, 4)) {
		t.Fatal("delete semantics broken")
	}
	if p.Len() != 9 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.SortCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		d := int(dRaw%4) + 1
		n := int(nRaw % 50)
		rng := rand.New(rand.NewSource(seed))
		p := New(d)
		for p.Len() < n {
			k := make(bitkey.Vector, d)
			for j := range k {
				k[j] = bitkey.Component(rng.Uint64())
			}
			p.Insert(k, rng.Uint64())
		}
		buf := make([]byte, Size(d, n)+7)
		w, err := p.Encode(buf)
		if err != nil {
			return false
		}
		if w != Size(d, p.Len()) {
			return false
		}
		q, err := Decode(buf, d)
		if err != nil {
			return false
		}
		if q.Len() != p.Len() {
			return false
		}
		for i := 0; i < p.Len(); i++ {
			if !p.Key(i).Equal(q.Key(i)) || p.Value(i) != q.Value(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruptCount(t *testing.T) {
	buf := make([]byte, 10)
	buf[0], buf[1] = 0xff, 0xff // count 65535 overflows a 10-byte page
	if _, err := Decode(buf, 2); err == nil {
		t.Fatal("Decode accepted corrupt count")
	}
	if _, err := Decode([]byte{1}, 2); err == nil {
		t.Fatal("Decode accepted 1-byte page")
	}
}

func TestEncodeBufferTooSmall(t *testing.T) {
	p := New(2)
	p.Insert(key(2, 1, 2), 3)
	if _, err := p.Encode(make([]byte, 5)); err == nil {
		t.Fatal("Encode accepted short buffer")
	}
}

func TestPartitionByBit(t *testing.T) {
	p := New(1)
	// Width 4: keys 0000, 0100, 1000, 1100 — bit 2 partitions {0,8} / {4,12}.
	for _, v := range []uint64{0, 4, 8, 12} {
		p.Insert(key(1, v), v)
	}
	ones := p.PartitionByBit(0, 2, 4)
	if p.Len() != 2 || ones.Len() != 2 {
		t.Fatalf("partition sizes %d/%d, want 2/2", p.Len(), ones.Len())
	}
	for i := 0; i < p.Len(); i++ {
		if bitkey.Bit(p.Key(i)[0], 2, 4) != 0 {
			t.Fatalf("zeros page contains %v", p.Key(i))
		}
	}
	for i := 0; i < ones.Len(); i++ {
		if bitkey.Bit(ones.Key(i)[0], 2, 4) != 1 {
			t.Fatalf("ones page contains %v", ones.Key(i))
		}
	}
	if err := p.SortCheck(); err != nil {
		t.Fatal(err)
	}
	if err := ones.SortCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionPreservesAll(t *testing.T) {
	f := func(seed int64, dim uint8, bit uint8) bool {
		d := int(dim%3) + 1
		m := int(dim) % d
		bitPos := int(bit%32) + 1
		rng := rand.New(rand.NewSource(seed))
		p := New(d)
		for i := 0; i < 20; i++ {
			k := make(bitkey.Vector, d)
			for j := range k {
				k[j] = bitkey.Component(rng.Uint64() & 0xffffffff)
			}
			p.Insert(k, uint64(i))
		}
		before := p.Len()
		ones := p.PartitionByBit(m, bitPos, 32)
		return p.Len()+ones.Len() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(1), New(1)
	for _, v := range []uint64{1, 3, 5} {
		a.Insert(key(1, v), v)
	}
	for _, v := range []uint64{2, 4} {
		b.Insert(key(1, v), v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5 || b.Len() != 0 {
		t.Fatalf("merge sizes %d/%d", a.Len(), b.Len())
	}
	if err := a.SortCheck(); err != nil {
		t.Fatal(err)
	}
	dup := New(1)
	dup.Insert(key(1, 3), 9)
	if err := a.Merge(dup); err == nil {
		t.Fatal("merge accepted duplicate")
	}
}

func TestIORoundTrip(t *testing.T) {
	st := pagestore.NewMemDisk(Size(2, 16))
	io := NewIO(st, 2)
	id, err := io.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p := New(2)
	for i := uint64(0); i < 10; i++ {
		p.Insert(key(2, i, i*i), i)
	}
	if err := io.Write(id, p); err != nil {
		t.Fatal(err)
	}
	q, err := io.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 10 {
		t.Fatalf("read back %d records", q.Len())
	}
	for i := 0; i < p.Len(); i++ {
		if !q.Key(i).Equal(p.Key(i)) || q.Value(i) != p.Value(i) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := io.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Read(id); err == nil {
		t.Fatal("read of freed page succeeded")
	}
}

func TestSizeAccounting(t *testing.T) {
	// A page sized for b records must hold exactly b encoded records.
	for _, d := range []int{1, 2, 3, 8} {
		for _, b := range []int{1, 8, 64} {
			p := New(d)
			for i := 0; i < b; i++ {
				k := make(bitkey.Vector, d)
				k[0] = bitkey.Component(i)
				p.Insert(k, uint64(i))
			}
			buf := make([]byte, Size(d, b))
			if _, err := p.Encode(buf); err != nil {
				t.Errorf("d=%d b=%d: %v", d, b, err)
			}
		}
	}
}

// TestInsertCopiesKey pins the ownership rule: the page keeps its own copy
// of an inserted key, so the caller may reuse its slice.
func TestInsertCopiesKey(t *testing.T) {
	p := New(2)
	k := key(2, 7, 8)
	p.Insert(k, 1)
	k[0], k[1] = 0, 0
	if v, ok := p.Get(key(2, 7, 8)); !ok || v != 1 {
		t.Fatalf("Get after mutating the inserted slice = %d, %v", v, ok)
	}
	if kv := p.Key(0); cap(kv) != 2 {
		t.Fatalf("Key view capacity %d, want 2 (capped)", cap(kv))
	}
}

func fullPage(d, n int) *Page {
	p := New(d)
	for i := 0; i < n; i++ {
		p.Insert(key(d, uint64(i*7919), uint64(i)), uint64(i))
	}
	return p
}

func TestDecodeAllocs(t *testing.T) {
	p := fullPage(2, 22)
	buf := make([]byte, Size(2, 22))
	if _, err := p.Encode(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Decode of a 22-record page: %.1f allocations, want ≤ 2", allocs)
	}
}

func TestCloneAllocs(t *testing.T) {
	p := fullPage(2, 22)
	allocs := testing.AllocsPerRun(100, func() { _ = p.Clone() })
	if allocs > 3 {
		t.Fatalf("Clone of a 22-record page: %.1f allocations, want ≤ 3", allocs)
	}
	c := p.Clone()
	c.Delete(p.Key(0))
	c.Insert(key(2, 1<<40, 0), 9)
	if p.Len() != 22 || p.Key(0)[0] != 0 {
		t.Fatal("mutating a clone changed the original")
	}
}
