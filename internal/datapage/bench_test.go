package datapage

import (
	"encoding/binary"
	"testing"

	"bmeh/internal/bitkey"
)

// benchImage builds a 22-record page image for d = 2 (a page at the
// cold-scan load factor), sorted by key.
func benchImage() []byte {
	const n, d = 22, 2
	buf := make([]byte, Size(d, n))
	binary.BigEndian.PutUint16(buf, n)
	for i := 0; i < n; i++ {
		off := 2 + i*recordSize(d)
		binary.BigEndian.PutUint64(buf[off:], uint64(i)*7919)
		binary.BigEndian.PutUint64(buf[off+8:], uint64(i))
		binary.BigEndian.PutUint64(buf[off+16:], uint64(i)*3)
	}
	return buf
}

// Sinks keep benchmark results alive so the compiler cannot drop the call.
var (
	sink      *Page
	sinkIndex int
)

// BenchmarkDecode measures the cache-miss cost of a data page.
func BenchmarkDecode(b *testing.B) {
	buf := benchImage()
	b.ReportAllocs()
	var err error
	for i := 0; i < b.N; i++ {
		if sink, err = Decode(buf, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone measures the copy a mutating caller takes of a shared
// page.
func BenchmarkClone(b *testing.B) {
	p, err := Decode(benchImage(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = p.Clone()
	}
}

// BenchmarkFind measures a key search inside a decoded page.
func BenchmarkFind(b *testing.B) {
	p, err := Decode(benchImage(), 2)
	if err != nil {
		b.Fatal(err)
	}
	var keys []bitkey.Vector // every stored key, each followed by an absent one
	for i := uint64(0); i < 22; i++ {
		keys = append(keys, key(2, i*7919, i), key(2, i*7919+1, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex, _ = p.Find(keys[i%len(keys)])
	}
}
