package dirnode

import (
	"testing"

	"bmeh/internal/pagestore"
)

// benchImage encodes a full 64-element node for d = 2, φ = 6.
func benchImage(b *testing.B) []byte {
	n := New(2, 1)
	for i := 0; i < 6; i++ {
		n.Double(i % 2)
	}
	for q := range n.Entries {
		n.Entries[q].Ptr = pagestore.PageID(q + 1)
	}
	buf := make([]byte, PageBytes(2, 6))
	if _, err := n.Encode(buf); err != nil {
		b.Fatal(err)
	}
	return buf
}

// sink keeps benchmark results alive so the compiler cannot drop the call.
var sink *Node

// BenchmarkDecode measures the cache-miss cost of a directory node.
func BenchmarkDecode(b *testing.B) {
	buf := benchImage(b)
	b.ReportAllocs()
	var err error
	for i := 0; i < b.N; i++ {
		if sink, err = Decode(buf, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone measures the copy a mutating descent takes of a shared
// node.
func BenchmarkClone(b *testing.B) {
	n, err := Decode(benchImage(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = n.Clone()
	}
}
