package dirnode

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecode hardens the node codec against arbitrary page images: Decode
// must either return an error or a node whose shape is self-consistent —
// never panic — and that re-encodes to exactly the bytes it was decoded
// from, so the in-memory layout cannot drift from the on-disk format.
func FuzzDecode(f *testing.F) {
	for _, d := range []int{1, 2, 3} {
		n := randomNode(rand.New(rand.NewSource(int64(d))), d)
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		if _, err := n.Encode(buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf, d)
	}
	f.Add([]byte{3, 40, 40}, 2)
	f.Add([]byte{}, 2)
	f.Fuzz(func(t *testing.T, data []byte, dRaw int) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		n, err := Decode(data, d)
		if err != nil {
			return
		}
		if n.Size() != 1<<uint(n.SumDepths()) {
			t.Fatalf("decoded node size %d inconsistent with depths %v", n.Size(), n.Depths)
		}
		buf := make([]byte, HeaderSize(d)+n.Size()*EntrySize(d))
		w, err := n.Encode(buf)
		if err != nil {
			t.Fatalf("decoded node does not re-encode: %v", err)
		}
		if !bytes.Equal(buf[:w], data[:w]) {
			t.Fatalf("re-encoded image differs from its source:\n got %x\nwant %x", buf[:w], data[:w])
		}
		// Index/Tuple must round-trip on any decoded shape.
		for q := 0; q < n.Size(); q++ {
			if got := n.Index(n.Tuple(q)); got != q {
				t.Fatalf("Index(Tuple(%d)) = %d", q, got)
			}
		}
	})
}
