package datapage

import (
	"bytes"
	"testing"

	"bmeh/internal/bitkey"
)

// FuzzDecode hardens the data-page codec against arbitrary page images:
// Decode must either return an error or a structurally sound page — never
// panic — and every decoded page must re-encode to exactly the bytes it
// was decoded from, so the in-memory layout cannot drift from the format.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of a few shapes.
	for _, d := range []int{1, 2, 3} {
		p := New(d)
		for i := 0; i < 5; i++ {
			k := make(bitkey.Vector, d)
			k[0] = bitkey.Component(i * 1000)
			p.Insert(k, uint64(i))
		}
		buf := make([]byte, Size(d, 8))
		if _, err := p.Encode(buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf, d)
	}
	f.Add([]byte{0xff, 0xff, 1, 2, 3}, 2)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, dRaw int) {
		d := dRaw%8 + 1
		if d < 1 {
			d = 1
		}
		p, err := Decode(data, d)
		if err != nil {
			return
		}
		// A successfully decoded page must re-encode.
		buf := make([]byte, Size(d, p.Len()))
		if _, err := p.Encode(buf); err != nil {
			t.Fatalf("decoded page does not re-encode: %v", err)
		}
		if !bytes.Equal(buf, data[:len(buf)]) {
			t.Fatalf("re-encoded image differs from its source:\n got %x\nwant %x", buf, data[:len(buf)])
		}
		q, err := Decode(buf, d)
		if err != nil || q.Len() != p.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
