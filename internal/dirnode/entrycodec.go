package dirnode

import (
	"encoding/binary"
	"fmt"

	"bmeh/internal/pagestore"
)

// EncodeEntry writes one directory element into buf (EntrySize(d) bytes).
// It is used both by Node.Encode and by the flat MDEH directory, whose
// pages are packed arrays of elements with no node header.
func EncodeEntry(buf []byte, e *Entry, d int) error {
	if len(buf) < EntrySize(d) {
		return fmt.Errorf("dirnode: entry buffer %d bytes < %d", len(buf), EntrySize(d))
	}
	p := uint32(e.Ptr)
	if p&nodeFlag != 0 {
		return fmt.Errorf("dirnode: page id %d overflows pointer encoding", e.Ptr)
	}
	if e.IsNode {
		p |= nodeFlag
	}
	binary.BigEndian.PutUint32(buf[0:4], p)
	if d < 1 || d > MaxDims {
		return fmt.Errorf("dirnode: dimensionality %d out of range 1..%d", d, MaxDims)
	}
	copy(buf[4:4+d], e.H[:d])
	if int(e.M) >= d {
		return fmt.Errorf("dirnode: split dimension %d out of range", e.M)
	}
	buf[4+d] = e.M
	return nil
}

// DecodeEntry parses one directory element from buf.
func DecodeEntry(buf []byte, d int) (Entry, error) {
	if len(buf) < EntrySize(d) {
		return Entry{}, fmt.Errorf("dirnode: entry buffer %d bytes < %d", len(buf), EntrySize(d))
	}
	if d < 1 || d > MaxDims {
		return Entry{}, fmt.Errorf("dirnode: dimensionality %d out of range 1..%d", d, MaxDims)
	}
	var e Entry
	decodeEntry(&e, buf[:EntrySize(d)], d)
	return e, nil
}

// decodeEntry is DecodeEntry without the checks, decoding in place: buf
// is exactly EntrySize(d) bytes and 1 ≤ d ≤ MaxDims. Node decoding calls
// it once per element.
func decodeEntry(e *Entry, buf []byte, d int) {
	p := binary.BigEndian.Uint32(buf)
	e.Ptr = pagestore.PageID(p &^ nodeFlag)
	e.IsNode = p&nodeFlag != 0
	for j, h := range buf[4 : 4+d] {
		e.H[j] = h
	}
	e.M = buf[4+d]
}
