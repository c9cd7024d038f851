package pagestore

import (
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzPageSize is the page size of the stores the replication fuzzers
// build: the smallest a FileDisk accepts, so inputs stay short.
const fuzzPageSize = fileHeaderSize + 16

// fuzzFrameSize is the encoded size of one frame in a fuzz input:
// id u32 | kind u8 | page bytes.
const fuzzFrameSize = 5 + fuzzPageSize

func encodeFuzzFrames(frames []Frame) []byte {
	var b []byte
	for _, fr := range frames {
		b = binary.BigEndian.AppendUint32(b, uint32(fr.ID))
		b = append(b, byte(fr.Kind))
		b = append(b, fr.Data...)
	}
	return b
}

// decodeFuzzFrames splits b into whole frames; a trailing partial frame
// is dropped.
func decodeFuzzFrames(b []byte) []Frame {
	var frames []Frame
	for ; len(b) >= fuzzFrameSize; b = b[fuzzFrameSize:] {
		frames = append(frames, Frame{
			ID:   PageID(binary.BigEndian.Uint32(b)),
			Kind: Kind(b[4]),
			Data: b[5:fuzzFrameSize],
		})
	}
	return frames
}

// realSegment runs a small primary on in-memory files and returns the
// first commit batch it publishes after creation: new directory and data
// pages plus the meta page, exactly as WAL shipping sends them.
func realSegment(tb testing.TB) (uint64, []Frame) {
	tb.Helper()
	d, err := CreateFileDiskFiles(NewMemFile(), NewMemFile(), fuzzPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	var seq uint64
	var frames []Frame
	d.SetCommitHook(func(s uint64, fr []Frame) {
		if frames == nil {
			seq, frames = s, fr
		}
	})
	for i, kind := range []Kind{KindDirectory, KindData, KindData} {
		id, err := d.Alloc(kind)
		if err != nil {
			tb.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i + 1), 0xA5}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.WriteMeta([]byte("fuzz")); err != nil {
		tb.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		tb.Fatal(err)
	}
	if frames == nil {
		tb.Fatal("primary published no batch")
	}
	return seq, frames
}

// realWAL writes two committed batches and a torn third through the WAL
// writer and returns the raw log image.
func realWAL(tb testing.TB) []byte {
	tb.Helper()
	_, frames := realSegment(tb)
	mf := NewMemFile()
	w, err := CreateWAL(mf, fuzzPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Commit(frames); err != nil {
		tb.Fatal(err)
	}
	if err := w.Commit(frames[:1]); err != nil {
		tb.Fatal(err)
	}
	img := mf.Bytes()
	return append(img, img[walHeaderSize:walHeaderSize+fuzzFrameSize]...)
}

// FuzzScanWALBytes feeds arbitrary .wal images to the offline WAL parser.
// It must never panic, and whatever it returns must be self-consistent.
func FuzzScanWALBytes(f *testing.F) {
	img := realWAL(f)
	f.Add(img)
	f.Add(img[:walHeaderSize])
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		batches, frames, tail, err := ScanWALBytes(b)
		if err != nil {
			return
		}
		if tail < 0 || tail > len(b) {
			t.Fatalf("tail %d bytes outside a %d-byte image", tail, len(b))
		}
		if batches == 0 && len(frames) != 0 {
			t.Fatalf("%d frames outside any committed batch", len(frames))
		}
	})
}

// FuzzApplyReplicated feeds arbitrary frames — meta frames included — to
// a fresh replica store. Applying must never panic and may only fail with
// an error. A batch that applies must leave files that reopen or fail
// with an error, and every page of the reopened store must read back or
// fail with an error.
func FuzzApplyReplicated(f *testing.F) {
	seq, frames := realSegment(f)
	seg := encodeFuzzFrames(frames)
	f.Add(seq, seg)
	f.Add(seq+1, seg)
	f.Add(seq, seg[:len(seg)-fuzzFrameSize])
	f.Add(seq, encodeFuzzFrames(frames[len(frames)-1:]))
	f.Fuzz(func(t *testing.T, seq uint64, b []byte) {
		main, wal := NewMemFile(), NewMemFile()
		d, err := CreateFileDiskFiles(main, wal, fuzzPageSize)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := d.ApplyReplicated(seq, decodeFuzzFrames(b))
		if err == nil && applied {
			readAllPages(d)
		}
		if err := d.Close(); err != nil {
			return
		}
		re, err := OpenFileDiskFiles(main, wal)
		if err != nil {
			return
		}
		readAllPages(re)
		re.Close()
	})
}

// readAllPages reads every slot of d, ignoring errors: the fuzzers only
// require that reads of hostile state fail cleanly.
func readAllPages(d *FileDisk) {
	buf := make([]byte, d.PageSize())
	for id := PageID(1); uint32(id) < d.pageCount; id++ {
		d.Read(id, buf)
		d.RawPage(id)
	}
	d.ReadMeta(buf)
}

// TestApplyReplicatedBoundsGrowth checks a replicated batch cannot grow
// the store past what its own frames allocate: a page ID far past the
// page count, or a meta page claiming far more pages than the batch
// carries, is refused with ErrCorrupt before anything is staged.
func TestApplyReplicatedBoundsGrowth(t *testing.T) {
	seq, frames := realSegment(t)
	meta := frames[len(frames)-1]
	if meta.ID != 0 {
		t.Fatalf("last frame is page %d, want the meta page", meta.ID)
	}
	far := Frame{ID: PageID(1 << 31), Kind: KindData, Data: frames[0].Data}
	huge := Frame{ID: 0, Kind: KindMeta, Data: append([]byte(nil), meta.Data...)}
	binary.BigEndian.PutUint32(huge.Data[16:20], 1<<31+1) // pageCount
	for name, batch := range map[string][]Frame{
		"far page":   append(append([]Frame(nil), frames[:len(frames)-1]...), far, meta),
		"huge count": append(append([]Frame(nil), frames[:len(frames)-1]...), far, huge),
	} {
		d, err := CreateFileDiskFiles(NewMemFile(), NewMemFile(), fuzzPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyReplicated(seq, batch); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if len(d.kinds) != 1 || len(d.dirty) != 0 {
			t.Fatalf("%s: refused batch staged %d kinds, %d pages", name, len(d.kinds), len(d.dirty))
		}
		// The intact batch still applies afterwards.
		if ok, err := d.ApplyReplicated(seq, frames); err != nil || !ok {
			t.Fatalf("%s: clean batch after refusal: ok=%v err=%v", name, ok, err)
		}
		d.Close()
	}
}
