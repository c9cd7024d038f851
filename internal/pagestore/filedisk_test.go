package pagestore

import (
	"encoding/binary"
	"errors"
	"testing"
)

func isCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// buildStore populates a small store on mem-backed files: three data
// pages with recognizable contents, one freed page, and a meta record.
func buildStore(t *testing.T) (main, wal *MemFile, ids []PageID) {
	t.Helper()
	main, wal = NewMemFile(), NewMemFile()
	d, err := CreateFileDiskFiles(main, wal, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id, err := d.Alloc(KindData)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i + 1), 0xEE}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("client-meta-record")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return main, wal, ids[:3]
}

// TestFileDiskDetectsAnyFlippedByte flips every byte of the file in turn.
// Each flip must surface as an error wrapping ErrCorrupt — at open (meta
// page, free list) or at the first read of the damaged page — and must
// never panic or return wrong data silently.
func TestFileDiskDetectsAnyFlippedByte(t *testing.T) {
	main, wal, ids := buildStore(t)
	pristine := main.Bytes()
	for off := 0; off < len(pristine); off++ {
		bad := NewMemFile()
		bad.WriteAt(pristine, 0)
		bad.WriteAt([]byte{pristine[off] ^ 0x01}, int64(off))
		walCopy := NewMemFile()
		walCopy.WriteAt(wal.Bytes(), 0)
		d, err := OpenFileDiskFiles(bad, walCopy)
		if err != nil {
			if !isCorrupt(err) {
				t.Fatalf("offset %d: open error %v does not wrap ErrCorrupt", off, err)
			}
			continue
		}
		caught := false
		buf := make([]byte, 128)
		for i, id := range ids {
			err := d.Read(id, buf)
			switch {
			case err == nil:
				if buf[0] != byte(i+1) || buf[1] != 0xEE {
					t.Fatalf("offset %d: page %d silently wrong: % x", off, id, buf[:2])
				}
			case isCorrupt(err):
				caught = true
			default:
				t.Fatalf("offset %d: read error %v does not wrap ErrCorrupt", off, err)
			}
		}
		if !caught {
			t.Fatalf("offset %d: flip neither failed open nor any page read", off)
		}
	}
}

// TestFileDiskFreeListHardening hand-crafts damaged free lists — with
// valid page checksums, so only the structural bounds can catch them —
// and verifies open returns ErrCorrupt instead of hanging or crashing.
func TestFileDiskFreeListHardening(t *testing.T) {
	rewriteFreePage := func(m *MemFile, id PageID, next uint32) {
		page := make([]byte, 128)
		binary.BigEndian.PutUint32(page[:4], next)
		m.WriteAt(encodeSlot(page, KindFree), int64(id)*int64(128+pageTrailerSize))
	}
	rewriteFreeHead := func(m *MemFile, head uint32) {
		slot := make([]byte, 128+pageTrailerSize)
		m.ReadAt(slot, 0)
		page := slot[:128]
		binary.BigEndian.PutUint32(page[20:24], head)
		m.WriteAt(encodeSlot(page, KindMeta), 0)
	}
	freshWAL := func(w *MemFile) *MemFile {
		c := NewMemFile()
		c.WriteAt(w.Bytes(), 0)
		return c
	}
	cases := map[string]func(m *MemFile){
		"self-cycle":        func(m *MemFile) { rewriteFreePage(m, 4, 4) },
		"out-of-range next": func(m *MemFile) { rewriteFreePage(m, 4, 999) },
		"out-of-range head": func(m *MemFile) { rewriteFreeHead(m, 999) },
		"head at data page": func(m *MemFile) { rewriteFreeHead(m, 1) },
	}
	for name, damage := range cases {
		main, wal, _ := buildStore(t) // page 4 is the freed page
		damage(main)
		if _, err := OpenFileDiskFiles(main, freshWAL(wal)); !isCorrupt(err) {
			t.Errorf("%s: open error = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFileDiskCrashRecovery sweeps a crash over every write of a small
// commit-heavy run and checks that reopening always yields either the
// pre-crash or post-crash committed state — never a broken store.
func TestFileDiskCrashRecovery(t *testing.T) {
	// One disarmed pass to count the crash points.
	run := func(cd *CrashDisk) (*MemFile, *MemFile, error) {
		main, wal := NewMemFile(), NewMemFile()
		d, err := CreateFileDiskFiles(cd.File(main), cd.File(wal), 128)
		if err != nil {
			return main, wal, err
		}
		for i := 0; i < 6; i++ {
			id, err := d.Alloc(KindData)
			if err != nil {
				return main, wal, err
			}
			if err := d.Write(id, []byte{byte(i + 1)}); err != nil {
				return main, wal, err
			}
			if err := d.WriteMeta([]byte{byte(i + 1)}); err != nil {
				return main, wal, err
			}
			if err := d.Sync(); err != nil {
				return main, wal, err
			}
		}
		return main, wal, d.Close()
	}
	clean := NewCrashDisk()
	if _, _, err := run(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Writes()
	if total < 20 {
		t.Fatalf("only %d crash points; harness too small", total)
	}
	for point := int64(0); point < total; point++ {
		for _, mode := range []CrashMode{CrashDrop, CrashTorn} {
			cd := NewCrashDisk()
			cd.Arm(point, mode)
			main, wal, err := run(cd)
			if !cd.Crashed() {
				t.Fatalf("point %d: crash never fired (err=%v)", point, err)
			}
			if err == nil {
				t.Fatalf("point %d: run survived a power loss", point)
			}
			d, err := OpenFileDiskFiles(main, wal)
			if err != nil {
				// Only a crash before the very first commit may leave
				// nothing recoverable — and it must still fail cleanly.
				if !isCorrupt(err) {
					t.Fatalf("point %d/%v: open error %v", point, mode, err)
				}
				continue
			}
			// The store must be internally consistent: meta record and
			// every allocated page readable, free list already walked.
			meta := make([]byte, 8)
			n, err := d.ReadMeta(meta)
			if err != nil {
				t.Fatalf("point %d/%v: meta: %v", point, mode, err)
			}
			buf := make([]byte, 128)
			alloc := d.Allocated()[KindData]
			if n == 1 && int(meta[0]) > alloc {
				t.Fatalf("point %d/%v: meta acknowledges %d pages, store has %d", point, mode, meta[0], alloc)
			}
			for id := PageID(1); int(id) <= alloc; id++ {
				if err := d.Read(id, buf); err != nil {
					t.Fatalf("point %d/%v: page %d: %v", point, mode, id, err)
				}
				if buf[0] != byte(id) {
					t.Fatalf("point %d/%v: page %d holds %d", point, mode, id, buf[0])
				}
			}
			d.Close()
		}
	}
}

// TestFaultStoreTornWrite verifies torn mode really garbles the second
// half of the faulting write and that per-kind targeting skips untargeted
// traffic without consuming the countdown.
func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewMemDisk(64)
	fs := NewFaultStore(inner, -1)
	dir, _ := fs.Alloc(KindDirectory)
	data, _ := fs.Alloc(KindData)

	fs.TargetKinds(KindDirectory)
	fs.ArmMode(0, FaultTorn)
	// Data-page traffic must flow while the directory fault is armed.
	if err := fs.Write(data, page(64, 0x77)); err != nil {
		t.Fatalf("untargeted write faulted: %v", err)
	}
	if err := fs.Write(dir, page(64, 0x11)); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted write: %v", err)
	}
	fs.Disarm()
	fs.TargetKinds()
	buf := make([]byte, 64)
	if err := fs.Read(dir, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 || buf[63] != 0x11^0xA5 {
		t.Fatalf("torn write not applied as torn: first=%x last=%x", buf[0], buf[63])
	}
	if err := fs.Read(data, buf); err != nil || buf[63] != 0x77 {
		t.Fatalf("untargeted page damaged: %x %v", buf[63], err)
	}
}

// TestReadMissAllocs pins the pread path: a read of a committed page goes
// through the store's reusable slot buffer, allocating nothing, and still
// counts exactly one read and verifies the checksum.
func TestReadMissAllocs(t *testing.T) {
	main, wal, ids := buildStore(t)
	d, err := OpenFileDiskFiles(main, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, d.PageSize())
	before := d.Stats().Reads
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Read(ids[1], buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pread miss: %v allocs/op, want 0", allocs)
	}
	if got := d.Stats().Reads - before; got != 101 { // AllocsPerRun adds a warm-up run
		t.Errorf("Stats.Reads grew by %d over 101 reads", got)
	}
	if buf[0] != 2 || buf[1] != 0xEE {
		t.Fatalf("read back %x, want 02ee", buf[:2])
	}
	// Damage the slot on disk: the pooled path must still catch it.
	slot := int64(ids[1]) * int64(d.PageSize()+pageTrailerSize)
	if _, err := main.WriteAt([]byte{0x55}, slot+1); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(ids[1], buf); !isCorrupt(err) {
		t.Fatalf("read of a damaged slot: %v, want ErrCorrupt", err)
	}
}
