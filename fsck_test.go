package bmeh

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFsck exercises the offline checker against a healthy index, a
// checksum-damaged page, and a damaged header.
func TestFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(800, 2, 7)
	for i, k := range keys {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a slice of the keys so the free list has entries to verify.
	for _, k := range keys[:200] {
		if _, err := ix.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean index reported problems: %v", rep.Problems)
	}
	if rep.Records != 600 {
		t.Fatalf("fsck counted %d records, want 600", rep.Records)
	}
	if !strings.Contains(rep.Scheme, "BMEH") {
		t.Fatalf("fsck reported scheme %q", rep.Scheme)
	}
	if rep.Pages < 2 || rep.FreePages == 0 {
		t.Fatalf("implausible page census: %d pages, %d free", rep.Pages, rep.FreePages)
	}

	// Flip one byte inside an allocated page's image. The open-time checks
	// don't read data pages, so only the full scan can catch this.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := rep.PageSize + 8
	damaged := append([]byte(nil), raw...)
	damaged[slot+10] ^= 0x01
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed a flipped byte in a page image")
	}

	// Damage the header instead: the store must refuse to open, and fsck
	// must report that rather than erroring out.
	damaged = append(damaged[:0:0], raw...)
	damaged[3] ^= 0xFF
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed header damage")
	}

	// Restore the original bytes: the index must check clean again and
	// still open as a working index.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("restored index reported problems: %v", rep.Problems)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 600 {
		t.Fatalf("reopened index has %d records, want 600", re.Len())
	}
}

// TestFsckMissingFile verifies Fsck reports an unopenable path as a
// problem (the caller still gets a report to print).
func TestFsckMissingFile(t *testing.T) {
	rep, err := Fsck(filepath.Join(t.TempDir(), "nope.bmeh"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck of a missing file reported ok")
	}
}
