package bmeh

import (
	"path/filepath"
	"testing"
)

// TestRecoveryFsckWithDecodedCache drives the WAL recovery path end to end
// with the decoded-object cache in play: an index is abandoned without
// Close after a mix of synced batches and unsynced tail writes, reopened
// (recovery replays the log), read back through the decoded cache, and
// then checked with the offline Fsck — which must also pass after the
// recovered index makes further (cached) modifications.
func TestRecoveryFsckWithDecodedCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.bmeh")
	ix, err := Create(path, Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(600, 2, 21)
	kvs := make([]KV, len(keys))
	for i, k := range keys {
		kvs[i] = KV{Key: k, Value: uint64(i)}
	}
	// Acked prefix: InsertBatch syncs each batch before returning.
	if n, err := ix.InsertBatch(kvs[:400]); err != nil || n != 400 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	// Unsynced tail: may or may not survive; recovery just has to be
	// consistent about it.
	for _, kv := range kvs[400:] {
		if err := ix.Insert(kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: the "process died" shape of an unclean stop.

	re, err := Open(path)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	for i, k := range keys[:400] {
		if v, ok, err := re.Get(k); err != nil || !ok || v != uint64(i) {
			t.Fatalf("acked key %d lost after recovery: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	// Mutate through the recovered index's decoded caches, then re-read.
	for _, k := range keys[:100] {
		if ok, err := re.Delete(k); err != nil || !ok {
			t.Fatalf("delete after recovery: ok=%v err=%v", ok, err)
		}
	}
	for i, k := range keys[100:400] {
		if v, ok, err := re.Get(k); err != nil || !ok || v != uint64(i+100) {
			t.Fatalf("key %d wrong after post-recovery deletes", i+100)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after recovery + cached modifications: %v", rep.Problems)
	}
}
