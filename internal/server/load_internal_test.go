package server

// White-box tests for the load-session lifecycle races: the expiry
// sweep must leave committed sessions alone, and an abort that loses
// the race against LOAD_COMMIT must not fail the build.

import (
	"testing"
	"time"

	"bmeh"
)

func newMemServer(t *testing.T) *Server {
	t.Helper()
	ix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return New(ix, Config{})
}

// TestSweepSkipsCommitted: a session whose commit is in flight stays in
// the registry no matter how stale its lastActive is; an uncommitted
// session that stale is reaped and aborted.
func TestSweepSkipsCommitted(t *testing.T) {
	s := newMemServer(t)
	committed := s.openLoadSession()
	idle := s.openLoadSession()

	s.loadMu.Lock()
	committed.committed = true
	committed.lastActive = time.Now().Add(-2 * loadIdleExpiry)
	idle.lastActive = time.Now().Add(-2 * loadIdleExpiry)
	s.loadMu.Unlock()

	s.sweepLoads()

	s.loadMu.Lock()
	_, keptCommitted := s.loads[committed.id]
	_, keptIdle := s.loads[idle.id]
	s.loadMu.Unlock()
	if !keptCommitted {
		t.Fatal("sweep reaped a committed session")
	}
	if keptIdle {
		t.Fatal("sweep kept a stale uncommitted session")
	}
	<-idle.done
	if idle.result.err != errLoadAborted {
		t.Fatalf("idle builder: %v, want errLoadAborted", idle.result.err)
	}

	close(committed.recs)
	<-committed.done
	if committed.result.err != nil {
		t.Fatalf("committed builder: %v", committed.result.err)
	}
	s.dropLoad(committed.id)
}

// TestAbortAfterCommitDrainsChunks: with chunks buffered, recs closed by
// a commit, and abort closed right after (the sweep/shutdown shape), the
// builder must drain every buffered chunk and finish cleanly — however
// the select between the two closed channels lands.
func TestAbortAfterCommitDrainsChunks(t *testing.T) {
	const rounds = 50 // the select race is probabilistic; hammer it
	for r := 0; r < rounds; r++ {
		s := newMemServer(t)
		ls := s.openLoadSession()
		var want uint64
		for c := 0; c < loadChanDepth; c++ {
			batch := make([]bmeh.KV, 4)
			for i := range batch {
				want++
				batch[i] = bmeh.KV{Key: bmeh.Key{want, want ^ uint64(r)}, Value: want}
			}
			ls.recs <- batch
		}
		s.loadMu.Lock()
		ls.committed = true
		s.loadMu.Unlock()
		close(ls.recs)
		s.abortLoad(ls)
		<-ls.done
		if ls.result.err != nil {
			t.Fatalf("round %d: builder failed: %v", r, ls.result.err)
		}
		if ls.result.stats.Loaded != int64(want) {
			t.Fatalf("round %d: loaded %d, want %d", r, ls.result.stats.Loaded, want)
		}
		s.dropLoad(ls.id)
	}
}
