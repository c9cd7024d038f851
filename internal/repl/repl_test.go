package repl_test

// End-to-end replication tests: a real primary (index + hub + TCP
// server) streamed to a real replica (ReplicaTarget + Replica), with a
// frame-aware chaos proxy between them for the failure scenarios —
// partitions, torn frames, duplicated segments. After every scenario
// the replica must converge to the primary's exact commit sequence and
// both stores must close into byte-identical, Fsck-clean files.

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/internal/repl"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

func key(i int) bmeh.Key {
	return bmeh.Key{uint64(i), uint64((i*2654435761 + 13) % 1000003)}
}

// primary is a file-backed index serving the replication stream.
type primary struct {
	t    *testing.T
	path string
	ix   *bmeh.Index
	hub  *repl.Hub
	srv  *server.Server
	done chan error
	addr string
}

func startPrimary(t *testing.T, dir string, hubOpts repl.HubOptions) *primary {
	t.Helper()
	path := filepath.Join(dir, "primary.bmeh")
	var (
		ix  *bmeh.Index
		err error
	)
	if _, serr := os.Stat(path); serr == nil {
		ix, err = bmeh.Open(path)
	} else {
		ix, err = bmeh.Create(path, bmeh.Options{Dims: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	hub := repl.NewHub(ix, hubOpts)
	if err := ix.SetReplPublisher(hub.Publish); err != nil {
		t.Fatal(err)
	}
	srv := server.New(ix, server.Config{Hub: hub})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &primary{t: t, path: path, ix: ix, hub: hub, srv: srv, done: done, addr: ln.Addr().String()}
}

func (p *primary) insert(lo, hi int) {
	p.t.Helper()
	kvs := make([]bmeh.KV, 0, hi-lo)
	for i := lo; i < hi; i++ {
		kvs = append(kvs, bmeh.KV{Key: key(i), Value: uint64(i)})
	}
	if _, err := p.ix.InsertBatch(kvs); err != nil {
		p.t.Fatal(err)
	}
	if err := p.ix.Sync(); err != nil {
		p.t.Fatal(err)
	}
}

// close drains the server, stops the hub, and closes the index cleanly.
func (p *primary) close() {
	p.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.srv.Shutdown(ctx)
	<-p.done
	p.ix.SetReplPublisher(nil)
	p.hub.Close()
	if err := p.ix.Close(); err != nil {
		p.t.Fatal(err)
	}
}

func replicaOpts() repl.ReplicaOptions {
	return repl.ReplicaOptions{
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		StallTimeout:      2 * time.Second,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
	}
}

// startReplica follows addr into dir/replica.bmeh.
func startReplica(t *testing.T, dir, addr string) (*bmeh.ReplicaTarget, *repl.Replica) {
	t.Helper()
	target, err := bmeh.NewReplicaTarget(filepath.Join(dir, "replica.bmeh"))
	if err != nil {
		t.Fatal(err)
	}
	rep := repl.NewReplica(target, addr, replicaOpts())
	rep.Start()
	return target, rep
}

// awaitSeq fails the test if the replica does not reach the primary's
// current commit sequence in time.
func awaitSeq(t *testing.T, p *primary, rep *repl.Replica) {
	t.Helper()
	want := p.ix.ReplCommitSeq()
	if !rep.AwaitSeq(want, 15*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", rep.Status().AppliedSeq, want)
	}
}

// verifyConverged closes both sides and checks byte-for-byte equality
// plus a clean Fsck of each store.
func verifyConverged(t *testing.T, p *primary, dir string, target *bmeh.ReplicaTarget, rep *repl.Replica) {
	t.Helper()
	rix := target.Index()
	if rix == nil {
		t.Fatal("replica never seeded")
	}
	if got, want := rix.Len(), p.ix.Len(); got != want {
		t.Fatalf("replica holds %d records, primary %d", got, want)
	}
	for _, i := range []int{0, 1, 17} {
		if i >= p.ix.Len() {
			continue
		}
		v, ok, err := rix.Get(key(i))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("replica get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	rpath := filepath.Join(dir, "replica.bmeh")
	rep.Close()
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
	p.close()
	for _, path := range []string{p.path, rpath} {
		rep, err := bmeh.Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck %s: %v", path, rep.Problems)
		}
	}
	pb, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("replica diverged: primary %d bytes, replica %d bytes, equal=false", len(pb), len(rb))
	}
}

// TestSnapshotBootstrap: the replica starts with no local file against
// a primary that already holds data — it must seed by snapshot, then
// follow live deltas.
func TestSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	p.insert(0, 500)
	target, rep := startReplica(t, dir, p.addr)
	select {
	case <-target.Ready():
	case <-time.After(15 * time.Second):
		t.Fatal("replica never received its seeding snapshot")
	}
	awaitSeq(t, p, rep)
	p.insert(500, 800) // live deltas after the snapshot
	awaitSeq(t, p, rep)
	verifyConverged(t, p, dir, target, rep)
}

// TestLiveStreaming: the replica subscribes before any data exists and
// follows the delta stream only — no snapshot needed beyond the seed of
// an empty store.
func TestLiveStreaming(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	target, rep := startReplica(t, dir, p.addr)
	select {
	case <-target.Ready():
	case <-time.After(15 * time.Second):
		t.Fatal("replica never seeded")
	}
	for i := 0; i < 6; i++ {
		p.insert(i*100, (i+1)*100)
	}
	awaitSeq(t, p, rep)
	if st := p.hub.Status(); st.Subscribers != 1 {
		t.Fatalf("hub subscribers = %d, want 1", st.Subscribers)
	}
	// Heartbeat acks reach the hub: MinAcked catches up to LastSeq.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.hub.Status()
		if st.MinAcked == st.LastSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked %d never reached last seq %d", st.MinAcked, st.LastSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}
	verifyConverged(t, p, dir, target, rep)
}

// TestReplicaRestartResumes: a replica that is stopped and restarted
// with its file intact resumes from its durable sequence (ring replay,
// no snapshot) and converges.
func TestReplicaRestartResumes(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{Retain: 64, HeartbeatInterval: 20 * time.Millisecond})
	p.insert(0, 300)
	target, rep := startReplica(t, dir, p.addr)
	awaitSeq(t, p, rep)
	rep.Close()
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
	p.insert(300, 400) // committed while the replica is down
	target2, rep2 := startReplica(t, dir, p.addr)
	awaitSeq(t, p, rep2)
	verifyConverged(t, p, dir, target2, rep2)
}

// chaosProxy sits between replica and primary. The replica-bound
// direction is frame-aware: it can tear a frame in half or duplicate a
// REPL_RECORDS push on command.
type chaosProxy struct {
	t       *testing.T
	ln      net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn

	tearNext atomic.Bool // cut the next REPL_RECORDS frame in half, then drop the link
	dupNext  atomic.Bool // deliver the next REPL_RECORDS frame twice
	torn     atomic.Int64
	duped    atomic.Int64
}

func newChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{t: t, ln: ln, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close(); p.cut() })
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// cut severs every live link (both halves); the replica's redial loop
// will come back through the proxy.
func (p *chaosProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *chaosProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		backend, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client)
		p.track(backend)
		// Replica → primary: plain bytes.
		go func() {
			io.Copy(backend, client)
			backend.Close()
			client.Close()
		}()
		// Primary → replica: frame-aware chaos.
		go p.pump(backend, client)
	}
}

func (p *chaosProxy) pump(from, to net.Conn) {
	defer from.Close()
	defer to.Close()
	r := wire.NewReader(from, 0)
	for {
		fr, err := r.Next()
		if err != nil {
			return
		}
		buf := wire.AppendFrame(nil, fr)
		isRecords := fr.Op == wire.OpReplRecords.Response()
		if isRecords && p.tearNext.CompareAndSwap(true, false) {
			p.torn.Add(1)
			to.Write(buf[:len(buf)/2])
			return // both halves die with the torn frame
		}
		if _, err := to.Write(buf); err != nil {
			return
		}
		if isRecords && p.dupNext.CompareAndSwap(true, false) {
			p.duped.Add(1)
			if _, err := to.Write(buf); err != nil {
				return
			}
		}
	}
}

// TestPartitionResumesFromRing: the stream is cut, commits continue
// within the hub's retained history, and the reconnecting replica
// resumes by ring replay — session count grows, convergence holds.
func TestPartitionResumesFromRing(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{Retain: 256, HeartbeatInterval: 20 * time.Millisecond})
	proxy := newChaosProxy(t, p.addr)
	p.insert(0, 200)
	target, rep := startReplica(t, dir, proxy.addr())
	awaitSeq(t, p, rep)
	s0 := rep.Sessions()
	proxy.cut()
	p.insert(200, 300) // few commits: well inside the ring
	awaitSeq(t, p, rep)
	if rep.Sessions() <= s0 {
		t.Fatalf("sessions %d after partition, want > %d (redial)", rep.Sessions(), s0)
	}
	verifyConverged(t, p, dir, target, rep)
}

// TestPartitionReseedsBySnapshot: with a tiny ring, commits during the
// partition outrun the history and the reconnecting replica must be
// reseeded by a full snapshot.
func TestPartitionReseedsBySnapshot(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{Retain: 2, HeartbeatInterval: 20 * time.Millisecond})
	proxy := newChaosProxy(t, p.addr)
	p.insert(0, 100)
	target, rep := startReplica(t, dir, proxy.addr())
	awaitSeq(t, p, rep)
	proxy.cut()
	for i := 1; i <= 8; i++ { // 8 commits ≫ Retain 2
		p.insert(i*100, (i+1)*100)
	}
	awaitSeq(t, p, rep)
	verifyConverged(t, p, dir, target, rep)
}

// TestTornFrameRedialsAndConverges: a REPL_RECORDS frame torn mid-wire
// kills the session; the replica redials and still converges.
func TestTornFrameRedialsAndConverges(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	proxy := newChaosProxy(t, p.addr)
	p.insert(0, 100)
	target, rep := startReplica(t, dir, proxy.addr())
	awaitSeq(t, p, rep)
	proxy.tearNext.Store(true)
	p.insert(100, 200) // this batch's frame is torn in flight
	awaitSeq(t, p, rep)
	if proxy.torn.Load() == 0 {
		t.Fatal("proxy never tore a frame")
	}
	verifyConverged(t, p, dir, target, rep)
}

// TestDuplicatedFrameIsIdempotent: a duplicated REPL_RECORDS frame must
// be skipped by the replica's sequence check, not applied twice.
func TestDuplicatedFrameIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	proxy := newChaosProxy(t, p.addr)
	p.insert(0, 100)
	target, rep := startReplica(t, dir, proxy.addr())
	awaitSeq(t, p, rep)
	proxy.dupNext.Store(true)
	p.insert(100, 200)
	awaitSeq(t, p, rep)
	if proxy.duped.Load() == 0 {
		t.Fatal("proxy never duplicated a frame")
	}
	p.insert(200, 300) // stream still healthy after the duplicate
	awaitSeq(t, p, rep)
	verifyConverged(t, p, dir, target, rep)
}

// TestPrimaryRestartRiddenOut: the primary process goes away (server
// drained, index closed) and comes back on a new port; a replica
// pointed at a stable proxy address rides it out.
func TestPrimaryRestartRiddenOut(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	p.insert(0, 200)

	// A tiny forwarder with a stable address whose backend can be
	// swapped, standing in for the primary's fixed host:port.
	var backend atomic.Value
	backend.Store(p.addr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.DialTimeout("tcp", backend.Load().(string), time.Second)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(b, c); b.Close(); c.Close() }()
			go func() { io.Copy(c, b); c.Close(); b.Close() }()
		}
	}()

	target, rep := startReplica(t, dir, ln.Addr().String())
	awaitSeq(t, p, rep)

	p.close() // primary gone, file durable
	p2 := startPrimary(t, dir, repl.HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	backend.Store(p2.addr)
	p2.insert(200, 300)
	awaitSeq(t, p2, rep)
	verifyConverged(t, p2, dir, target, rep)
}
