package client_test

// Failover behaviour of the cluster client: read routing across
// replicas, redial backoff against dead nodes, staleness demotion,
// typed write failures when the primary is gone, and BUSY handling.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/server"
	"bmeh/internal/wire"
)

// startMemServer runs an in-memory server whose stop function is safe
// to call early (and exactly once more via cleanup is a no-op).
func startMemServer(t *testing.T, cfg server.Config) (*bmeh.Index, string, func()) {
	t.Helper()
	ix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	srv := server.New(ix, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
		})
	}
	t.Cleanup(stop)
	return ix, ln.Addr().String(), stop
}

// closedPort returns an address nothing listens on.
func closedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRedialBackoffGate: with a dead replica in the topology, a hot
// burst of reads must not hammer the dead node — after the first dial
// failure the endpoint is gated and reads go straight to the primary.
func TestRedialBackoffGate(t *testing.T) {
	ix, addr, _ := startMemServer(t, server.Config{})
	if err := ix.Insert(bmeh.Key{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	dead := closedPort(t)
	cl, err := client.DialCluster(addr, []string{dead}, client.Options{
		PoolSize:         1,
		Retries:          2,
		RedialBackoff:    200 * time.Millisecond,
		RedialBackoffMax: 2 * time.Second,
		HealthInterval:   -1, // keep the prober from dialing the dead node
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 200; i++ {
		v, ok, err := cl.Get(bmeh.Key{1, 2})
		if err != nil || !ok || v != 7 {
			t.Fatalf("get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	for _, h := range cl.Health() {
		if h.Addr != dead {
			continue
		}
		if h.Connected {
			t.Fatal("dead replica reported connected")
		}
		// 200 back-to-back reads finish well inside one 200ms backoff
		// window; without the gate this would be ~200 dials.
		if h.Dials > 5 {
			t.Fatalf("dead replica dialed %d times during the burst, want a handful", h.Dials)
		}
		return
	}
	t.Fatal("dead replica missing from Health()")
}

// TestAllReplicasDownReadsFallBack: reads prefer replicas, but when the
// only replica dies mid-session they must fail over to the primary with
// no caller-visible errors.
func TestAllReplicasDownReadsFallBack(t *testing.T) {
	pix, paddr, _ := startMemServer(t, server.Config{})
	rix, raddr, stopReplica := startMemServer(t, server.Config{})
	for _, ix := range []*bmeh.Index{pix, rix} {
		if err := ix.Insert(bmeh.Key{3, 4}, 11); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.DialCluster(paddr, []string{raddr}, client.Options{
		PoolSize: 1, Retries: 3, RequestTimeout: 5 * time.Second,
		RedialBackoff: 20 * time.Millisecond, HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if v, ok, err := cl.Get(bmeh.Key{3, 4}); err != nil || !ok || v != 11 {
		t.Fatalf("get with replica up: v=%d ok=%v err=%v", v, ok, err)
	}

	stopReplica() // replica gone: its connections die
	for i := 0; i < 50; i++ {
		v, ok, err := cl.Get(bmeh.Key{3, 4})
		if err != nil || !ok || v != 11 {
			t.Fatalf("get %d after replica death: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestWritesFailFastWhenPrimaryDown: with the primary unreachable,
// writes must not hang or silently retry — they fail with
// ErrPrimaryDown while reads keep working off the replica.
func TestWritesFailFastWhenPrimaryDown(t *testing.T) {
	rix, raddr, _ := startMemServer(t, server.Config{})
	if err := rix.Insert(bmeh.Key{5, 6}, 13); err != nil {
		t.Fatal(err)
	}
	cl, err := client.DialCluster(closedPort(t), []string{raddr}, client.Options{
		PoolSize: 1, DialTimeout: 2 * time.Second, HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if v, ok, err := cl.Get(bmeh.Key{5, 6}); err != nil || !ok || v != 13 {
		t.Fatalf("read off replica: v=%d ok=%v err=%v", v, ok, err)
	}
	start := time.Now()
	err = cl.Put(bmeh.Key{9, 9}, 1)
	if !errors.Is(err, client.ErrPrimaryDown) {
		t.Fatalf("put with primary down: %v, want ErrPrimaryDown", err)
	}
	// Second write hits the backoff gate: no dial, immediate typed error.
	if err := cl.Put(bmeh.Key{9, 9}, 2); !errors.Is(err, client.ErrPrimaryDown) {
		t.Fatalf("second put: %v, want ErrPrimaryDown", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("writes took %v, want fail-fast", elapsed)
	}
}

// TestStaleReplicaDemoted: a replica lagging past MaxLag is dropped
// from read routing after a probe, and reads land on the primary.
func TestStaleReplicaDemoted(t *testing.T) {
	pix, paddr, _ := startMemServer(t, server.Config{})
	if err := pix.Insert(bmeh.Key{7, 8}, 1); err != nil {
		t.Fatal(err)
	}

	// The "replica" holds a divergent value so the test can see which
	// node answered, and reports an enormous lag via STATS.
	rix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rix.Close() })
	if err := rix.Insert(bmeh.Key{7, 8}, 2); err != nil {
		t.Fatal(err)
	}
	rsrv := server.New(rix, server.Config{
		ReadOnly: true,
		ReplicaStatus: func() (uint64, uint64, bool) {
			return 1 << 20, 0, true // primarySeq far ahead of applied
		},
	})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rdone := make(chan error, 1)
	go func() { rdone <- rsrv.Serve(rln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rsrv.Shutdown(ctx)
		<-rdone
	})

	cl, err := client.DialCluster(paddr, []string{rln.Addr().String()}, client.Options{
		PoolSize: 1, MaxLag: 1, HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Before any probe the replica is trusted and answers the read.
	if v, _, err := cl.Get(bmeh.Key{7, 8}); err != nil || v != 2 {
		t.Fatalf("pre-probe get: v=%d err=%v, want replica's 2", v, err)
	}
	cl.ProbeNow()
	var stale bool
	for _, h := range cl.Health() {
		if !h.Primary {
			stale = h.Stale
			if h.Lag <= 1 {
				t.Fatalf("probed lag %d, want > MaxLag", h.Lag)
			}
		}
	}
	if !stale {
		t.Fatal("lagging replica not marked stale after probe")
	}
	for i := 0; i < 10; i++ {
		if v, _, err := cl.Get(bmeh.Key{7, 8}); err != nil || v != 1 {
			t.Fatalf("post-probe get %d: v=%d err=%v, want primary's 1", i, v, err)
		}
	}
}

// busyListener answers the first `busy` requests on each connection
// with StatusBusy, the rest like a normal empty server.
func busyListener(t *testing.T, busy int) (addr string, busied *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	busied = new(atomic.Int64)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				r := wire.NewReader(bufio.NewReader(nc), 0)
				served := 0
				for {
					fr, err := r.Next()
					if err != nil {
						return
					}
					st := wire.StatusNotFound
					if served < busy {
						st = wire.StatusBusy
						busied.Add(1)
					}
					served++
					resp := wire.AppendFrame(nil, wire.Frame{
						Op: fr.Op.Response(), ID: fr.ID,
						Payload: wire.AppendStatus(nil, st, ""),
					})
					if _, err := nc.Write(resp); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String(), busied
}

// TestBusyRetriedWithBackoff: BUSY is a guarantee the server executed
// nothing, so the client retries it (with backoff) even past Retries=0
// semantics — here Retries=2 absorbs one BUSY and the call succeeds.
func TestBusyRetriedWithBackoff(t *testing.T) {
	addr, busied := busyListener(t, 1)
	cl, err := client.Dial(addr, client.Options{
		PoolSize: 1, Retries: 2,
		RedialBackoff: 5 * time.Millisecond, RedialBackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, ok, err := cl.Get(bmeh.Key{1, 1}); err != nil || ok {
		t.Fatalf("get through one BUSY: ok=%v err=%v", ok, err)
	}
	if busied.Load() != 1 {
		t.Fatalf("BUSY answers: %d, want 1", busied.Load())
	}
}

// TestBusySurfacesWithoutRetries: with Retries=0 the caller sees the
// typed ErrBusy.
func TestBusySurfacesWithoutRetries(t *testing.T) {
	addr, _ := busyListener(t, 100)
	cl, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get(bmeh.Key{1, 1}); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("get against always-busy server: %v, want ErrBusy", err)
	}
}

// TestReadOnlyReplicaRefusesWrites: a replica server answers writes
// with the typed ErrReadOnly, and the client does not retry them.
func TestReadOnlyReplicaRefusesWrites(t *testing.T) {
	rix, err := bmeh.New(bmeh.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rix.Close() })
	rsrv := server.New(rix, server.Config{ReadOnly: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rsrv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rsrv.Shutdown(ctx)
		<-done
	})

	cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(bmeh.Key{1, 1}, 1); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("put to replica: %v, want ErrReadOnly", err)
	}
	if err := cl.Sync(); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("sync to replica: %v, want ErrReadOnly", err)
	}
	if _, ok, err := cl.Get(bmeh.Key{1, 1}); err != nil || ok {
		t.Fatalf("get on replica: ok=%v err=%v", ok, err)
	}
}
