package serve_test

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/serve"
)

// lockedBuffer is a log sink safe to read while Run still writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// running is one Run call on a loopback port.
type running struct {
	addr string
	sig  chan os.Signal
	errc chan error
	log  *lockedBuffer
}

// start runs cfg on 127.0.0.1:0 and waits until it listens.
func start(t *testing.T, cfg serve.Config) *running {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	r := &running{sig: make(chan os.Signal, 2), errc: make(chan error, 1), log: &lockedBuffer{}}
	addrc := make(chan net.Addr, 1)
	go func() { r.errc <- serve.Run(cfg, r.sig, func(a net.Addr) { addrc <- a }, r.log) }()
	select {
	case a := <-addrc:
		r.addr = a.String()
	case err := <-r.errc:
		t.Fatalf("Run returned before listening: %v\nlog: %s", err, r.log)
	case <-time.After(10 * time.Second):
		t.Fatal("Run never listened")
	}
	return r
}

// stop delivers sig and returns Run's result once it has drained.
func (r *running) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	r.sig <- sig
	select {
	case err := <-r.errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after the signal")
		return nil
	}
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func keyOf(i int) bmeh.Key { return bmeh.Key{uint64(i % 97), uint64(i)} }

// checkData reads every record back through GET and a full-box RANGE.
func checkData(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, ok, err := cl.Get(keyOf(i))
		if err != nil || !ok || v != uint64(i)*3 {
			t.Fatalf("get %v: %d %v %v", keyOf(i), v, ok, err)
		}
	}
	if _, ok, err := cl.Get(bmeh.Key{1000, 1000}); err != nil || ok {
		t.Fatalf("get of an absent key: ok=%v err=%v", ok, err)
	}
	kvs, more, err := cl.Range(bmeh.Key{0, 0}, bmeh.Key{1<<32 - 1, 1<<32 - 1}, 0)
	if err != nil || more || len(kvs) != n {
		t.Fatalf("full range: %d records, more=%v, err=%v; want %d", len(kvs), more, err, n)
	}
	seen := make(map[uint64]bool, n)
	for _, kv := range kvs {
		i := int(kv.Key[1])
		if kv.Key[0] != uint64(i%97) || kv.Value != uint64(i)*3 || seen[kv.Key[1]] {
			t.Fatalf("range returned %v=%d", kv.Key, kv.Value)
		}
		seen[kv.Key[1]] = true
	}
	// A box over dimension 1 only: keys [10, 19].
	kvs, _, err = cl.Range(bmeh.Key{0, 10}, bmeh.Key{1<<32 - 1, 19}, 0)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("partial range: %d records, err=%v; want 10", len(kvs), err)
	}
}

// TestRunServesAndRestarts drives the whole lifecycle of a file-backed
// primary: create over a temp dir, PUT/GET/RANGE through the client,
// drain on SIGTERM, then restart on the same file with no WAL replay and
// every record intact — and the file passes Fsck in between.
func TestRunServesAndRestarts(t *testing.T) {
	for _, cow := range []bool{false, true} {
		name := "latched"
		if cow {
			name = "cow"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "served.bmeh")
			cfg := serve.Config{
				IndexPath: path, Create: true, COW: cow,
				Dims: 2, Capacity: 8,
				SyncInterval: 200 * time.Microsecond, SyncBatch: 64,
			}
			r := start(t, cfg)
			cl := dial(t, r.addr)
			const n = 400
			for i := 0; i < n; i++ {
				if err := cl.Put(keyOf(i), uint64(i)*3); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if err := cl.Put(keyOf(7), 1); err == nil {
				t.Fatal("duplicate put accepted")
			}
			checkData(t, cl, n)
			if st, err := cl.Stats(); err != nil || st.Records != n || st.COW != cow {
				t.Fatalf("stats: %+v, %v", st, err)
			}
			cl.Close()
			if err := r.stop(t, syscall.SIGTERM); err != nil {
				t.Fatalf("first run: %v\nlog: %s", err, r.log)
			}
			if log := r.log.String(); !strings.Contains(log, "drained cleanly") {
				t.Fatalf("first run did not drain cleanly:\n%s", log)
			}
			rep, err := bmeh.Fsck(path)
			if err != nil || !rep.OK() {
				t.Fatalf("fsck after shutdown: %v %v", err, rep.Problems)
			}

			r2 := start(t, cfg)
			cl2 := dial(t, r2.addr)
			checkData(t, cl2, n)
			cl2.Close()
			if err := r2.stop(t, syscall.SIGINT); err != nil {
				t.Fatalf("second run: %v\nlog: %s", err, r2.log)
			}
			if log := r2.log.String(); !strings.Contains(log, "clean shutdown, no WAL replay") {
				t.Fatalf("restart replayed the WAL after a clean drain:\n%s", log)
			}
		})
	}
}

// TestRunConfigErrors: every unrunnable configuration is an error from
// Run, before it listens — never a panic or a hang.
func TestRunConfigErrors(t *testing.T) {
	dir := t.TempDir()
	for name, cfg := range map[string]serve.Config{
		"no store":            {Dims: 2},
		"unknown backend":     {Mem: true, Dims: 2, Backend: "tape"},
		"missing file":        {IndexPath: filepath.Join(dir, "absent.bmeh"), Dims: 2},
		"replica in memory":   {Mem: true, ReplicaOf: "127.0.0.1:1"},
		"replica, no --index": {ReplicaOf: "127.0.0.1:1"},
	} {
		cfg.Addr = "127.0.0.1:0"
		ready := func(net.Addr) { t.Errorf("%s: Run listened", name) }
		if err := serve.Run(cfg, make(chan os.Signal), ready, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: Run accepted the configuration", name)
		}
	}
	for in, want := range map[string]bmeh.Backend{"": bmeh.BackendFile, "file": bmeh.BackendFile, "mmap": bmeh.BackendMmap} {
		if got, err := serve.ParseBackend(in); err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
