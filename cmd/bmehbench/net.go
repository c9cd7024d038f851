package main

// The -net mode measures the serving layer end to end over loopback TCP:
// a file-backed index behind bmeh/internal/server, driven by the pooled
// pipelined client. Three numbers matter:
//
//   - get_ops_per_sec: 16 clients, each keeping a window of async GETs
//     in flight (pipelining hides the per-op round trip).
//   - put_single_ops_per_sec: one client issuing synchronous PUTs, one
//     at a time — every op pays a full round trip AND a full WAL commit,
//     the worst case the coalescer exists to avoid.
//   - put_pipelined_ops_per_sec: 16 clients pipelining async PUTs; the
//     server folds them into InsertBatch calls so hundreds of acks share
//     one group-committed fsync.
//
// put_speedup = put_pipelined / put_single is the write-coalescing win.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/server"
)

const (
	netClients = 16
	netDepth   = 64 // async calls in flight per client
)

// NetReport is the BENCH_server.json schema.
type NetReport struct {
	Keys           int    `json:"keys"`
	Clients        int    `json:"clients"`
	Depth          int    `json:"pipeline_depth"`
	WindowMS       int64  `json:"window_ms_per_run"`
	NumCPU         int    `json:"num_cpu"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Backend        string `json:"backend"`
	KernelPageSize int    `json:"kernel_page_size"`

	GetOpsPerSec          float64 `json:"get_ops_per_sec"`
	PutSingleOpsPerSec    float64 `json:"put_single_ops_per_sec"`
	PutPipelinedOpsPerSec float64 `json:"put_pipelined_ops_per_sec"`
	PutSpeedup            float64 `json:"put_speedup"`
}

func netKey(i int) bmeh.Key {
	return bmeh.Key{uint64(i), uint64((i*2654435761 + 13) % 1000003)}
}

// pump keeps depth async calls in flight on cl until deadline, then
// drains; returns completed (successful) calls.
func pump(cl *client.Client, depth int, deadline time.Time, issue func(seq int) *client.Call) (int64, error) {
	inflight := make(chan *client.Call, depth)
	seq := 0
	for ; seq < depth; seq++ {
		inflight <- issue(seq)
	}
	var done int64
	for time.Now().Before(deadline) {
		call := <-inflight
		if err := call.Wait(); err != nil {
			return done, err
		}
		done++
		inflight <- issue(seq)
		seq++
	}
	for i := 0; i < depth; i++ {
		call := <-inflight
		if err := call.Wait(); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// runNet stands up the server on loopback over a file-backed temp index
// preloaded with n keys and runs the three measurements.
func runNet(w io.Writer, n int, window time.Duration, progress func(string, ...interface{})) (*NetReport, error) {
	dir, err := os.MkdirTemp("", "bmehnet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ix, err := bmeh.Create(filepath.Join(dir, "bench.bmeh"), bmeh.Options{
		Dims:         2,
		PageCapacity: 32,
		SyncPolicy:   bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 256},
	})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	progress("net: preloading %d keys...\n", n)
	const chunk = 4096
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		kvs := make([]bmeh.KV, 0, hi-lo)
		for i := lo; i < hi; i++ {
			kvs = append(kvs, bmeh.KV{Key: netKey(i), Value: uint64(i)})
		}
		if _, err := ix.InsertBatch(kvs); err != nil {
			return nil, err
		}
	}

	srv := server.New(ix, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { <-serveDone }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()

	rep := &NetReport{
		Keys:           n,
		Clients:        netClients,
		Depth:          netDepth,
		WindowMS:       window.Milliseconds(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Backend:        "file",
		KernelPageSize: os.Getpagesize(),
	}
	fmt.Fprintf(w, "network serving benchmark (N=%d, %d clients × depth %d, window=%v)\n",
		n, netClients, netDepth, window)

	clients := make([]*client.Client, netClients)
	for i := range clients {
		cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	// fanOut runs fn on every client concurrently and sums completions.
	fanOut := func(fn func(c int, cl *client.Client) (int64, error)) (int64, error) {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			total int64
			first error
		)
		for c, cl := range clients {
			wg.Add(1)
			go func(c int, cl *client.Client) {
				defer wg.Done()
				done, err := fn(c, cl)
				mu.Lock()
				total += done
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
			}(c, cl)
		}
		wg.Wait()
		return total, first
	}

	// Pipelined GETs.
	progress("net: pipelined GET...\n")
	start := time.Now()
	deadline := start.Add(window)
	got, err := fanOut(func(c int, cl *client.Client) (int64, error) {
		return pump(cl, netDepth, deadline, func(seq int) *client.Call {
			return cl.GetAsync(netKey((c*1000003 + seq*7919) % n))
		})
	})
	if err != nil {
		return nil, err
	}
	rep.GetOpsPerSec = float64(got) / time.Since(start).Seconds()

	// Unpipelined single-PUT: one client, synchronous, fresh keys.
	progress("net: unpipelined PUT...\n")
	base := n + 1
	start = time.Now()
	deadline = start.Add(window)
	var single int64
	for i := 0; time.Now().Before(deadline); i++ {
		if err := clients[0].Put(bmeh.Key{uint64(base + i), uint64(0xFFFFFFFF)}, uint64(i)); err != nil {
			return nil, err
		}
		single++
	}
	rep.PutSingleOpsPerSec = float64(single) / time.Since(start).Seconds()

	// Pipelined, server-coalesced PUTs: fresh key stripe per client.
	progress("net: pipelined PUT...\n")
	base += 1 << 24
	start = time.Now()
	deadline = start.Add(window)
	put, err := fanOut(func(c int, cl *client.Client) (int64, error) {
		stripe := base + c<<20
		return pump(cl, netDepth, deadline, func(seq int) *client.Call {
			return cl.PutAsync(bmeh.Key{uint64(stripe + seq), uint64(0xFFFFFFFE)}, uint64(seq))
		})
	})
	if err != nil {
		return nil, err
	}
	rep.PutPipelinedOpsPerSec = float64(put) / time.Since(start).Seconds()
	if rep.PutSingleOpsPerSec > 0 {
		rep.PutSpeedup = rep.PutPipelinedOpsPerSec / rep.PutSingleOpsPerSec
	}

	fmt.Fprintf(w, "%-22s %14s\n", "workload", "ops/sec")
	fmt.Fprintf(w, "%-22s %14.0f\n", "get (pipelined)", rep.GetOpsPerSec)
	fmt.Fprintf(w, "%-22s %14.0f\n", "put (single, sync)", rep.PutSingleOpsPerSec)
	fmt.Fprintf(w, "%-22s %14.0f   (%.1fx single)\n", "put (pipelined)", rep.PutPipelinedOpsPerSec, rep.PutSpeedup)
	return rep, nil
}

func writeNetJSON(path string, rep *NetReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
