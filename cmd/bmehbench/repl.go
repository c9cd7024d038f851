package main

// The -repl mode measures the replication subsystem end to end over
// loopback TCP:
//
//   - catchup_keys_per_sec: a primary is preloaded with N keys; a fresh
//     replica subscribes, receives the seeding snapshot, and the rate is
//     keys over the time until its applied sequence matches the
//     primary's.
//   - availability: while GETs stream against the cluster client
//     (primary + replica), the primary is stopped and restarted. Reads
//     fail over to the replica, so get_errors should be zero even
//     though the primary spends downtime_ms unreachable.
//
// The report is the BENCH_repl.json schema.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/repl"
	"bmeh/internal/server"
)

// ReplReport is the BENCH_repl.json schema.
type ReplReport struct {
	Keys           int    `json:"keys"`
	WindowMS       int64  `json:"window_ms"`
	NumCPU         int    `json:"num_cpu"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Backend        string `json:"backend"`
	KernelPageSize int    `json:"kernel_page_size"`

	CatchupSeconds    float64 `json:"catchup_seconds"`
	CatchupKeysPerSec float64 `json:"catchup_keys_per_sec"`

	GetsTotal    int64   `json:"gets_total"`
	GetErrors    int64   `json:"get_errors"`
	Availability float64 `json:"availability"`
	DowntimeMS   int64   `json:"primary_downtime_ms"`
}

// runRepl stands up a primary with n keys, seeds a replica from it,
// then restarts the primary under a streaming GET load on the cluster
// client.
func runRepl(w io.Writer, n int, window time.Duration, progress func(string, ...interface{})) (*ReplReport, error) {
	dir, err := os.MkdirTemp("", "bmehrepl")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ix, err := bmeh.Create(filepath.Join(dir, "primary.bmeh"), bmeh.Options{
		Dims:         2,
		PageCapacity: 32,
		SyncPolicy:   bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 256},
	})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	progress("repl: preloading %d keys...\n", n)
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

	hub := repl.NewHub(ix, repl.HubOptions{})
	defer hub.Close()
	if err := ix.SetReplPublisher(hub.Publish); err != nil {
		return nil, err
	}
	defer ix.SetReplPublisher(nil)

	startPrimary := func(addr string) (*server.Server, net.Listener, chan error, error) {
		srv := server.New(ix, server.Config{Hub: hub})
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, nil, nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, ln, done, nil
	}
	stopPrimary := func(srv *server.Server, done chan error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}

	srv, ln, done, err := startPrimary("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	primaryAddr := ln.Addr().String()

	rep := &ReplReport{
		Keys:           n,
		WindowMS:       window.Milliseconds(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Backend:        "file",
		KernelPageSize: os.Getpagesize(),
	}
	fmt.Fprintf(w, "replication benchmark (N=%d, window=%v)\n", n, window)

	// Catch-up: a brand-new replica seeds itself by snapshot.
	progress("repl: replica catch-up...\n")
	target, err := bmeh.NewReplicaTarget(filepath.Join(dir, "replica.bmeh"))
	if err != nil {
		stopPrimary(srv, done)
		return nil, err
	}
	defer target.Close()
	follower := repl.NewReplica(target, primaryAddr, repl.ReplicaOptions{})
	catchStart := time.Now()
	follower.Start()
	defer follower.Close()
	if !follower.AwaitSeq(ix.ReplCommitSeq(), 120*time.Second) {
		stopPrimary(srv, done)
		return nil, fmt.Errorf("replica did not catch up to seq %d", ix.ReplCommitSeq())
	}
	rep.CatchupSeconds = time.Since(catchStart).Seconds()
	rep.CatchupKeysPerSec = float64(n) / rep.CatchupSeconds

	// Serve reads from the replica.
	rsrv := server.New(target.Index(), server.Config{
		ReadOnly: true,
		ReplicaStatus: func() (uint64, uint64, bool) {
			st := follower.Status()
			return st.PrimarySeq, st.AppliedSeq, st.Connected
		},
	})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopPrimary(srv, done)
		return nil, err
	}
	rdone := make(chan error, 1)
	go func() { rdone <- rsrv.Serve(rln) }()
	defer func() { <-rdone }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rsrv.Shutdown(ctx)
	}()

	// GET availability across a primary restart: the cluster client
	// routes reads to the replica, so the restart should be invisible.
	progress("repl: GETs across primary restart...\n")
	cl, err := client.DialCluster(primaryAddr, []string{rln.Addr().String()}, client.Options{
		PoolSize:       2,
		Retries:        5,
		RequestTimeout: 10 * time.Second,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		stopPrimary(srv, done)
		return nil, err
	}
	defer cl.Close()

	var gets, errs atomic.Int64
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, ok, err := cl.Get(netKey(i % n))
			gets.Add(1)
			if err != nil || !ok {
				errs.Add(1)
			}
		}
	}()

	time.Sleep(window / 2) // steady state before the restart
	downStart := time.Now()
	stopPrimary(srv, done)
	time.Sleep(window / 2) // primary dark
	srv, _, done, err = startPrimary(primaryAddr)
	if err != nil {
		close(stop)
		<-loadDone
		return nil, err
	}
	rep.DowntimeMS = time.Since(downStart).Milliseconds()
	time.Sleep(window / 2) // steady state after the restart
	close(stop)
	<-loadDone
	stopPrimary(srv, done)

	rep.GetsTotal = gets.Load()
	rep.GetErrors = errs.Load()
	if rep.GetsTotal > 0 {
		rep.Availability = 1 - float64(rep.GetErrors)/float64(rep.GetsTotal)
	}

	fmt.Fprintf(w, "%-28s %14.0f keys/sec (%.2fs)\n", "replica catch-up", rep.CatchupKeysPerSec, rep.CatchupSeconds)
	fmt.Fprintf(w, "%-28s %14d gets, %d error(s), availability %.4f\n",
		"GETs across primary restart", rep.GetsTotal, rep.GetErrors, rep.Availability)
	fmt.Fprintf(w, "%-28s %14dms\n", "primary downtime", rep.DowntimeMS)
	return rep, nil
}

func writeReplJSON(path string, rep *ReplReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
