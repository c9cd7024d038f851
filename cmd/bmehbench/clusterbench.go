package main

// The -cluster mode measures the sharded tier end to end: an in-process
// loopback cluster (bmeh/internal/cluster/local — real wire servers,
// real TCP, one file-backed COW index per shard) driven through the
// cluster-aware router.
//
//   - scaling: aggregate routed GET and PUT ops/sec at 1, 2 and 4
//     shards over the same preloaded keyspace. On a multi-core host the
//     4-shard GET rate should beat 1-shard materially (independent
//     indexes, independent latches); on a single-CPU host the ratio is
//     recorded honestly and BENCH_cluster.json says single_cpu so the
//     CI gate knows not to demand parallel speedup.
//   - availability: a 1-shard cluster is split online (median boundary,
//     replica seed + catch-up, fence, epoch flip) while GETs stream
//     through the router. get_errors must be zero: the split's only
//     client-visible cost is retry latency.
//
// The report is the BENCH_cluster.json schema, gated by
// checkbench -cluster.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster/local"
)

// ClusterShardResult is one row of the scaling sweep.
type ClusterShardResult struct {
	Shards       int     `json:"shards"`
	GetOpsPerSec float64 `json:"get_ops_per_sec"`
	PutOpsPerSec float64 `json:"put_ops_per_sec"`
}

// ClusterReport is the BENCH_cluster.json schema.
type ClusterReport struct {
	Keys       int    `json:"keys"`
	WindowMS   int64  `json:"window_ms"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SingleCPU  bool   `json:"single_cpu"`

	Results []ClusterShardResult `json:"results"`
	// GetScaling4x is get_ops_per_sec at 4 shards over 1 shard.
	GetScaling4x float64 `json:"get_scaling_4x_over_1x"`

	SplitGetsTotal    int64   `json:"split_gets_total"`
	SplitGetErrors    int64   `json:"split_get_errors"`
	SplitAvailability float64 `json:"split_availability"`
	SplitSeconds      float64 `json:"split_seconds"`
	SplitShardsAfter  int     `json:"split_shards_after"`
}

// clusterKey deals the i-th key of a deterministic sequence spread
// across the whole 2-d Morton space, so every shard of every sweep
// configuration owns a fair share.
func clusterKeys(n int) []bmeh.Key {
	keys := make([]bmeh.Key, n)
	rnd := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		keys[i] = bmeh.Key{rnd & 0xffffffff, (rnd >> 32) & 0xffffffff}
	}
	return keys
}

// clusterRouterOptions tunes the per-shard clients for a bench run.
func clusterRouterOptions() client.Options {
	return client.Options{
		PoolSize:       2,
		Retries:        5,
		RequestTimeout: 10 * time.Second,
		RedialBackoff:  20 * time.Millisecond,
		HealthInterval: 100 * time.Millisecond,
	}
}

// startBenchCluster launches a cluster, dials a router on it, and
// preloads keys through routed batches.
func startBenchCluster(shards int, keys []bmeh.Key) (*local.Cluster, *client.Router, error) {
	dir, err := os.MkdirTemp("", "bmehcluster")
	if err != nil {
		return nil, nil, err
	}
	c, err := local.Start(dir, local.Options{Shards: shards, Capacity: 32})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	r, err := client.DialRouter(c.Seeds(), clusterRouterOptions())
	if err != nil {
		c.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	const chunk = 2048
	for lo := 0; lo < len(keys); lo += chunk {
		hi := lo + chunk
		if hi > len(keys) {
			hi = len(keys)
		}
		kvs := make([]bmeh.KV, 0, hi-lo)
		for i := lo; i < hi; i++ {
			kvs = append(kvs, bmeh.KV{Key: keys[i], Value: uint64(i)})
		}
		if _, err := r.Batch(kvs); err != nil {
			r.Close()
			c.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
	}
	return c, r, nil
}

// measureOps runs workers hammering op until window elapses and returns
// aggregate ops/sec. The first error aborts the measurement.
func measureOps(workers int, window time.Duration, op func(worker, seq int) error) (float64, error) {
	var ops atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(w, i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err, ok := firstErr.Load().(error); ok {
		return 0, err
	}
	return float64(ops.Load()) / elapsed, nil
}

// runCluster sweeps shard counts 1/2/4 and then measures availability
// through an online split.
func runCluster(w io.Writer, n int, window time.Duration, progress func(string, ...interface{})) (*ClusterReport, error) {
	// One deterministic key stream: the first n keys are the preload /
	// GET working set, the tail feeds the PUT measurement with keys that
	// are fresh (Insert semantics — a re-Put would be ErrDuplicate).
	const putPool = 1 << 21
	stream := clusterKeys(n + putPool)
	keys, fresh := stream[:n], stream[n:]
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers > 16 {
		workers = 16
	}
	if workers < 4 {
		workers = 4
	}
	rep := &ClusterReport{
		Keys:       n,
		WindowMS:   window.Milliseconds(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SingleCPU:  runtime.NumCPU() == 1,
	}
	fmt.Fprintf(w, "cluster benchmark (N=%d, window=%v, %d workers)\n", n, window, workers)

	for _, shards := range []int{1, 2, 4} {
		progress("cluster: %d shard(s)...\n", shards)
		c, r, err := startBenchCluster(shards, keys)
		if err != nil {
			return nil, err
		}
		getRate, err := measureOps(workers, window, func(worker, seq int) error {
			k := keys[(worker*7919+seq)%len(keys)]
			_, ok, err := r.Get(k)
			if err == nil && !ok {
				return fmt.Errorf("%d shards: preloaded key missing", shards)
			}
			return err
		})
		if err == nil {
			var putRate float64
			putRate, err = measureOps(workers, window, func(worker, seq int) error {
				i := (seq*workers + worker) % len(fresh)
				err := r.Put(fresh[i], uint64(i))
				if errors.Is(err, bmeh.ErrDuplicate) {
					return nil // pool wrapped; the round-trip still counts
				}
				return err
			})
			rep.Results = append(rep.Results, ClusterShardResult{
				Shards: shards, GetOpsPerSec: getRate, PutOpsPerSec: putRate,
			})
			fmt.Fprintf(w, "%-28s %14.0f gets/sec %14.0f puts/sec\n",
				fmt.Sprintf("%d shard(s)", shards), getRate, putRate)
		}
		r.Close()
		c.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(rep.Results) == 3 && rep.Results[0].GetOpsPerSec > 0 {
		rep.GetScaling4x = rep.Results[2].GetOpsPerSec / rep.Results[0].GetOpsPerSec
		fmt.Fprintf(w, "%-28s %14.2fx (num_cpu=%d)\n", "GET scaling 4x/1x", rep.GetScaling4x, rep.NumCPU)
	}

	// Availability through an online hot-shard split.
	progress("cluster: GETs across an online split...\n")
	c, r, err := startBenchCluster(1, keys)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	defer r.Close()
	var gets, errs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				v, ok, err := r.Get(k)
				gets.Add(1)
				if err != nil || !ok || v != uint64(i%len(keys)) {
					errs.Add(1)
				}
			}
		}(w * 31)
	}
	splitStart := time.Now()
	splitErr := c.Split(0)
	rep.SplitSeconds = time.Since(splitStart).Seconds()
	time.Sleep(window / 2) // keep reading through the post-flip window
	close(stop)
	wg.Wait()
	if splitErr != nil {
		return nil, fmt.Errorf("cluster: split: %w", splitErr)
	}
	rep.SplitGetsTotal = gets.Load()
	rep.SplitGetErrors = errs.Load()
	if rep.SplitGetsTotal > 0 {
		rep.SplitAvailability = 1 - float64(rep.SplitGetErrors)/float64(rep.SplitGetsTotal)
	}
	rep.SplitShardsAfter = c.Shards()
	fmt.Fprintf(w, "%-28s %14d gets, %d error(s), availability %.4f\n",
		"GETs across online split", rep.SplitGetsTotal, rep.SplitGetErrors, rep.SplitAvailability)
	fmt.Fprintf(w, "%-28s %14.2fs, %d shard(s) after\n", "split duration", rep.SplitSeconds, rep.SplitShardsAfter)
	return rep, nil
}

func writeClusterJSON(path string, rep *ClusterReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
