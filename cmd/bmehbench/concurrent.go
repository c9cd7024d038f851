package main

// The -concurrent mode measures the scalable read path outside the
// testing-package harness: for each workload (get / insert / mixed) and
// each goroutine count it runs a fixed wall-clock window against an
// in-memory index and reports ops/sec, ns/op and the speedup relative to
// the single-goroutine run. -json
// records the sweep (plus GOMAXPROCS / NumCPU, so results from
// single-core machines are legible as such) to a file, conventionally
// BENCH_concurrent.json at the repo root.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
)

var concGoroutines = []int{1, 4, 16}

// cmix64 is splitmix64's finalizer, used to spread sequential indices over
// the key space (mirrors the bench_concurrent_test.go workload).
func cmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func concKey(i uint64) bmeh.Key {
	h := cmix64(i)
	return bmeh.Key{h & 0xffffffff, h >> 32}
}

// ConcurrentResult is one (workload, goroutines) cell of the sweep.
type ConcurrentResult struct {
	Workload   string  `json:"workload"`
	Goroutines int     `json:"goroutines"`
	Ops        uint64  `json:"ops"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// ConcurrentReport is the full sweep as written by -json.
type ConcurrentReport struct {
	Keys     int   `json:"keys"`
	WindowMS int64 `json:"window_ms_per_run"`
	NumCPU   int   `json:"num_cpu"`
	// SingleCPU flags sweeps run on a one-core machine, where goroutine
	// counts above 1 only time-slice a single core and speedup_vs_1 says
	// nothing about scalability.
	SingleCPU      bool               `json:"single_cpu"`
	GoMaxProcs     int                `json:"gomaxprocs"`
	GoVersion      string             `json:"go_version"`
	Backend        string             `json:"backend"`
	KernelPageSize int                `json:"kernel_page_size"`
	Results        []ConcurrentResult `json:"results"`
}

func newConcIndex(n int) (*bmeh.Index, error) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 32})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := ix.Insert(concKey(uint64(i)), uint64(i)); err != nil {
			ix.Close()
			return nil, err
		}
	}
	// Touch every key once so the measurement window starts warm.
	for i := 0; i < n; i++ {
		if _, ok, err := ix.Get(concKey(uint64(i))); err != nil || !ok {
			ix.Close()
			return nil, fmt.Errorf("warmup key %d: ok=%v err=%v", i, ok, err)
		}
	}
	return ix, nil
}

// runConcWindow runs body on g goroutines for the window and returns total
// ops completed. GOMAXPROCS is pinned to g so the count is exact even when
// g exceeds the machine's cores.
func runConcWindow(g int, window time.Duration, body func(worker uint64, i uint64) error) (uint64, error) {
	prev := runtime.GOMAXPROCS(g)
	defer runtime.GOMAXPROCS(prev)
	var (
		stop atomic.Bool
		ops  atomic.Uint64
		wg   sync.WaitGroup
		errc = make(chan error, g)
	)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			var done uint64
			for i := cmix64(w); !stop.Load(); i++ {
				if err := body(w, i); err != nil {
					errc <- err
					break
				}
				done++
			}
			ops.Add(done)
		}(uint64(w))
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return ops.Load(), nil
}

// runConcurrent executes the sweep, prints a table to w, and returns the
// report for optional -json serialization.
func runConcurrent(w io.Writer, n int, window time.Duration, progress func(string, ...interface{})) (*ConcurrentReport, error) {
	rep := &ConcurrentReport{
		Keys:           n,
		WindowMS:       window.Milliseconds(),
		NumCPU:         runtime.NumCPU(),
		SingleCPU:      runtime.NumCPU() == 1,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Backend:        "memory",
		KernelPageSize: os.Getpagesize(),
	}
	fmt.Fprintf(w, "concurrent sweep (N=%d, window=%v, NumCPU=%d)\n", n, window, rep.NumCPU)
	if rep.SingleCPU {
		fmt.Fprintf(w, "NOTE: single-core machine — goroutine counts > 1 time-slice one core,\n")
		fmt.Fprintf(w, "so the speedup column is omitted (it would not measure scalability).\n")
		fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "workload", "goroutines", "ops/sec", "ns/op")
	} else {
		fmt.Fprintf(w, "%-8s %12s %12s %12s %10s\n", "workload", "goroutines", "ops/sec", "ns/op", "speedup")
	}

	for _, workload := range []string{"get", "insert", "mixed"} {
		var base float64
		for _, g := range concGoroutines {
			var (
				ops uint64
				err error
			)
			progress("concurrent: %s goroutines=%d...\n", workload, g)
			switch workload {
			case "get":
				ix, e := newConcIndex(n)
				if e != nil {
					return nil, e
				}
				ops, err = runConcWindow(g, window, func(worker, i uint64) error {
					k := concKey(cmix64(i) % uint64(n))
					_, ok, e := ix.Get(k)
					if e != nil {
						return e
					}
					if !ok {
						return fmt.Errorf("get: key missing")
					}
					return nil
				})
				ix.Close()
			case "insert":
				ix, e := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 32})
				if e != nil {
					return nil, e
				}
				var seq atomic.Uint64
				ops, err = runConcWindow(g, window, func(_, _ uint64) error {
					v := seq.Add(1)
					return ix.Insert(concKey(v), v)
				})
				ix.Close()
			case "mixed":
				ix, e := newConcIndex(n)
				if e != nil {
					return nil, e
				}
				var seq atomic.Uint64
				seq.Store(uint64(n))
				ops, err = runConcWindow(g, window, func(worker, i uint64) error {
					if i%10 == 0 {
						v := seq.Add(1)
						return ix.Insert(concKey(v), v)
					}
					_, _, e := ix.Get(concKey(cmix64(i) % uint64(n)))
					return e
				})
				ix.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("%s at %d goroutines: %w", workload, g, err)
			}
			secs := window.Seconds()
			r := ConcurrentResult{
				Workload:   workload,
				Goroutines: g,
				Ops:        ops,
				OpsPerSec:  float64(ops) / secs,
			}
			if ops > 0 {
				r.NsPerOp = secs * 1e9 / float64(ops)
			}
			if g == 1 {
				base = r.OpsPerSec
			}
			if base > 0 {
				r.SpeedupVs1 = r.OpsPerSec / base
			}
			rep.Results = append(rep.Results, r)
			if rep.SingleCPU {
				fmt.Fprintf(w, "%-8s %12d %12.0f %12.0f\n",
					r.Workload, r.Goroutines, r.OpsPerSec, r.NsPerOp)
			} else {
				fmt.Fprintf(w, "%-8s %12d %12.0f %12.0f %9.2fx\n",
					r.Workload, r.Goroutines, r.OpsPerSec, r.NsPerOp, r.SpeedupVs1)
			}
		}
	}
	return rep, nil
}

func writeConcurrentJSON(path string, rep *ConcurrentReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
