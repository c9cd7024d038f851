package main

// The -mvcc mode measures what the COW write mode buys readers: for each
// write mode (latched / cow) it runs a saturating writer — a rolling
// insert/delete churn — and measures reader throughput beside it, for
// point gets and for box range scans. Under WriteModeCOW the range
// readers run against pinned snapshots (one pin per scan, so the pin
// cost is inside the measurement) and verify snapshot consistency as
// they go: a periodic full-box scan must see exactly Len-at-pin records.
// -json records the sweep to a file, conventionally BENCH_mvcc.json at
// the repo root; checkbench gates CI on its structural fields.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
)

// mvccReaders is the reader goroutine count per cell; the writer is one
// more goroutine on top.
const mvccReaders = 4

// MVCCResult is one (mode, workload) cell of the sweep.
type MVCCResult struct {
	Mode     string `json:"mode"`     // "latched" or "cow"
	Workload string `json:"workload"` // "get" or "range"
	Readers  int    `json:"readers"`
	// ReaderOps counts completed reader operations (one Get, or one box
	// scan) across all reader goroutines.
	ReaderOps       uint64  `json:"reader_ops"`
	ReaderOpsPerSec float64 `json:"reader_ops_per_sec"`
	ReaderNsPerOp   float64 `json:"reader_ns_per_op"`
	// WriterOpsPerSec is the churn rate the saturating writer sustained
	// beside the readers (inserts + deletes per second).
	WriterOpsPerSec float64 `json:"writer_ops_per_sec"`
	// SnapshotConsistent reports whether every consistency probe during
	// the run saw exactly the pinned epoch's records. Verified (and so
	// meaningful) only for cow/range cells; false elsewhere — the latched
	// read path makes no such promise.
	SnapshotConsistent bool `json:"snapshot_consistent"`
}

// MVCCModeStats captures a mode's MVCC counters after its cells finish
// and every snapshot is closed: both must drain to zero or the epoch
// reclamation leaked.
type MVCCModeStats struct {
	Mode             string `json:"mode"`
	Epoch            uint64 `json:"epoch"`
	PinnedEpochs     int    `json:"pinned_epochs"`
	ReclaimablePages int    `json:"reclaimable_pages"`
}

// MVCCReport is the full sweep as written by -json.
type MVCCReport struct {
	Keys     int   `json:"keys"`
	WindowMS int64 `json:"window_ms_per_run"`
	NumCPU   int   `json:"num_cpu"`
	// SingleCPU flags sweeps run on a one-core machine: reader and writer
	// goroutines time-slice one core, so cross-mode throughput ratios
	// measure scheduling, not concurrency.
	SingleCPU  bool            `json:"single_cpu"`
	GoMaxProcs int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Results    []MVCCResult    `json:"results"`
	ModeStats  []MVCCModeStats `json:"mode_stats"`
}

// mvccBox returns a query box whose expected selectivity is ~frac of a
// cmix64-uniform keyspace: per-dimension width sqrt(frac) of the 32-bit
// axis, anchored pseudo-randomly by i.
func mvccBox(i uint64, frac float64) (lo, hi bmeh.Key) {
	const axis = 1 << 32
	w := uint64(math.Sqrt(frac) * axis)
	a, b := cmix64(i), cmix64(i+0x9e3779b9)
	lo = bmeh.Key{a % (axis - w), b % (axis - w)}
	hi = bmeh.Key{lo[0] + w, lo[1] + w}
	return lo, hi
}

// runMVCC executes the sweep, prints a table to w, and returns the report
// for optional -json serialization.
func runMVCC(w io.Writer, n int, window time.Duration, progress func(string, ...interface{})) (*MVCCReport, error) {
	rep := &MVCCReport{
		Keys:       n,
		WindowMS:   window.Milliseconds(),
		NumCPU:     runtime.NumCPU(),
		SingleCPU:  runtime.NumCPU() == 1,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	fmt.Fprintf(w, "mvcc sweep (N=%d, window=%v, %d readers + 1 writer, NumCPU=%d)\n",
		n, window, mvccReaders, rep.NumCPU)
	if rep.SingleCPU {
		fmt.Fprintf(w, "NOTE: single-core machine — readers and writer time-slice one core,\n")
		fmt.Fprintf(w, "so cross-mode throughput ratios measure scheduling, not concurrency.\n")
	}
	fmt.Fprintf(w, "%-8s %-8s %14s %12s %14s %12s\n",
		"mode", "workload", "reader ops/s", "ns/op", "writer ops/s", "consistent")

	for _, mode := range []bmeh.WriteMode{bmeh.WriteModeLatched, bmeh.WriteModeCOW} {
		for _, workload := range []string{"get", "range"} {
			progress("mvcc: %v %s...\n", mode, workload)
			r, err := runMVCCCell(mode, workload, n, window)
			if err != nil {
				return nil, fmt.Errorf("%v/%s: %w", mode, workload, err)
			}
			rep.Results = append(rep.Results, *r)
			fmt.Fprintf(w, "%-8s %-8s %14.0f %12.0f %14.0f %12v\n",
				r.Mode, r.Workload, r.ReaderOpsPerSec, r.ReaderNsPerOp, r.WriterOpsPerSec, r.SnapshotConsistent)
		}
		// A fresh index per cell means per-mode counters must be sampled
		// from a dedicated run; reuse the get cell's shape with no window.
		ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 32, WriteMode: mode})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := ix.Insert(concKey(uint64(i)), uint64(i)); err != nil {
				ix.Close()
				return nil, err
			}
		}
		st := ix.SnapshotStats()
		rep.ModeStats = append(rep.ModeStats, MVCCModeStats{
			Mode:             mode.String(),
			Epoch:            st.Epoch,
			PinnedEpochs:     st.PinnedEpochs,
			ReclaimablePages: st.ReclaimablePages,
		})
		ix.Close()
	}
	return rep, nil
}

// runMVCCCell measures one (mode, workload) combination on a fresh
// in-memory index preloaded with n keys.
func runMVCCCell(mode bmeh.WriteMode, workload string, n int, window time.Duration) (*MVCCResult, error) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 32, WriteMode: mode})
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	for i := 0; i < n; i++ {
		if err := ix.Insert(concKey(uint64(i)), uint64(i)); err != nil {
			return nil, err
		}
	}

	var (
		stop       atomic.Bool
		readerOps  atomic.Uint64
		writerOps  atomic.Uint64
		consistent atomic.Bool
		errOnce    sync.Once
		runErr     error
		wg         sync.WaitGroup
	)
	consistent.Store(true)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		stop.Store(true)
	}

	// Saturating writer: churn the top half of the keyspace so the
	// preloaded bottom half stays resident for point readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, alive := uint64(n), false; !stop.Load(); {
			k := concKey(i)
			if alive {
				if _, err := ix.Delete(k); err != nil {
					fail(fmt.Errorf("writer delete: %w", err))
					return
				}
				i = uint64(n) + (i+1-uint64(n))%uint64(n)
			} else if err := ix.Insert(k, i); err != nil {
				fail(fmt.Errorf("writer insert: %w", err))
				return
			}
			alive = !alive
			writerOps.Add(1)
		}
	}()

	for r := 0; r < mvccReaders; r++ {
		wg.Add(1)
		go func(worker uint64) {
			defer wg.Done()
			var done uint64
			defer func() { readerOps.Add(done) }()
			for i := cmix64(worker); !stop.Load(); i++ {
				switch {
				case workload == "get":
					// Live point reads in both modes: the latched path
					// contends with the writer's latches, the COW path
					// only with its commit pointer.
					if _, _, err := ix.Get(concKey(cmix64(i) % uint64(n))); err != nil {
						fail(fmt.Errorf("reader get: %w", err))
						return
					}
				case mode == bmeh.WriteModeCOW:
					snap, err := ix.Snapshot()
					if err != nil {
						fail(fmt.Errorf("reader snapshot: %w", err))
						return
					}
					if i%64 == 0 {
						// Consistency probe: a full-box scan of the pinned
						// epoch must see exactly Len-at-pin records.
						want, got := snap.Len(), 0
						err = snap.Range(bmeh.Key{0, 0}, bmeh.Key{math.MaxUint32, math.MaxUint32},
							func(bmeh.Key, uint64) bool { got++; return true })
						if err == nil && got != want {
							consistent.Store(false)
						}
					} else {
						lo, hi := mvccBox(i, 0.005)
						err = snap.Range(lo, hi, func(bmeh.Key, uint64) bool { return true })
					}
					snap.Close()
					if err != nil {
						fail(fmt.Errorf("reader snapshot range: %w", err))
						return
					}
				default:
					lo, hi := mvccBox(i, 0.005)
					if err := ix.Range(lo, hi, func(bmeh.Key, uint64) bool { return true }); err != nil {
						fail(fmt.Errorf("reader range: %w", err))
						return
					}
				}
				done++
			}
		}(uint64(r))
	}

	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	secs := window.Seconds()
	res := &MVCCResult{
		Mode:            mode.String(),
		Workload:        workload,
		Readers:         mvccReaders,
		ReaderOps:       readerOps.Load(),
		ReaderOpsPerSec: float64(readerOps.Load()) / secs,
		WriterOpsPerSec: float64(writerOps.Load()) / secs,
	}
	if res.ReaderOps > 0 {
		res.ReaderNsPerOp = secs * 1e9 / float64(res.ReaderOps)
	}
	if mode == bmeh.WriteModeCOW && workload == "range" {
		res.SnapshotConsistent = consistent.Load()
	}
	// Leak check: with every snapshot closed and the writer stopped, no
	// epoch may stay pinned and nothing may be left unreclaimed.
	if st := ix.SnapshotStats(); st.PinnedEpochs != 0 || st.ReclaimablePages != 0 {
		return nil, fmt.Errorf("after run: %d pinned epochs, %d reclaimable pages (leak)",
			st.PinnedEpochs, st.ReclaimablePages)
	}
	return res, nil
}

func writeMVCCJSON(path string, rep *MVCCReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
