package main

// The -bulkload mode measures the bottom-up bulk builder against the
// incremental write path on the file backend: one timed InsertBatch run
// (1024-record batches, the PR 2 ingest baseline) and one timed BulkLoad
// per worker count, all at the same record count on the same machine, so
// the speedup column divides like-for-like. -json records the sweep
// (conventionally BENCH_bulkload.json at the repo root) together with
// the recorded 4811 ns/record reference figure from BENCH_hotpath.json,
// so cross-machine readers can see both the local ratio and the
// historical baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bmeh"
)

// refBatchNsPerRec is the file-backed InsertBatch per-record figure
// recorded in BENCH_hotpath.json ("after", FileInsert per record) — the
// fixed reference point the bulk loader is asked to beat by ≥10×
// machine-to-machine comparisons aside.
const refBatchNsPerRec = 4811.0

var bulkWorkerSweep = []int{1, 2, 4}

// BulkloadResult is one timed run.
type BulkloadResult struct {
	Mode      string  `json:"mode"`    // "insert_batch" or "bulk_load"
	Workers   int     `json:"workers"` // 0 for insert_batch
	Records   int     `json:"records"`
	ElapsedMS float64 `json:"elapsed_ms"`
	NsPerRec  float64 `json:"ns_per_record"`
	// SpeedupVsBatch divides the same-machine insert_batch ns/record by
	// this run's (1.0 for the baseline itself).
	SpeedupVsBatch float64 `json:"speedup_vs_batch"`
	SpillRuns      int     `json:"spill_runs,omitempty"`
	Levels         int     `json:"levels,omitempty"`
}

// BulkloadReport is the full comparison as written by -json.
type BulkloadReport struct {
	Records       int     `json:"records"`
	BatchSize     int     `json:"insert_batch_size"`
	BatchNsPerRec float64 `json:"insert_batch_ns_per_record"`
	BestBulkNsNs  float64 `json:"best_bulk_ns_per_record"`
	BestSpeedup   float64 `json:"best_speedup_vs_batch"`
	ReferenceNs   float64 `json:"reference_batch_ns_per_record"`
	SpeedupVsRef  float64 `json:"best_speedup_vs_reference"`
	PageCapacity  int     `json:"page_capacity"`
	NumCPU        int     `json:"num_cpu"`
	// SingleCPU flags runs on a one-core machine, where worker counts
	// above 1 time-slice a single core and the worker sweep says nothing
	// about parallel scaling.
	SingleCPU      bool             `json:"single_cpu"`
	GoMaxProcs     int              `json:"gomaxprocs"`
	GoVersion      string           `json:"go_version"`
	Backend        string           `json:"backend"`
	KernelPageSize int              `json:"kernel_page_size"`
	Results        []BulkloadResult `json:"results"`
}

func newBulkBenchIndex(dir string, name string) (*bmeh.Index, error) {
	return bmeh.Create(filepath.Join(dir, name), bmeh.Options{Dims: 2, PageCapacity: 32})
}

// runBulkload executes the comparison, prints a table to w, and returns
// the report for optional -json serialization.
func runBulkload(w io.Writer, n int, progress func(string, ...interface{})) (*BulkloadReport, error) {
	dir, err := os.MkdirTemp("", "bmeh-bulkload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	const batchSize = 1024
	rep := &BulkloadReport{
		Records:        n,
		BatchSize:      batchSize,
		ReferenceNs:    refBatchNsPerRec,
		PageCapacity:   32,
		NumCPU:         runtime.NumCPU(),
		SingleCPU:      runtime.NumCPU() == 1,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Backend:        "file",
		KernelPageSize: os.Getpagesize(),
	}

	// Baseline: the incremental path, 1024-record group-committed batches.
	progress("bulkload: insert_batch baseline (N=%d)...\n", n)
	ix, err := newBulkBenchIndex(dir, "batch.bmeh")
	if err != nil {
		return nil, err
	}
	batch := make([]bmeh.KV, 0, batchSize)
	start := time.Now()
	for i := 1; i <= n; i++ {
		v := uint64(i)
		batch = append(batch, bmeh.KV{Key: concKey(v), Value: v})
		if len(batch) == batchSize || i == n {
			if _, err := ix.InsertBatch(batch); err != nil {
				ix.Close()
				return nil, err
			}
			batch = batch[:0]
		}
	}
	batchElapsed := time.Since(start)
	if err := ix.Close(); err != nil {
		return nil, err
	}
	rep.BatchNsPerRec = float64(batchElapsed.Nanoseconds()) / float64(n)
	rep.Results = append(rep.Results, BulkloadResult{
		Mode:           "insert_batch",
		Records:        n,
		ElapsedMS:      float64(batchElapsed.Microseconds()) / 1e3,
		NsPerRec:       rep.BatchNsPerRec,
		SpeedupVsBatch: 1,
	})

	// The bulk builder, swept over worker counts.
	for _, workers := range bulkWorkerSweep {
		progress("bulkload: bulk_load workers=%d (N=%d)...\n", workers, n)
		ix, err := newBulkBenchIndex(dir, fmt.Sprintf("bulk%d.bmeh", workers))
		if err != nil {
			return nil, err
		}
		i := uint64(0)
		nn := uint64(n)
		start := time.Now()
		st, err := ix.BulkLoad(func() (bmeh.KV, bool, error) {
			if i >= nn {
				return bmeh.KV{}, false, nil
			}
			i++
			return bmeh.KV{Key: concKey(i), Value: i}, true, nil
		}, bmeh.BulkOptions{Workers: workers})
		elapsed := time.Since(start)
		if err != nil {
			ix.Close()
			return nil, err
		}
		if err := ix.Close(); err != nil {
			return nil, err
		}
		if st.Loaded != int64(n) {
			return nil, fmt.Errorf("bulk_load workers=%d: loaded %d of %d", workers, st.Loaded, n)
		}
		r := BulkloadResult{
			Mode:      "bulk_load",
			Workers:   workers,
			Records:   n,
			ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
			NsPerRec:  float64(elapsed.Nanoseconds()) / float64(n),
			SpillRuns: st.SpillRuns,
			Levels:    st.Levels,
		}
		r.SpeedupVsBatch = rep.BatchNsPerRec / r.NsPerRec
		rep.Results = append(rep.Results, r)
		if rep.BestBulkNsNs == 0 || r.NsPerRec < rep.BestBulkNsNs {
			rep.BestBulkNsNs = r.NsPerRec
		}
	}
	rep.BestSpeedup = rep.BatchNsPerRec / rep.BestBulkNsNs
	rep.SpeedupVsRef = refBatchNsPerRec / rep.BestBulkNsNs

	fmt.Fprintf(w, "bulk load vs incremental batch (N=%d, file backend, NumCPU=%d)\n", n, rep.NumCPU)
	if rep.SingleCPU {
		fmt.Fprintf(w, "NOTE: single-core machine — worker counts > 1 time-slice one core,\n")
		fmt.Fprintf(w, "so the worker sweep does not measure parallel scaling.\n")
	}
	fmt.Fprintf(w, "%-13s %8s %12s %12s %10s\n", "mode", "workers", "ms", "ns/record", "speedup")
	for _, r := range rep.Results {
		workers := "-"
		if r.Workers > 0 {
			workers = fmt.Sprint(r.Workers)
		}
		fmt.Fprintf(w, "%-13s %8s %12.1f %12.0f %9.2fx\n",
			r.Mode, workers, r.ElapsedMS, r.NsPerRec, r.SpeedupVsBatch)
	}
	fmt.Fprintf(w, "reference: recorded insert_batch baseline %.0f ns/record → best bulk %.2fx\n",
		refBatchNsPerRec, rep.SpeedupVsRef)
	return rep, nil
}

func writeBulkloadJSON(path string, rep *BulkloadReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
