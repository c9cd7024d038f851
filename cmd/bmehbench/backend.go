package main

// The -backend mode compares the storage engines head to head on one
// machine: the pread backend (BackendFile) against the mmap backend
// (BackendMmap). Both cache page bytes only in the OS page cache; they
// differ in whether a read copies. Four phases:
//
//   - bulk_load: bottom-up build of N records (mmap runs it under
//     MADV_SEQUENTIAL via BulkLoad's built-in hint).
//   - cold_get: point reads on a freshly reopened index — decoded caches
//     empty, every page read is a first touch (madvise RANDOM on mmap).
//   - warm_miss_get: point reads with the decoded caches disabled — the
//     OS page cache is warm, so this isolates the per-read page path:
//     pread copy + decode versus zero-copy slice + decode.
//   - range_scan: a full scan (madvise SEQUENTIAL on mmap), decoded
//     caches still disabled.
//
// The report (conventionally BENCH_mmap.json at the repo root) carries
// the mmap read-path counters so the "zero per-read page copies" claim is
// asserted from measurement, not assumed: zero_copy_ok requires every
// mmap read in the Get phases to have been served as a slice of the
// mapping.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bmeh"
)

// BackendResult is one (backend, phase) timing.
type BackendResult struct {
	Backend   string  `json:"backend"`
	Phase     string  `json:"phase"`
	Advice    string  `json:"advice,omitempty"` // madvise hint active (mmap only)
	Ops       int     `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	NsPerOp   float64 `json:"ns_per_op"`
}

// BackendReport is the BENCH_mmap.json schema.
type BackendReport struct {
	Records        int    `json:"records"`
	GetOps         int    `json:"get_ops_per_phase"`
	PageCapacity   int    `json:"page_capacity"`
	KernelPageSize int    `json:"kernel_page_size"`
	NumCPU         int    `json:"num_cpu"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Backend        string `json:"backend"` // "file+mmap": this report is the comparison

	// MmapSupported is false where OpenMappedFile degraded to pread; the
	// sweep still runs but the mmap column measures the copying fallback.
	MmapSupported bool   `json:"mmap_supported"`
	ZeroCopyReads uint64 `json:"mmap_zero_copy_reads"`
	CopiedReads   uint64 `json:"mmap_copied_reads"`
	StagedReads   uint64 `json:"mmap_staged_reads"`
	// ZeroCopyOK asserts the acceptance property: the mapping was live
	// and no mmap-side read in the measured phases fell back to a copy.
	ZeroCopyOK bool `json:"zero_copy_ok"`

	// The mmap+huge leg re-runs the mmap sweep under MADV_HUGEPAGE with
	// the mapping mlocked. Both are requests the environment may refuse
	// (THP disabled; RLIMIT_MEMLOCK), so the report records what actually
	// held — a leg that ran unlocked is labeled as such, not presented as
	// a huge-page result.
	HugeAdviseOK bool   `json:"huge_advise_ok"`
	MlockOK      bool   `json:"mlock_ok"`
	MlockError   string `json:"mlock_error,omitempty"`

	// SpeedupMmap is file ns/op divided by mmap ns/op, per phase;
	// SpeedupHuge is mmap ns/op divided by mmap+huge ns/op.
	SpeedupMmap map[string]float64 `json:"speedup_mmap_vs_file"`
	SpeedupHuge map[string]float64 `json:"speedup_huge_vs_mmap"`

	Results []BackendResult `json:"results"`
}

// runBackend executes the sweep, prints a table to w, and returns the
// report for optional -json serialization.
func runBackend(w io.Writer, n int, progress func(string, ...interface{})) (*BackendReport, error) {
	dir, err := os.MkdirTemp("", "bmeh-backend-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	getOps := n
	if getOps > 20000 {
		getOps = 20000
	}
	rep := &BackendReport{
		Records:        n,
		GetOps:         getOps,
		PageCapacity:   32,
		KernelPageSize: os.Getpagesize(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Backend:        "file+mmap",
		MmapSupported:  bmeh.MmapAvailable(),
		SpeedupMmap:    map[string]float64{},
		SpeedupHuge:    map[string]float64{},
	}

	// One shuffled probe order shared by every Get phase on both
	// backends, so the comparison reads the same keys in the same order.
	probe := rand.New(rand.NewSource(19860301)).Perm(n)[:getOps]

	timings := map[string]map[string]float64{} // backend → phase → ns/op
	record := func(backend, phase, advice string, ops int, elapsed time.Duration) {
		r := BackendResult{
			Backend:   backend,
			Phase:     phase,
			Advice:    advice,
			Ops:       ops,
			ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
		}
		rep.Results = append(rep.Results, r)
		if timings[backend] == nil {
			timings[backend] = map[string]float64{}
		}
		timings[backend][phase] = r.NsPerOp
	}

	configs := []struct {
		name string
		be   bmeh.Backend
		huge bool // MADV_HUGEPAGE + mlock on top of the mmap backend
	}{
		{"file", bmeh.BackendFile, false},
		{"mmap", bmeh.BackendMmap, false},
		{"mmap+huge", bmeh.BackendMmap, true},
	}
	for _, cfg := range configs {
		name, be := cfg.name, cfg.be
		path := filepath.Join(dir, name+".bmeh")
		// Applied after every (re)open of this leg's index: the huge-page
		// hint survives remapping, but a fresh open is a fresh mapping.
		applyHuge := func(ix *bmeh.Index) {
			if !cfg.huge {
				return
			}
			rep.HugeAdviseOK = ix.Advise(bmeh.AdviseHugePage) == nil
			if err := ix.Mlock(true); err != nil {
				rep.MlockOK = false
				rep.MlockError = err.Error()
			} else {
				rep.MlockOK = true
			}
		}

		// Phase 1: bulk load. (BulkLoad self-advises SEQUENTIAL on mmap.)
		progress("backend %s: bulk_load (N=%d)...\n", name, n)
		ix, err := bmeh.Create(path, bmeh.Options{
			Dims: 2, PageCapacity: 32, Backend: be,
		})
		if err != nil {
			return nil, err
		}
		applyHuge(ix)
		i := uint64(0)
		start := time.Now()
		st, err := ix.BulkLoad(func() (bmeh.KV, bool, error) {
			if i >= uint64(n) {
				return bmeh.KV{}, false, nil
			}
			i++
			return bmeh.KV{Key: concKey(i), Value: i}, true, nil
		}, bmeh.BulkOptions{})
		elapsed := time.Since(start)
		if err != nil {
			ix.Close()
			return nil, err
		}
		if st.Loaded != int64(n) {
			ix.Close()
			return nil, fmt.Errorf("backend %s: loaded %d of %d", name, st.Loaded, n)
		}
		if err := ix.Close(); err != nil {
			return nil, err
		}
		hugeTag := ""
		if cfg.huge {
			hugeTag = "+huge"
		}
		advice := ""
		if be == bmeh.BackendMmap {
			advice = "sequential" + hugeTag
		}
		record(name, "bulk_load", advice, n, elapsed)

		// Phase 2: cold Get — fresh open, all application caches empty.
		progress("backend %s: cold_get (%d ops)...\n", name, getOps)
		ix, err = bmeh.OpenBackend(path, be)
		if err != nil {
			return nil, err
		}
		applyHuge(ix)
		advice = ""
		if be == bmeh.BackendMmap {
			advice = "random" + hugeTag
			if err := ix.Advise(bmeh.AdviseRandom); err != nil {
				ix.Close()
				return nil, err
			}
		}
		get := func(phase string) error {
			start := time.Now()
			for _, p := range probe {
				k := concKey(uint64(p) + 1)
				_, ok, err := ix.Get(k)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("backend %s %s: key %d missing", name, phase, p)
				}
			}
			record(name, phase, advice, getOps, time.Since(start))
			return nil
		}
		if err := get("cold_get"); err != nil {
			ix.Close()
			return nil, err
		}

		// Phase 3: warm-miss Get — decoded caches off, byte layer warm.
		progress("backend %s: warm_miss_get (%d ops)...\n", name, getOps)
		if err := ix.SetDecodedCacheCapacity(0, 0); err != nil {
			ix.Close()
			return nil, err
		}
		if err := get("warm_miss_get"); err != nil {
			ix.Close()
			return nil, err
		}

		// Phase 4: full scan, decoded caches still off.
		progress("backend %s: range_scan...\n", name)
		if be == bmeh.BackendMmap {
			advice = "sequential" + hugeTag
			if err := ix.Advise(bmeh.AdviseSequential); err != nil {
				ix.Close()
				return nil, err
			}
		}
		seen := 0
		start = time.Now()
		if err := ix.Scan(func(bmeh.Key, uint64) bool { seen++; return true }); err != nil {
			ix.Close()
			return nil, err
		}
		elapsed = time.Since(start)
		if seen != n {
			ix.Close()
			return nil, fmt.Errorf("backend %s: scan saw %d of %d", name, seen, n)
		}
		record(name, "range_scan", advice, n, elapsed)

		if name == "mmap" {
			// The zero-copy acceptance counters come from the plain mmap
			// leg; the huge leg's reads go through the identical path.
			if ms, ok := ix.MmapStats(); ok {
				rep.ZeroCopyReads = ms.ZeroCopyReads
				rep.CopiedReads = ms.CopiedReads
				rep.StagedReads = ms.StagedReads
				rep.ZeroCopyOK = ms.ZeroCopy && ms.CopiedReads == 0 && ms.ZeroCopyReads > 0
			}
		}
		if err := ix.Close(); err != nil {
			return nil, err
		}
	}

	for phase, fileNs := range timings["file"] {
		if mmapNs := timings["mmap"][phase]; mmapNs > 0 {
			rep.SpeedupMmap[phase] = fileNs / mmapNs
		}
	}
	for phase, mmapNs := range timings["mmap"] {
		if hugeNs := timings["mmap+huge"][phase]; hugeNs > 0 {
			rep.SpeedupHuge[phase] = mmapNs / hugeNs
		}
	}

	fmt.Fprintf(w, "storage backend comparison (N=%d, %d get ops/phase, NumCPU=%d)\n",
		n, getOps, rep.NumCPU)
	if !rep.MmapSupported {
		fmt.Fprintf(w, "NOTE: no mmap on this platform — the mmap column measures the copying fallback.\n")
	}
	fmt.Fprintf(w, "%-9s %-15s %-11s %12s %12s\n", "backend", "phase", "advice", "ms", "ns/op")
	for _, r := range rep.Results {
		adv := r.Advice
		if adv == "" {
			adv = "-"
		}
		fmt.Fprintf(w, "%-9s %-15s %-11s %12.1f %12.0f\n", r.Backend, r.Phase, adv, r.ElapsedMS, r.NsPerOp)
	}
	for _, phase := range []string{"bulk_load", "cold_get", "warm_miss_get", "range_scan"} {
		if s, ok := rep.SpeedupMmap[phase]; ok {
			fmt.Fprintf(w, "mmap speedup, %-15s %.2fx\n", phase+":", s)
		}
	}
	for _, phase := range []string{"bulk_load", "cold_get", "warm_miss_get", "range_scan"} {
		if s, ok := rep.SpeedupHuge[phase]; ok {
			fmt.Fprintf(w, "huge-page speedup, %-15s %.2fx\n", phase+":", s)
		}
	}
	fmt.Fprintf(w, "mmap reads: %d zero-copy, %d copied, %d staged (zero_copy_ok=%v)\n",
		rep.ZeroCopyReads, rep.CopiedReads, rep.StagedReads, rep.ZeroCopyOK)
	fmt.Fprintf(w, "huge leg: madvise(HUGEPAGE) ok=%v, mlock ok=%v", rep.HugeAdviseOK, rep.MlockOK)
	if rep.MlockError != "" {
		fmt.Fprintf(w, " (%s)", rep.MlockError)
	}
	fmt.Fprintln(w)
	return rep, nil
}

func writeBackendJSON(path string, rep *BackendReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
