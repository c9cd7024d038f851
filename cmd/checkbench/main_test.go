package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// report is a benchmark report fixture as decoded JSON, so each case can
// start from a passing report and break exactly one field.
type report = map[string]any

func goodMmap() report {
	return report{
		"mmap_supported":       true,
		"mmap_zero_copy_reads": 40000,
		"mmap_copied_reads":    0,
		"zero_copy_ok":         true,
		"speedup_mmap_vs_file": map[string]any{"cold_get": 1.4},
	}
}

func mvccCell(mode, workload string) map[string]any {
	return map[string]any{
		"mode": mode, "workload": workload,
		"reader_ops": 1000, "writer_ops_per_sec": 500.0, "snapshot_consistent": true,
	}
}

func goodMVCC() report {
	return report{
		"results": []any{
			mvccCell("latched", "get"), mvccCell("latched", "range"),
			mvccCell("cow", "get"), mvccCell("cow", "range"),
		},
		"mode_stats": []any{
			map[string]any{"mode": "latched", "epoch": 0, "pinned_epochs": 0, "reclaimable_pages": 0},
			map[string]any{"mode": "cow", "epoch": 1234, "pinned_epochs": 0, "reclaimable_pages": 0},
		},
	}
}

func clusterRow(shards int) map[string]any {
	return map[string]any{"shards": shards, "get_ops_per_sec": 9000.0, "put_ops_per_sec": 800.0}
}

func goodCluster() report {
	return report{
		"num_cpu":    4,
		"single_cpu": false,
		"results":    []any{clusterRow(1), clusterRow(2), clusterRow(4)},

		"get_scaling_4x_over_1x": 2.5,
		"split_gets_total":       5000,
		"split_get_errors":       0,
		"split_availability":     1.0,
		"split_shards_after":     2,
	}
}

// field returns the i-th element of r[key] (a list of objects).
func field(r report, key string, i int) map[string]any {
	return r[key].([]any)[i].(map[string]any)
}

func writeReport(t *testing.T, r report) string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// with applies edit to r and returns it.
func with(r report, edit func(report)) report {
	edit(r)
	return r
}

// TestCheckbenchGates runs every gate on a passing report and on one
// known-bad report per rejection path, so a gate that can no longer fail
// shows up as a test failure.
func TestCheckbenchGates(t *testing.T) {
	cases := []struct {
		name  string
		check func(string) error
		r     report
		ok    bool
	}{
		{"mmap/good", checkMmap, goodMmap(), true},
		{"mmap/no-mmap-platform", checkMmap, with(goodMmap(), func(r report) {
			r["mmap_supported"], r["zero_copy_ok"], r["mmap_zero_copy_reads"] = false, false, 0
		}), true},
		{"mmap/zero-copy-not-ok", checkMmap, with(goodMmap(), func(r report) {
			r["zero_copy_ok"], r["mmap_copied_reads"] = false, 12
		}), false},
		{"mmap/no-zero-copy-reads", checkMmap, with(goodMmap(), func(r report) {
			r["mmap_zero_copy_reads"] = 0
		}), false},

		{"mvcc/good", checkMVCC, goodMVCC(), true},
		{"mvcc/missing-cell", checkMVCC, with(goodMVCC(), func(r report) {
			r["results"] = r["results"].([]any)[:3]
		}), false},
		{"mvcc/no-reader-progress", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "results", 0)["reader_ops"] = 0
		}), false},
		{"mvcc/no-writer-progress", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "results", 1)["writer_ops_per_sec"] = 0
		}), false},
		{"mvcc/inconsistent-cow-range", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "results", 3)["snapshot_consistent"] = false
		}), false},
		{"mvcc/leaked-epochs", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "mode_stats", 1)["pinned_epochs"] = 1
		}), false},
		{"mvcc/leaked-pages", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "mode_stats", 1)["reclaimable_pages"] = 7
		}), false},
		{"mvcc/cow-epoch-zero", checkMVCC, with(goodMVCC(), func(r report) {
			field(r, "mode_stats", 1)["epoch"] = 0
		}), false},

		{"cluster/good", checkCluster, goodCluster(), true},
		{"cluster/low-scaling-on-2-cpus", checkCluster, with(goodCluster(), func(r report) {
			r["num_cpu"], r["get_scaling_4x_over_1x"] = 2, 1.1
		}), true},
		{"cluster/missing-shard-count", checkCluster, with(goodCluster(), func(r report) {
			r["results"] = r["results"].([]any)[:2]
		}), false},
		{"cluster/no-progress", checkCluster, with(goodCluster(), func(r report) {
			field(r, "results", 1)["put_ops_per_sec"] = 0
		}), false},
		{"cluster/no-split-gets", checkCluster, with(goodCluster(), func(r report) {
			r["split_gets_total"] = 0
		}), false},
		{"cluster/split-get-error", checkCluster, with(goodCluster(), func(r report) {
			r["split_get_errors"] = 1
		}), false},
		{"cluster/availability-below-1", checkCluster, with(goodCluster(), func(r report) {
			r["split_availability"] = 0.9998
		}), false},
		{"cluster/split-shards-after", checkCluster, with(goodCluster(), func(r report) {
			r["split_shards_after"] = 1
		}), false},
		{"cluster/low-scaling-on-4-cpus", checkCluster, with(goodCluster(), func(r report) {
			r["get_scaling_4x_over_1x"] = 1.9
		}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(writeReport(t, tc.r))
			switch {
			case tc.ok && err != nil:
				t.Fatalf("good report rejected: %v", err)
			case !tc.ok && err == nil:
				t.Fatal("bad report accepted")
			}
		})
	}
}
