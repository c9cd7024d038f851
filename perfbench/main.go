// Command perfbench is the repository benchmark. It drives the system
// only through its public entry points — the embedded bmeh.Index and a
// local sharded cluster (internal/cluster/local) of serve.Run servers
// behind client.Router — on one of three workloads, checks every answer against a model regenerated
// from the seed, and prints one JSON result as its last line.
//
//	go run . --workload warm-get --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the timed window is split into an untraced
// and a traced half; spans kept in memory around each call the benchmark
// makes into a layer give the per-layer metrics, and the two halves give
// the tracing overhead. Spans are written to the store directory's
// parent when the run ends.
//
// All files live under --dir (default .bench_build/perfbench), which the
// run empties on start and removes on exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix. run sets up its starting state,
// measures it and checks its answers, setting the bench's metrics.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"warm-get", runWarmGet},
	{"cold-scan", runColdScan},
	{"routed-mixed", runRoutedMixed},
}

// clients is the closed-loop client goroutine count (the runner's 2 CPUs).
const clients = 2

// setups is how many times a run builds its starting state; setup_s is
// the median, so one slow build does not move it. cold-scan, whose build
// takes seconds, builds coldSetups times.
const (
	setups     = 5
	coldSetups = 3
)

// bench is one invocation: its flags, scratch directory, tracer and the
// metrics it reports.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	dir      string
	tr       *tracer // nil unless tracing

	env     map[string]any
	metrics map[string]metric
	// attempted and failed count the timed window's operations.
	attempted, failed int
	// ops/s of the untraced and traced halves of a traced run.
	untracedRate, tracedRate float64
	// batchUs is the median replayed InsertBatchStatus call (routed-mixed,
	// traced).
	batchUs float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (operations, spans or
	// setups); it is printed in the report but not in the result.
	N int `json:"-"`
}

func (b *bench) set(name, unit string, v float64, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload: warm-get, cold-scan or routed-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and traces")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0,1}\n", strings.Join(workloadNames(), ","))
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      filepath.Join(*dir, fmt.Sprintf("%s-%d", *name, os.Getpid())),
		metrics:  make(map[string]metric),
	}
	if b.trace {
		b.tr = newTracer()
	}
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)
	b.env = environment(b)

	// A run must end well inside the caller's per-run limit even if the
	// system under test hangs.
	watchdog := time.AfterFunc(b.window+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	steal0, total0 := cpuTimes()
	err := wl.run(b)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		// The share of the machine's CPU time the hypervisor gave to
		// other guests while the workload ran.
		b.env["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	var wrong *wrongResult
	switch {
	case errors.As(err, &wrong):
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", err)
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.trace {
		if b.untracedRate > 0 {
			b.set("trace.overhead_frac", "ratio", 1-b.tracedRate/b.untracedRate, 2)
		}
		path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		b.env["trace_file"] = path
	}
	b.report()
	res := result{Correct: wrong == nil, Attempted: b.attempted, Failed: b.failed, Metrics: b.selected()}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if wrong != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// wrongResult marks a correctness-check failure, as opposed to a run
// that could not be carried out.
type wrongResult struct{ err error }

func (e *wrongResult) Error() string { return e.err.Error() }
func (e *wrongResult) Unwrap() error { return e.err }

func wrong(err error) error {
	if err == nil {
		return nil
	}
	return &wrongResult{err}
}

// selected returns the metrics the result line carries: the end-to-end
// set untraced, the per-layer set traced.
func (b *bench) selected() map[string]metric {
	names := endToEnd
	if b.trace {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := b.metrics[n.name]
		if !ok {
			// A layer the workload does not pass through did no work.
			m = metric{Unit: n.unit}
		}
		out[n.name] = m
	}
	return out
}

// report prints the environment and every metric with its unit and
// sample count ahead of the result line.
func (b *bench) report() {
	env, _ := json.Marshal(b.env)
	fmt.Printf("env %s\n", env)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("metric %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("metric %-36s %14.6f %-6s n=%d\n", "failed_ops_frac", frac, "ratio", b.attempted)
}

type metricName struct{ name, unit string }

// endToEnd and perLayer list the metrics the result line carries;
// BENCHMARK.json names the same sets. Every run also measures and
// reports ops_per_s, the p90 and p99 of each operation type, the PUT
// latencies and failed_ops_frac; on this benchmark's 2-CPU runner with a
// shared disk their run-to-run spread is wider than any bound the
// benchmark may set (fsync-bound PUTs, shared-CPU tails), so they are
// printed for reading but not bounded.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"get_p50_us", "us"},
	{"range_p50_us", "us"},
	{"bytes_per_record", "B"},
	{"page_reads_per_get", "count"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricName{
	{"bmeh.get_us", "us"},
	{"bmeh.range_us", "us"},
	{"bmeh.insert_batch_us_per_record", "us"},
	{"bmeh.bulkload_us_per_record", "us"},
	{"bmeh.put_replay_us", "us"},
	{"bmeh.sync_us", "us"},
	{"bmeh.get_replay_us", "us"},
	{"core.dir_levels", "count"},
	{"core.dir_pages", "count"},
	{"core.dir_elements_per_record", "ratio"},
	{"core.load_factor", "ratio"},
	{"pagestore.reads_per_op", "count"},
	{"pagestore.writes_per_put", "count"},
	{"pagestore.pool_hit_ratio", "ratio"},
	{"pagestore.pool_evictions_per_op", "count"},
	{"pagestore.file_bytes_per_put", "B"},
	{"server.puts_per_commit", "count"},
	{"server.commits_per_s", "1/s"},
	{"server.epochs_per_put", "count"},
	{"server.reclaimable_pages", "count"},
	{"server.pinned_epochs", "count"},
	{"wire.get_codec_ns", "ns"},
	{"wire.put_codec_ns", "ns"},
	{"wire.range_codec_ns", "ns"},
	{"wire.bytes_per_op", "B"},
	{"client.get_overhead_us", "us"},
	{"client.put_overhead_us", "us"},
	{"client.router_get_overhead_us", "us"},
	{"cluster.route_ns", "ns"},
	{"cluster.shards_per_range", "count"},
	{"cluster.merge_ns_per_key", "ns"},
	{"trace.overhead_frac", "ratio"},
}
