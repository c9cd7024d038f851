// Command bmehbench regenerates the paper's evaluation (Otoo, "Balanced
// Multidimensional Extendible Hash Tree", PODS 1986): Tables 2-4, the
// directory-growth Figures 6-7, the Theorem 4 range-cost experiment, and
// the extra ablations documented in DESIGN.md.
//
// Usage:
//
//	bmehbench -all                 # everything at full size (N=40,000)
//	bmehbench -table 3             # one table
//	bmehbench -figure 6            # one growth figure
//	bmehbench -rangecost           # Theorem 4 experiment
//	bmehbench -ablation            # BMEH node-size (φ) sweep
//	bmehbench -table 2 -n 8000     # scaled-down run
//	bmehbench -concurrent -json BENCH_concurrent.json
//	                               # parallel get/insert/mixed sweep
//	bmehbench -mvcc -json BENCH_mvcc.json
//	                               # reader throughput under a saturating
//	                               # writer, latched vs copy-on-write
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bmeh/internal/sim"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce paper table N (2, 3 or 4)")
		figure    = flag.Int("figure", 0, "reproduce paper figure N (6 or 7)")
		rangeCost = flag.Bool("rangecost", false, "run the Theorem 4 range-cost experiment")
		ablation  = flag.Bool("ablation", false, "run the BMEH-tree node-size (φ) sweep")
		noise     = flag.Bool("noise", false, "run the §3 degeneration experiment (noise-burst keys)")
		conc      = flag.Bool("concurrent", false, "run the parallel get/insert/mixed sweep (1/4/16 goroutines)")
		netBench  = flag.Bool("net", false, "run the loopback network serving benchmark (16 pipelined clients)")
		replBench = flag.Bool("repl", false, "run the replication benchmark (catch-up + availability across a primary restart)")
		bulkload  = flag.Bool("bulkload", false, "run the bulk-load vs incremental-batch comparison (file backend)")
		mvcc      = flag.Bool("mvcc", false, "run the MVCC sweep (reader throughput under a saturating writer, latched vs cow)")
		backend   = flag.Bool("backend", false, "run the storage-backend comparison (pread vs mmap: bulk load, cold/warm-miss gets, range scan)")
		clBench   = flag.Bool("cluster", false, "run the sharded-cluster benchmark (GET/PUT scaling at 1/2/4 shards + availability through an online split)")
		jsonPath  = flag.String("json", "", "with -concurrent/-net/-repl: also write the report to this JSON file")
		window    = flag.Duration("window", 500*time.Millisecond, "with -concurrent/-net/-repl: measurement window per configuration")
		asCSV     = flag.Bool("csv", false, "emit figures as CSV for external plotting")
		all       = flag.Bool("all", false, "run every table, figure and extra experiment")
		n         = flag.Int("n", 40000, "keys to insert per run (paper: 40000)")
		measure   = flag.Int("measure", 4000, "tail window for averaged measures (paper: 4000)")
		every     = flag.Int("every", 1000, "growth-curve sampling interval (figures)")
		seed      = flag.Int64("seed", 19860301, "workload seed")
		quiet     = flag.Bool("q", false, "suppress progress messages")
	)
	flag.Parse()

	progress := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	start := time.Now()
	ran := false

	runTable := func(num int) {
		ran = true
		spec, err := sim.TableSpecFor(num)
		fail(err)
		tr, err := sim.RunTable(spec, *n, *measure, *seed, func(s sim.Scheme, b int) {
			progress("table %d: %v b=%d...\n", num, s, b)
		})
		fail(err)
		tr.Format(os.Stdout)
		fmt.Println()
	}
	runFigure := func(num int) {
		ran = true
		spec, err := sim.FigureSpecFor(num)
		fail(err)
		fr, err := sim.RunFigure(spec, *n, *every, *seed, func(s sim.Scheme) {
			progress("figure %d: %v...\n", num, s)
		})
		fail(err)
		if *asCSV {
			fr.FormatCSV(os.Stdout)
		} else {
			fr.Format(os.Stdout)
		}
		fmt.Println()
	}
	runRange := func() {
		ran = true
		progress("range-cost experiment (Theorem 4)...\n")
		pts, err := sim.RunRange(sim.Uniform, 2, 16, *n, 50, *seed)
		fail(err)
		sim.FormatRange(os.Stdout, pts)
		fmt.Println()
	}
	runAblation := func() {
		ran = true
		for _, dist := range []sim.Distribution{sim.Uniform, sim.Normal} {
			progress("φ sweep (%v)...\n", dist)
			rows, err := sim.RunPhiAblation(dist, 2, 8, *n, *seed)
			fail(err)
			fmt.Printf("(%v keys, d=2, b=8, N=%d)\n", dist, *n)
			sim.FormatAblation(os.Stdout, rows)
			fmt.Println()
		}
	}
	runConc := func() {
		ran = true
		nn := *n
		if nn > 20000 {
			nn = 20000 // warm working set; larger N only lengthens warmup
		}
		rep, err := runConcurrent(os.Stdout, nn, *window, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeConcurrentJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runNet := func() {
		ran = true
		nn := *n
		if nn > 20000 {
			nn = 20000 // preload working set; larger N only lengthens setup
		}
		rep, err := runNet(os.Stdout, nn, *window, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeNetJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runReplBench := func() {
		ran = true
		nn := *n
		if nn > 20000 {
			nn = 20000 // preload working set; larger N only lengthens setup
		}
		rep, err := runRepl(os.Stdout, nn, *window, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeReplJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runBulkloadBench := func() {
		ran = true
		rep, err := runBulkload(os.Stdout, *n, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeBulkloadJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runBackendBench := func() {
		ran = true
		rep, err := runBackend(os.Stdout, *n, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeBackendJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runClusterBench := func() {
		ran = true
		nn := *n
		if nn > 20000 {
			nn = 20000 // preload working set; larger N only lengthens setup
		}
		rep, err := runCluster(os.Stdout, nn, *window, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeClusterJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runMVCCBench := func() {
		ran = true
		nn := *n
		if nn > 20000 {
			nn = 20000 // warm working set; larger N only lengthens preload
		}
		rep, err := runMVCC(os.Stdout, nn, *window, progress)
		fail(err)
		fmt.Println()
		if *jsonPath != "" {
			fail(writeMVCCJSON(*jsonPath, rep))
			progress("wrote %s\n", *jsonPath)
		}
	}
	runNoise := func() {
		ran = true
		progress("§3 degeneration experiment...\n")
		nn := *n
		if nn > 20000 {
			nn = 20000 // the flat schemes overflow long before this
		}
		pts, err := sim.RunNoise(nn, nn/16, 50, 16, *seed)
		fail(err)
		sim.FormatNoise(os.Stdout, pts)
		fmt.Println()
	}

	switch {
	case *all:
		for _, t := range sim.Tables {
			runTable(t.Number)
		}
		for _, f := range sim.Figures {
			runFigure(f.Number)
		}
		runRange()
		runAblation()
		runNoise()
		runConc()
	default:
		if *table != 0 {
			runTable(*table)
		}
		if *figure != 0 {
			runFigure(*figure)
		}
		if *rangeCost {
			runRange()
		}
		if *ablation {
			runAblation()
		}
		if *noise {
			runNoise()
		}
		if *conc {
			runConc()
		}
		if *netBench {
			runNet()
		}
		if *replBench {
			runReplBench()
		}
		if *bulkload {
			runBulkloadBench()
		}
		if *backend {
			runBackendBench()
		}
		if *mvcc {
			runMVCCBench()
		}
		if *clBench {
			runClusterBench()
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	progress("done in %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehbench:", err)
		os.Exit(1)
	}
}
