package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bmeh"
)

// Probes run outside the timed window on one goroutine. The page-read
// probe measures the paper's §4 metric over a fixed number of GETs; the
// RANGE probe measures RANGE latency on warm-get, whose mix has none, so
// that every workload reports every end-to-end metric. It runs for
// probeShare of the window's length.
const (
	readProbeOps = 20000
	probeShare   = 3 // a probe runs for window/probeShare
	// coldWarmOps is cold-scan's warm-up: enough operations to fill the
	// 32768-page decoded cache several times over.
	coldWarmOps = 40000
)

// setup builds a workload's starting state n times and sets setup_s to
// the median build time. build returns a closer for its state; every
// state but the last is closed (and its files removed by the next
// build).
func (b *bench) setup(n int, build func(r *ring) (closer func() error, err error)) (closer func() error, err error) {
	b.env["setups"] = n
	r := b.tr.ring()
	var times []float64
	for i := 0; i < n; i++ {
		if closer != nil {
			if err := closer(); err != nil {
				return nil, fmt.Errorf("closing setup %d: %w", i, err)
			}
		}
		// Each build starts from a collected heap, so neither its time
		// nor the peak memory depends on when the last one's garbage is
		// collected.
		runtime.GC()
		t0 := time.Now()
		closer, err = build(r)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.set("setup_s", "s", median(times), len(times))
	return closer, nil
}

// timed runs the workload's timed window. Untraced, one window of the
// full length; traced, an untraced and a traced half, whose rates give
// the tracing overhead.
func (b *bench) timed(run func(first int, d time.Duration, traced bool) ([]*wlog, time.Duration)) []*wlog {
	runtime.GC()
	if !b.trace {
		logs, _ := run(wUntraced, b.window, false)
		b.windowMetrics(logs)
		b.count(logs)
		return logs
	}
	a, ela := run(wUntraced, b.window/2, false)
	t, elt := run(wTraced, b.window/2, true)
	b.untracedRate = rate(a, ela)
	b.tracedRate = rate(t, elt)
	b.windowMetrics(a)
	logs := append(a, t...)
	b.count(logs)
	return logs
}

func rate(logs []*wlog, el time.Duration) float64 {
	n := 0
	for _, l := range logs {
		n += l.n - len(l.failed)
	}
	return float64(n) / el.Seconds()
}

// opsOf counts the operations the logs issued.
func opsOf(logs []*wlog) int {
	n := 0
	for _, l := range logs {
		n += l.n
	}
	return n
}

// readProbe measures the paper's §4 metric, store page reads per GET,
// on one goroutine issuing GETs only from a freshly opened store.
func (b *bench) readProbe(m *mix, pr *progress, exec execFn, reads func() (uint64, error)) (*wlog, error) {
	r0, err := reads()
	if err != nil {
		return nil, err
	}
	// Untraced: the probe measures a count, and its cold-cache GETs must
	// not mix into the window's GET spans.
	cfg := loopCfg{m: only(m, opGet), first: wReadProbe, n: 1, ops: readProbeOps, sampleEvery: 1}
	logs, _ := b.closedLoop(cfg, pr, exec)
	l := logs[0]
	r1, err := reads()
	if err != nil {
		return nil, err
	}
	b.set("page_reads_per_get", "count", float64(r1-r0)/float64(l.n), l.n)
	return l, nil
}

// probe runs m on one goroutine as stream w for window/probeShare.
func (b *bench) probe(m *mix, w int, pr *progress, exec execFn) *wlog {
	cfg := loopCfg{m: m, first: w, n: 1, d: b.window / probeShare, traced: b.trace, sampleEvery: 8, maxSamples: 256}
	logs, _ := b.closedLoop(cfg, pr, exec)
	return logs[0]
}

// only returns a copy of m that issues only GETs or only RANGEs.
func only(m *mix, k opKind) *mix {
	c := *m
	c.get, c.put = 0, 0
	if k == opGet {
		c.get = 1
	}
	return &c
}

// withoutPuts returns a copy of m with its PUT share given to GETs and
// RANGEs in proportion.
func withoutPuts(m *mix) *mix {
	c := *m
	c.get, c.put = m.get/(1-m.put), 0
	return &c
}

// embeddedExec performs operations on an embedded index. The embedded
// mixes issue GETs and RANGEs only.
func embeddedExec(ix *bmeh.Index) execFn {
	return func(o op, r *ring, parent int, req uint64) (answer, error) {
		switch o.kind {
		case opGet:
			sp := r.begin("bmeh.Get", parent, req)
			v, ok, err := ix.Get(o.key)
			r.end(sp)
			return answer{value: v, found: ok}, err
		case opPut:
			return answer{}, errors.New("the embedded workloads issue no PUTs")
		default:
			lo, hi := o.box.keys()
			var kvs []bmeh.KV
			sp := r.begin("bmeh.Range", parent, req)
			err := ix.Range(lo, hi, func(k bmeh.Key, v uint64) bool {
				kvs = append(kvs, bmeh.KV{Key: k, Value: v})
				return true
			})
			r.end(sp)
			return answer{kvs: kvs}, err
		}
	}
}

// embedded is the shared body of the two embedded-index workloads.
type embedded struct {
	g    *gen
	m    *mix
	path string
	// seed loads the seeded records into a freshly created index.
	seed func(ix *bmeh.Index, r *ring) error
	// warm brings the caches to their steady state before the window.
	// Any answers it collects are checked with the window's.
	warm func(b *bench, ix *bmeh.Index) (*wlog, error)
	// rangeProbe is set when the mix has no RANGE operations.
	rangeProbe  bool
	sampleEvery int
	setups      int
}

func (e *embedded) run(b *bench) error {
	opts := bmeh.Options{Dims: 2} // library defaults
	b.env["backend"] = "file"
	b.env["write_mode"] = "latched"
	b.env["cache_frames"] = 0
	b.env["records"] = e.g.n
	var ix *bmeh.Index
	closer, err := b.setup(e.setups, func(r *ring) (func() error, error) {
		if err := removeStore(e.path); err != nil {
			return nil, err
		}
		var err error
		ix, err = bmeh.Create(e.path, opts)
		if err != nil {
			return nil, err
		}
		if err := e.seed(ix, r); err != nil {
			ix.Close()
			return nil, err
		}
		return ix.Close, nil
	})
	if err != nil {
		return err
	}
	logs, err := e.measure(b, ix)
	if cerr := closer(); err == nil && cerr != nil {
		err = fmt.Errorf("closing after the window: %w", cerr)
	}
	if err != nil {
		return err
	}

	// Reopen: the page-read probe and the RANGE probe start from empty
	// caches, and every answer is checked again on the reopened index.
	if ix, err = bmeh.OpenWithOptions(e.path, opts); err != nil {
		return fmt.Errorf("reopening after the window: %w", err)
	}
	defer ix.Close()
	exec := embeddedExec(ix)
	pr := &progress{}
	rp, err := b.readProbe(e.m, pr, exec, func() (uint64, error) { return ix.Stats().Reads, nil })
	if err != nil {
		return err
	}
	logs = append(logs, rp)
	if e.rangeProbe {
		rq := b.probe(only(e.m, opRange), wRangeProb, pr, exec)
		b.setLatency("range", opRange, []*wlog{rq})
		logs = append(logs, rq)
	}
	b.set("peak_rss_mb", "MiB", peakRSSMiB(), 1)
	b.spanMetrics()
	return b.check(e.g, logs, false, ix.Get)
}

// measure warms the caches, runs the timed window and takes the
// statistics that describe the store the window left behind.
func (e *embedded) measure(b *bench, ix *bmeh.Index) ([]*wlog, error) {
	warm, err := e.warm(b, ix)
	if err != nil {
		return nil, err
	}
	exec := embeddedExec(ix)
	before := ix.Stats()
	logs := b.timed(func(first int, d time.Duration, traced bool) ([]*wlog, time.Duration) {
		return b.closedLoop(loopCfg{m: e.m, first: first, n: clients, d: d, traced: traced,
			sampleEvery: e.sampleEvery, maxSamples: 256}, &progress{}, exec)
	})
	st := ix.Stats()
	b.set("pagestore.reads_per_op", "count", float64(st.Reads-before.Reads)/float64(opsOf(logs)), opsOf(logs))
	b.set("bytes_per_record", "B", float64(fileBytes(e.path, e.path+".wal"))/float64(st.Records), st.Records)
	b.coreStats(st)
	if warm != nil {
		logs = append(logs, warm)
	}
	return logs, nil
}

// coreStats sets the core layer's counts from index statistics.
func (b *bench) coreStats(st bmeh.Stats) {
	b.set("core.dir_levels", "count", float64(st.DirectoryLevels), 1)
	b.set("core.dir_pages", "count", float64(st.DirectoryPages), 1)
	b.set("core.dir_elements_per_record", "ratio", float64(st.DirectoryElements)/float64(st.Records), st.Records)
	b.set("core.load_factor", "ratio", st.LoadFactor, st.Records)
}

func removeStore(path string) error {
	for _, p := range []string{path, path + ".wal"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// warm-get: ~100k uniform keys inserted with InsertBatch fit the decoded
// caches whole (about 130 directory nodes against 1024, 4.3k data pages
// against 32768). After a warm-up pass, two goroutines issue Zipf-skewed
// GETs with 10% absent keys: nearly all time is core descent on cache
// hits, and the page store, WAL, wire and server do no work.
func runWarmGet(b *bench) error {
	g := newGen(b.seed, uniform, 100_000)
	m := &mix{g: g, get: 1, absent: 0.10, zipf: true, rangeBox: uniformBox(g)}
	e := &embedded{
		g: g, m: m, path: filepath.Join(b.dir, "warm.bmeh"), rangeProbe: true, sampleEvery: 1, setups: setups,
		// Touch every seeded key once, checking each answer.
		warm: func(b *bench, ix *bmeh.Index) (*wlog, error) {
			for i := 0; i < g.n; i++ {
				k := g.seedKey(i)
				v, ok, err := ix.Get(k)
				if err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
				if !ok || v != g.value(k) {
					return nil, wrong(fmt.Errorf("warm-up: seeded key %v reads (%d, %v), want (%d, true)", k, v, ok, g.value(k)))
				}
			}
			return nil, nil
		},
		seed: func(ix *bmeh.Index, r *ring) error {
			const chunk = 4096
			kvs := make([]bmeh.KV, 0, chunk)
			next := g.seedKVs()
			for {
				kv, ok, _ := next()
				if ok {
					kvs = append(kvs, kv)
				}
				if len(kvs) == chunk || (!ok && len(kvs) > 0) {
					sp := r.begin("bmeh.InsertBatch", -1, 0)
					n, err := ix.InsertBatch(kvs)
					r.endN(sp, len(kvs))
					if err != nil {
						return err
					}
					if n != len(kvs) {
						return fmt.Errorf("InsertBatch stored %d of %d distinct keys", n, len(kvs))
					}
					kvs = kvs[:0]
				}
				if !ok {
					return nil
				}
			}
		},
	}
	return e.run(b)
}

// cold-scan: ~4M truncated-normal keys bulk-loaded into ~182k data pages,
// about 5.5x the decoded page cache, with no byte pool (the library
// default). Two goroutines split evenly between GETs of uniformly chosen
// present keys and small boxes (~20 keys) placed by the seed
// distribution, so most operations miss the program's caches and time
// goes to page-store reads, decode and eviction.
func runColdScan(b *bench) error {
	g := newGen(b.seed, normal, 4_000_000)
	m := &mix{g: g, get: 0.5, rangeBox: normalBox(g)}
	e := &embedded{
		g: g, m: m, path: filepath.Join(b.dir, "cold.bmeh"), sampleEvery: 64, setups: coldSetups,
		// Run the mix until the decoded page cache has filled and
		// started evicting.
		warm: func(b *bench, ix *bmeh.Index) (*wlog, error) {
			cfg := loopCfg{m: m, first: wWarmUp, n: 1, ops: coldWarmOps, sampleEvery: 64, maxSamples: 16}
			logs, _ := b.closedLoop(cfg, &progress{}, embeddedExec(ix))
			return logs[0], nil
		},
		seed: func(ix *bmeh.Index, r *ring) error {
			return bulkLoad(ix, g, b.dir, r)
		},
	}
	return e.run(b)
}

// bulkLoad loads g's seeded records with BulkLoad, spilling (if at all)
// inside the run's directory.
func bulkLoad(ix *bmeh.Index, g *gen, dir string, r *ring) error {
	sp := r.begin("bmeh.BulkLoad", -1, 0)
	st, err := ix.BulkLoad(g.seedKVs(), bmeh.BulkOptions{SpillDir: dir})
	r.endN(sp, g.n)
	if err != nil {
		return err
	}
	if st.Loaded+st.Duplicates != int64(g.n) {
		return fmt.Errorf("BulkLoad took %d+%d records of %d", st.Loaded, st.Duplicates, g.n)
	}
	return nil
}

// Boxes hold about this many seeded keys.
const boxKeys = 20

func uniformBox(g *gen) func(r *rand.Rand) box {
	return func(r *rand.Rand) box { return g.boxAround(r.Uint32(), r.Uint32(), boxKeys) }
}

// normalBox centres boxes by the seed distribution itself, sized to the
// density there.
func normalBox(g *gen) func(r *rand.Rand) box {
	return func(r *rand.Rand) box {
		c := func() uint32 {
			for {
				v := normalMean + normalSigma*r.NormFloat64()
				if v >= 0 && v < space {
					return uint32(v)
				}
			}
		}
		x := c()
		return g.boxAround(x, c(), boxKeys)
	}
}
