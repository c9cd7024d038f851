package main

import (
	"sync"
	"sync/atomic"
	"time"

	"bmeh"
)

// maxWorkers bounds the stream numbers a run uses: the untraced and
// traced client goroutines plus the single-goroutine probes. freshIndex
// packs the stream number into 4 bits.
const maxWorkers = 16

// Stream numbers. The traced half of a traced run continues on fresh
// streams so that its PUTs never repeat a key the untraced half wrote.
const (
	wUntraced  = 0 // .. clients-1
	wTraced    = 4 // .. 4+clients-1
	wReadProbe = 8
	wRangeProb = 9
	wWarmUp    = 10 // .. 10+clients-1
	wReads     = 12 // .. 12+clients-1
)

// progress publishes each stream's PUT counts, so a recorded RANGE
// answer knows which concurrent PUTs it must and may contain.
type progress struct {
	done, issued [maxWorkers]atomic.Int64
}

// load returns a copy of per-stream counts.
func load(c *[maxWorkers]atomic.Int64) []int {
	out := make([]int, maxWorkers)
	for i := range out {
		out[i] = int(c[i].Load())
	}
	return out
}

// answer is what one operation returned.
type answer struct {
	value uint64
	found bool
	kvs   []bmeh.KV
}

// execFn performs one operation synchronously against the system under
// test. r is nil when the run is untraced; parent is the request span.
type execFn func(o op, r *ring, parent int, req uint64) (answer, error)

// loopCfg is one closed-loop phase.
type loopCfg struct {
	m           *mix
	first, n    int           // stream numbers first .. first+n-1
	d           time.Duration // run until d has passed ...
	ops         int           // ... or, when d is 0, for this many operations per stream
	traced      bool
	sampleEvery int // record every k-th RANGE answer for checking
	maxSamples  int
}

// closedLoop runs cfg.n client goroutines, each sending its next
// operation only after the previous one returned, and returns their
// logs and the wall time until the last one stopped.
func (b *bench) closedLoop(cfg loopCfg, pr *progress, exec execFn) ([]*wlog, time.Duration) {
	logs := make([]*wlog, cfg.n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.d)
	for k := 0; k < cfg.n; k++ {
		w := cfg.first + k
		l := &wlog{m: cfg.m, w: w, span: cfg.d}
		logs[k] = l
		var r *ring
		if cfg.traced {
			r = b.tr.ring()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := cfg.m.stream(b.seed, w)
			ranges := 0
			for {
				if cfg.d > 0 {
					if !time.Now().Before(deadline) {
						return
					}
				} else if l.n == cfg.ops {
					return
				}
				o := s.next()
				if o.kind == opPut {
					pr.issued[w].Store(int64(s.puts))
				}
				var lo []int
				sample := false
				if o.kind == opRange {
					sample = ranges%cfg.sampleEvery == 0 && len(l.samples) < cfg.maxSamples
					ranges++
					if sample {
						lo = load(&pr.done)
					}
				}
				req := uint64(w)<<40 | uint64(l.n)
				sp := r.begin("op", -1, req)
				t0 := time.Now()
				a, err := exec(o, r, sp, req)
				el := time.Since(t0)
				r.end(sp)
				if err != nil {
					l.failed = append(l.failed, l.n)
				} else {
					l.done(o.kind, t0.Sub(start)+el, el)
					switch o.kind {
					case opGet:
						l.fold += getTerm(l.n, a.value, a.found)
					case opRange:
						if sample {
							hi := load(&pr.issued)
							l.samples = append(l.samples, rangeSample{box: o.box, got: a.kvs, lo: lo, hi: hi})
						}
					}
				}
				if o.kind == opPut {
					pr.done[w].Store(int64(s.puts))
				}
				l.n++
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start)
}

// windowMetrics counts the window's operations and sets the end-to-end
// throughput and latency metrics from logs, the goroutines of one timed
// phase.
func (b *bench) windowMetrics(logs []*wlog) {
	var rates []float64
	for i := 0; i < nSlots; i++ {
		n := 0
		for _, l := range logs {
			n += l.slotOps[i]
		}
		rates = append(rates, float64(n)/(logs[0].span.Seconds()/nSlots))
	}
	b.set("ops_per_s", "ops/s", median(rates), opsOf(logs))
	b.env["ops_per_s_by_slot"] = rates
	b.setLatency("get", opGet, logs)
	b.setLatency("put", opPut, logs)
	b.setLatency("range", opRange, logs)
}

// count adds the logs' operations to the run's attempted and failed.
func (b *bench) count(logs []*wlog) {
	for _, l := range logs {
		b.attempted += l.n
		b.failed += len(l.failed)
	}
}

// setLatency sets <op>_p50_us, <op>_p90_us and <op>_p99_us from the
// logs' samples of kind, unless there are none.
func (b *bench) setLatency(op string, kind opKind, logs []*wlog) {
	per, n := slotQuantiles(seriesOf(logs, kind), 0.50, 0.90, 0.99)
	if n == 0 {
		return
	}
	b.set(op+"_p50_us", "us", median(per[0]), n)
	b.set(op+"_p90_us", "us", median(per[1]), n)
	b.set(op+"_p99_us", "us", median(per[2]), n)
	b.env[op+"_p50_us_by_slot"] = per[0]
}

func seriesOf(logs []*wlog, kind opKind) []*series {
	var out []*series
	for _, l := range logs {
		out = append(out, &l.lat[kind])
	}
	return out
}

// check runs every correctness check over the logs: GET answers, the
// recorded RANGE answers, and (through get) read-back of every
// acknowledged PUT. ordered demands pseudo-key order of RANGE answers.
func (b *bench) check(g *gen, logs []*wlog, ordered bool, get func(bmeh.Key) (uint64, bool, error)) error {
	if err := checkGets(b.seed, logs); err != nil {
		return wrong(err)
	}
	acked, failed := replayPuts(b.seed, logs)
	if err := checkRanges(g, samplesOf(logs), failed, ordered); err != nil {
		return wrong(err)
	}
	if get != nil {
		if err := checkReadBack(g, acked, get); err != nil {
			return wrong(err)
		}
	}
	return nil
}

func samplesOf(logs []*wlog) []rangeSample {
	var out []rangeSample
	for _, l := range logs {
		out = append(out, l.samples...)
	}
	return out
}
