package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/cluster"
	"bmeh/internal/cluster/local"
	"bmeh/internal/wire"
)

const (
	routedShards = 2
	// routedWarmOps is the warm-up's length in operations per goroutine.
	routedWarmOps = 2500
	// routerProbeOps is how many keys the traced run reads both through
	// the router and straight from the owning shard.
	routerProbeOps = 2000
	// codecOps bounds the operations pushed through the wire codec, and
	// codecChunk is how many are timed together.
	codecOps   = 4096
	codecChunk = 64
)

// sink keeps timed pure calls from being optimised away.
var sink int

// routedCluster is a running local cluster and a router over it.
type routedCluster struct {
	c *local.Cluster
	r *client.Router
}

func (rc *routedCluster) close() error {
	if rc.r != nil {
		rc.r.Close()
	}
	return rc.c.Close()
}

// startCluster starts (or, on an existing directory, restarts) the local
// cluster and dials a router with one connection per shard.
func startCluster(dir string) (*routedCluster, error) {
	c, err := local.Start(dir, local.Options{Shards: routedShards, Dims: 2})
	if err != nil {
		return nil, err
	}
	r, err := client.DialRouter(c.Seeds(), client.Options{PoolSize: 1, HealthInterval: -1})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &routedCluster{c: c, r: r}, nil
}

// load streams g's seeded records to the shards that own them with the
// bulk LOAD protocol, one pass over the generator per shard.
func (rc *routedCluster) load(g *gen) error {
	m := rc.r.Map()
	for i := range m.NumShards() {
		cl, err := client.Dial(m.Shards[i].Primary, client.Options{PoolSize: 1, HealthInterval: -1})
		if err != nil {
			return err
		}
		next, sent := g.seedKVs(), 0
		st, err := cl.Load(func() (bmeh.KV, bool, error) {
			for {
				kv, ok, err := next()
				if !ok || err != nil {
					return kv, ok, err
				}
				if m.ShardFor(cluster.Prefix(kv.Key, 2, 32)) == i {
					sent++
					return kv, true, nil
				}
			}
		}, client.LoadOptions{})
		cl.Close()
		if err != nil {
			return fmt.Errorf("loading shard %d: %w", i, err)
		}
		if st.Loaded+st.Duplicates != uint64(sent) {
			return fmt.Errorf("shard %d took %d+%d records of %d", i, st.Loaded, st.Duplicates, sent)
		}
	}
	return nil
}

// routerExec performs synchronous operations through the router.
func routerExec(rt *client.Router) execFn {
	return func(o op, r *ring, parent int, req uint64) (answer, error) {
		switch o.kind {
		case opGet:
			sp := r.begin("client.Router.Get", parent, req)
			v, ok, err := rt.Get(o.key)
			r.end(sp)
			return answer{value: v, found: ok}, err
		case opPut:
			sp := r.begin("client.Router.Put", parent, req)
			err := rt.Put(o.key, o.want)
			r.end(sp)
			return answer{}, err
		default:
			lo, hi := o.box.keys()
			sp := r.begin("client.Router.Range", parent, req)
			kvs, more, err := rt.Range(lo, hi, 0)
			r.end(sp)
			if err == nil && more {
				err = fmt.Errorf("RANGE answer truncated at %d keys", len(kvs))
			}
			return answer{kvs: kvs}, err
		}
	}
}

// straddlingBox places boxes across the 2-shard boundary (x = 2^31, the
// first bit of the pseudo-key), so every RANGE fans out to both shards
// and merges their answers.
func straddlingBox(g *gen) func(r *rand.Rand) box {
	return func(r *rand.Rand) box {
		bx := g.boxAround(1<<31, r.Uint32(), boxKeys)
		half := (bx.hi[0] - bx.lo[0]) / 2
		off := int64(r.Uint32N(half)) - int64(half/2)
		bx.lo[0] = uint32(int64(bx.lo[0]) + off)
		bx.hi[0] = uint32(int64(bx.hi[0]) + off)
		return bx
	}
}

// routed-mixed: a 2-shard local cluster of copy-on-write primaries
// seeded with ~200k uniform keys. Two goroutines issue synchronous
// operations through client.Router with one connection per shard: 60%
// GETs, 30% fresh PUTs, 10% RANGE boxes spanning both shards. It is the
// only workload through the router's prefix routing and k-way merge and
// the COW write path.
//
// The store the space and page-read metrics describe is the seeded one
// plus a warm-up of routedWarmOps operations per goroutine, so its size
// does not depend on how fast the window's fsync-bound PUTs ran.
//
// GET and RANGE latency are taken in a read phase of the same mix
// without its PUTs, before the mixed window. In the mixed window a GET
// also waits on the concurrent PUTs' commits, by an amount that follows
// the fsync latency of the runner's shared disk; that share moved the
// mixed window's GET p50 by a third between sets of runs of the same
// code. The mixed window gives the throughput and PUT latency, and its
// GET and RANGE p50 are kept in the report's environment. So is the peak
// memory over the whole run; peak_rss_mb is the peak before the mixed
// window.
func runRoutedMixed(b *bench) error {
	g := newGen(b.seed, uniform, 200_000)
	m := &mix{g: g, get: 0.6, put: 0.3, rangeBox: straddlingBox(g)}
	b.env["backend"] = "file"
	b.env["write_mode"] = "cow"
	b.env["cache_frames"] = 512
	b.env["shards"] = routedShards
	b.env["group_commit"] = "200µs / 64 writes"
	b.env["records"] = g.n
	dir := filepath.Join(b.dir, "cluster")

	var rc *routedCluster
	_, err := b.setup(setups, func(_ *ring) (func() error, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if rc, err = startCluster(dir); err != nil {
			return nil, err
		}
		if err := rc.load(g); err != nil {
			rc.close()
			return nil, err
		}
		return rc.close, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if rc != nil {
			rc.close()
		}
	}()
	// restart stops the cluster and starts it again on its files: every
	// acknowledged PUT must survive it, and the caches start empty.
	restart := func() error {
		err := rc.close()
		rc = nil
		if err != nil {
			return fmt.Errorf("stopping the cluster: %w", err)
		}
		if rc, err = startCluster(dir); err != nil {
			return fmt.Errorf("restarting the cluster: %w", err)
		}
		return nil
	}
	reads := func() (uint64, error) {
		sts, err := rc.r.ShardStats()
		var n uint64
		for _, s := range sts {
			n += s.Reads
		}
		return n, err
	}

	pr := &progress{}
	warm, _ := b.closedLoop(loopCfg{m: m, first: wWarmUp, n: clients, ops: routedWarmOps,
		sampleEvery: 4, maxSamples: 64}, pr, routerExec(rc.r))
	sts, err := rc.r.ShardStats()
	if err != nil {
		return err
	}
	var records uint64
	for _, s := range sts {
		records += s.Records
	}
	b.set("bytes_per_record", "B", float64(dirBytes(dir))/float64(records), int(records))
	if err := restart(); err != nil {
		return err
	}
	exec := routerExec(rc.r)
	rp, err := b.readProbe(m, pr, exec, reads)
	if err != nil {
		return err
	}
	readPhase, _ := b.closedLoop(loopCfg{m: withoutPuts(m), first: wReads, n: clients, d: b.window / probeShare,
		sampleEvery: 4, maxSamples: 256}, pr, exec)
	// Peak memory is taken before the mixed window: each PUT's new page
	// versions grow the decoded caches, and how many PUTs a timed window
	// completes follows the disk's fsync latency.
	b.set("peak_rss_mb", "MiB", peakRSSMiB(), 1)

	st0, err := rc.r.ShardStats()
	if err != nil {
		return err
	}
	bytes0 := dirBytes(dir)
	var untraced []*wlog
	logs := b.timed(func(first int, d time.Duration, traced bool) ([]*wlog, time.Duration) {
		l, el := b.closedLoop(loopCfg{m: m, first: first, n: clients, d: d, traced: traced,
			sampleEvery: 4, maxSamples: 256}, pr, exec)
		if !traced {
			untraced = l
		}
		return l, el
	})
	for _, op := range []string{"get", "range"} {
		b.env["mixed_"+op+"_p50_us"] = b.metrics[op+"_p50_us"].Value
	}
	b.setLatency("get", opGet, readPhase)
	b.setLatency("range", opRange, readPhase)
	st1, err := rc.r.ShardStats()
	if err != nil {
		return err
	}
	puts := putsOf(logs)
	b.serverStats(st0, st1, opsOf(logs), puts)
	b.set("pagestore.file_bytes_per_put", "B", float64(dirBytes(dir)-bytes0)/float64(puts), puts)
	b.coreStatsRemote(st1)
	logs = append(logs, warm...)
	logs = append(logs, readPhase...)
	logs = append(logs, rp)
	if err := b.check(g, logs, true, rc.r.Get); err != nil {
		return err
	}
	if b.trace {
		if err := b.routerOverhead(rc, untraced); err != nil {
			return err
		}
		b.clusterMetrics(untraced, rc.r.Map())
		b.codecMetrics(untraced, samplesOf(logs))
		// The shard primaries' options (internal/cluster/local).
		opts := bmeh.Options{Dims: 2, CacheFrames: 512, WriteMode: bmeh.WriteModeCOW,
			SyncPolicy: bmeh.SyncPolicy{Interval: 200 * time.Microsecond, MaxBatch: 64}}
		if err := b.replay(g, untraced, opts); err != nil {
			return err
		}
	}
	if err := restart(); err != nil {
		return err
	}
	if err := b.check(g, logs, true, rc.r.Get); err != nil {
		return err
	}
	b.env["peak_rss_mb_whole_run"] = peakRSSMiB()
	b.spanMetrics()
	if b.trace {
		b.clientOverheads(readPhase, untraced)
	}
	return nil
}

// dirBytes sums the cluster's index and WAL files.
func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".bmeh") || strings.HasSuffix(e.Name(), ".wal") {
			n += fileBytes(filepath.Join(dir, e.Name()))
		}
	}
	return n
}

// routerOverhead reads the same keys through the router and straight
// from the owning shard's primary, alternating, and sets the router's
// share of a GET.
func (b *bench) routerOverhead(rc *routedCluster, untraced []*wlog) error {
	m := rc.r.Map()
	direct := make([]*client.Client, m.NumShards())
	for i := range direct {
		cl, err := client.Dial(m.Shards[i].Primary, client.Options{PoolSize: 1, HealthInterval: -1})
		if err != nil {
			return err
		}
		defer cl.Close()
		direct[i] = cl
	}
	var keys []op
	for _, l := range untraced {
		replay(b.seed, l, func(_ int, o op, failed bool) {
			if o.kind == opGet && len(keys) < routerProbeOps {
				keys = append(keys, o)
			}
		})
	}
	r := b.tr.ring()
	for i, o := range keys {
		sp := r.begin("client.Router.Get/probe", -1, uint64(i))
		v1, ok1, err := rc.r.Get(o.key)
		r.end(sp)
		if err != nil {
			return err
		}
		cl := direct[m.ShardFor(cluster.Prefix(o.key, 2, 32))]
		sp = r.begin("client.Client.Get/probe", -1, uint64(i))
		v2, ok2, err := cl.Get(o.key)
		r.end(sp)
		if err != nil {
			return err
		}
		if ok1 != o.found || ok2 != o.found || (o.found && (v1 != o.want || v2 != o.want)) {
			return wrong(fmt.Errorf("GET %v: router (%d, %v), shard (%d, %v), want (%d, %v)", o.key, v1, ok1, v2, ok2, o.want, o.found))
		}
	}
	self := b.tr.selfTimes()
	rt, dt := self["client.Router.Get/probe"], self["client.Client.Get/probe"]
	if len(rt) > 0 && len(dt) > 0 {
		b.set("client.router_get_overhead_us", "us", (median(rt)-median(dt))/1e3, len(rt))
	}
	return nil
}

// clusterMetrics times the router's own steps on the run's inputs: the
// shard lookup for every key the window sent, the shard fan-out of its
// boxes, and the sort and k-way merge of the recorded RANGE answers
// split back into per-shard lists.
func (b *bench) clusterMetrics(logs []*wlog, m *cluster.Map) {
	r := b.tr.ring()
	var keys []bmeh.Key
	fanout, boxes := 0, 0
	for _, l := range logs {
		replay(b.seed, l, func(_ int, o op, _ bool) {
			switch o.kind {
			case opRange:
				lo, hi := o.box.keys()
				fanout += len(m.Overlapping(cluster.Prefix(lo, 2, 32), cluster.Prefix(hi, 2, 32)))
				boxes++
			default:
				if len(keys) < codecOps {
					keys = append(keys, o.key)
				}
			}
		})
	}
	if boxes > 0 {
		b.set("cluster.shards_per_range", "count", float64(fanout)/float64(boxes), boxes)
	}
	for i := 0; i+codecChunk <= len(keys); i += codecChunk {
		sp := r.begin("cluster.route", -1, uint64(i))
		for _, k := range keys[i : i+codecChunk] {
			sink += m.ShardFor(cluster.Prefix(k, 2, 32))
		}
		r.endN(sp, codecChunk)
	}
	for _, l := range logs {
		for i, s := range l.samples {
			if len(s.got) == 0 {
				continue
			}
			lists := make([][]wire.KV, m.NumShards())
			for _, kv := range s.got {
				j := m.ShardFor(cluster.Prefix(kv.Key, 2, 32))
				lists[j] = append(lists[j], wire.KV{Key: kv.Key, Value: kv.Value})
			}
			sp := r.begin("cluster.merge", -1, uint64(i))
			for _, list := range lists {
				cluster.SortKVs(list, 2, 32)
			}
			cluster.MergeOrdered(lists, 2, 32, 0)
			r.endN(sp, len(s.got))
		}
	}
}

// codecMetrics pushes the window's requests and responses through the
// public wire codec — frame and payload, encode and decode, both
// directions — and sets the codec time per operation type and the wire
// bytes per operation of the window's mix. RANGE answers come from the
// recorded samples.
func (b *bench) codecMetrics(window []*wlog, samples []rangeSample) {
	r := b.tr.ring()
	byKind := make(map[opKind][]op)
	count := make(map[opKind]int)
	for _, l := range window {
		replay(b.seed, l, func(_ int, o op, _ bool) {
			count[o.kind]++
			if len(byKind[o.kind]) < codecOps {
				byKind[o.kind] = append(byKind[o.kind], o)
			}
		})
	}
	var buf, pay []byte
	bytes := make(map[opKind]int)
	done := make(map[opKind]int)
	roundTrip := func(k opKind, req wire.Op, reqPay, respPay []byte) {
		buf = wire.AppendFrame(buf[:0], wire.Frame{Op: req, ID: uint64(done[k]), Payload: reqPay})
		f, _, _ := wire.DecodeFrame(buf, 0)
		bytes[k] += len(buf)
		switch req {
		case wire.OpGet:
			wire.DecodeGetReq(f.Payload)
		case wire.OpPut:
			wire.DecodePutReq(f.Payload)
		default:
			wire.DecodeRangeReq(f.Payload)
		}
		buf = wire.AppendFrame(buf[:0], wire.Frame{Op: req.Response(), ID: uint64(done[k]), Payload: respPay})
		f, _, _ = wire.DecodeFrame(buf, 0)
		bytes[k] += len(buf)
		_, body, _ := wire.DecodeStatus(f.Payload)
		switch req {
		case wire.OpGet:
			wire.DecodeGetRespBody(body)
		case wire.OpRange:
			wire.DecodeRangeRespBody(body)
		}
		done[k]++
	}
	timeChunks := func(name string, n int, one func(i int)) {
		for i := 0; i+codecChunk <= n; i += codecChunk {
			sp := r.begin(name, -1, uint64(i))
			for j := i; j < i+codecChunk; j++ {
				one(j)
			}
			r.endN(sp, codecChunk)
		}
	}
	gets, puts := byKind[opGet], byKind[opPut]
	timeChunks("wire.get_codec", len(gets), func(i int) {
		pay = wire.AppendGetReq(pay[:0], gets[i].key)
		roundTrip(opGet, wire.OpGet, pay, wire.AppendGetResp(nil, gets[i].want))
	})
	ok := wire.AppendStatus(nil, wire.StatusOK, "")
	timeChunks("wire.put_codec", len(puts), func(i int) {
		pay = wire.AppendPutReq(pay[:0], puts[i].key, puts[i].want)
		roundTrip(opPut, wire.OpPut, pay, ok)
	})
	// Few RANGE answers are recorded; cycle through them so that every
	// timed chunk is full.
	if len(samples) > 0 {
		timeChunks("wire.range_codec", max(len(samples), codecChunk), func(i int) {
			s := samples[i%len(samples)]
			kvs := make([]wire.KV, len(s.got))
			for j, kv := range s.got {
				kvs[j] = wire.KV{Key: kv.Key, Value: kv.Value}
			}
			lo, hi := s.box.keys()
			pay = wire.AppendRangeReq(pay[:0], lo, hi, 0)
			roundTrip(opRange, wire.OpRange, pay, wire.AppendRangeResp(nil, false, kvs))
		})
	}
	// Bytes per operation of the window's mix: each type's mean frame
	// bytes weighted by its share of the window.
	var total float64
	ops := 0
	for k, c := range count {
		if done[k] > 0 {
			total += float64(bytes[k]) / float64(done[k]) * float64(c)
			ops += c
		}
	}
	if ops > 0 {
		b.set("wire.bytes_per_op", "B", total/float64(ops), ops)
	}
}
