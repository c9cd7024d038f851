package main

import (
	"fmt"
	"path/filepath"
	"time"

	"bmeh"
	"bmeh/client"
)

// replayOps bounds the PUTs and GETs the traced run replays on an
// embedded index.
const replayOps = 8192

// clientOverheads sets the client-side share of a routed GET and PUT:
// the GET p50 of gets and the PUT p50 of puts, each minus the replayed
// embedded call doing the same work. A PUT waits for its whole coalesced
// batch, so its embedded share is the median replayed InsertBatchStatus
// call, which ends in the group-committed Sync.
func (b *bench) clientOverheads(gets, puts []*wlog) {
	if get, ok := b.metrics["bmeh.get_replay_us"]; ok {
		if v, n := slotPcts(seriesOf(gets, opGet), 0.5); n > 0 {
			b.set("client.get_overhead_us", "us", v[0]-get.Value, n)
		}
	}
	if b.batchUs > 0 {
		if v, n := slotPcts(seriesOf(puts, opPut), 0.5); n > 0 {
			b.set("client.put_overhead_us", "us", v[0]-b.batchUs, n)
		}
	}
}

// seedStore creates the store at path and bulk-loads g's seeded records.
func seedStore(path string, opts bmeh.Options, g *gen, dir string, r *ring) error {
	if err := removeStore(path); err != nil {
		return err
	}
	ix, err := bmeh.Create(path, opts)
	if err != nil {
		return err
	}
	if err := bulkLoad(ix, g, dir, r); err != nil {
		ix.Close()
		return err
	}
	return ix.Close()
}

// replay times the embedded index's share of the routed workload's work:
// the window's acknowledged PUTs, inserted in batches of the measured
// PUTs per commit the way the server's coalescer does, and the window's
// GET keys. The replay index holds the workload's seeded records and is
// opened with the server's options.
func (b *bench) replay(g *gen, untraced []*wlog, opts bmeh.Options) error {
	path := filepath.Join(b.dir, "replay.bmeh")
	r := b.tr.ring()
	if err := seedStore(path, bmeh.Options{Dims: 2}, g, b.dir, nil); err != nil {
		return err
	}
	ix, err := bmeh.OpenWithOptions(path, opts)
	if err != nil {
		return err
	}
	defer ix.Close()

	var puts, gets []op
	for _, l := range untraced {
		replay(b.seed, l, func(_ int, o op, failed bool) {
			switch {
			case failed:
			case o.kind == opPut && len(puts) < replayOps:
				puts = append(puts, o)
			case o.kind == opGet && len(gets) < replayOps:
				gets = append(gets, o)
			}
		})
	}
	batch := int(b.metrics["server.puts_per_commit"].Value + 0.5)
	batch = max(batch, 1)
	var batchTimes []float64
	for i := 0; i < len(puts); i += batch {
		end := min(i+batch, len(puts))
		kvs := make([]bmeh.KV, 0, end-i)
		for _, o := range puts[i:end] {
			kvs = append(kvs, bmeh.KV{Key: o.key, Value: o.want})
		}
		sp := r.begin("bmeh.InsertBatchStatus", -1, uint64(i))
		t0 := time.Now()
		n, _, err := ix.InsertBatchStatus(kvs)
		batchTimes = append(batchTimes, float64(time.Since(t0))/1e3)
		r.endN(sp, len(kvs))
		if err != nil {
			return fmt.Errorf("replaying PUTs: %w", err)
		}
		if n != len(kvs) {
			return wrong(fmt.Errorf("replay stored %d of %d fresh keys", n, len(kvs)))
		}
		sp = r.begin("bmeh.Sync", -1, uint64(i))
		err = ix.Sync()
		r.end(sp)
		if err != nil {
			return fmt.Errorf("replaying PUTs: %w", err)
		}
	}
	b.batchUs = median(batchTimes)

	// One untimed pass warms the caches the way the window did.
	for pass := 0; pass < 2; pass++ {
		p0, _ := ix.PoolStats()
		for i, o := range gets {
			sp := -1
			if pass == 1 {
				sp = r.begin("bmeh.Get/replay", -1, uint64(i))
			}
			v, ok, err := ix.Get(o.key)
			r.end(sp)
			if err != nil {
				return fmt.Errorf("replaying GETs: %w", err)
			}
			if ok != o.found || (ok && v != o.want) {
				return wrong(fmt.Errorf("replayed GET %v reads (%d, %v), want (%d, %v)", o.key, v, ok, o.want, o.found))
			}
		}
		p1, _ := ix.PoolStats()
		if pass == 1 && len(gets) > 0 {
			acc := p1.Hits + p1.Misses - p0.Hits - p0.Misses
			if acc > 0 {
				b.set("pagestore.pool_hit_ratio", "ratio", float64(p1.Hits-p0.Hits)/float64(acc), int(acc))
			}
			b.set("pagestore.pool_evictions_per_op", "count", float64(p1.Evictions-p0.Evictions)/float64(len(gets)), len(gets))
		}
	}
	return nil
}

// putsOf counts the logs' acknowledged PUTs.
func putsOf(logs []*wlog) int {
	n := 0
	for _, l := range logs {
		n += l.lat[opPut].n()
	}
	return n
}

// serverStats sets the server and page-store metrics from STATS taken
// before and after the window, summed over nodes.
func (b *bench) serverStats(before, after []client.Stats, ops, puts int) {
	var commits, epochs, reads, writes uint64
	reclaim, pinned := 0, 0
	for i := range after {
		commits += after[i].CommitSeq - before[i].CommitSeq
		epochs += after[i].Epoch - before[i].Epoch
		reads += after[i].Reads - before[i].Reads
		writes += after[i].Writes - before[i].Writes
		reclaim += after[i].ReclaimablePages
		pinned += after[i].PinnedEpochs
	}
	secs := b.window.Seconds()
	if commits > 0 {
		b.set("server.puts_per_commit", "count", float64(puts)/float64(commits), int(commits))
	}
	b.set("server.commits_per_s", "1/s", float64(commits)/secs, int(commits))
	b.set("server.epochs_per_put", "count", float64(epochs)/float64(max(puts, 1)), puts)
	b.set("server.reclaimable_pages", "count", float64(reclaim), len(after))
	b.set("server.pinned_epochs", "count", float64(pinned), len(after))
	b.set("pagestore.reads_per_op", "count", float64(reads)/float64(ops), ops)
	b.set("pagestore.writes_per_put", "count", float64(writes)/float64(max(puts, 1)), puts)
}

// coreStatsRemote sets the core layer's counts from STATS, summed over
// nodes.
func (b *bench) coreStatsRemote(sts []client.Stats) {
	var st bmeh.Stats
	for _, s := range sts {
		st.Records += int(s.Records)
		st.DirectoryElements += int(s.DirectoryElements)
		st.DirectoryPages += s.DirectoryPages
		st.DataPages += s.DataPages
		st.DirectoryLevels = max(st.DirectoryLevels, s.DirectoryLevels)
	}
	if st.DataPages > 0 {
		st.LoadFactor = float64(st.Records) / float64(st.DataPages*32)
	}
	b.coreStats(st)
}
