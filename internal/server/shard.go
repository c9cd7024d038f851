package server

import (
	"errors"
	"sort"

	"bmeh"
	"bmeh/internal/cluster"
	"bmeh/internal/wire"
)

// Cluster control-plane ops. SHARD_MAP is data-plane adjacent (clients
// refresh routing from any node); the rest are issued by the split
// controller (cmd/bmehcluster or the in-process harness).

// sendWrongShard answers a request for a key this node does not own
// (or a write into a fenced range) with the node's current map epoch,
// so the client can tell a stale cached map from a not-yet-flipped one.
func (c *conn) sendWrongShard(op wire.Op, id uint64) {
	c.send(op, id, wire.AppendWrongShardResp(nil, c.srv.shard.Epoch()))
}

// writesAllowed reports whether every record of a multi-record write
// (BATCH, LOAD_CHUNK) may land here: each key must be owned and outside
// any write fence. Such writes are all-or-nothing, so one foreign key
// refuses the whole request before any of it is applied or staged.
func (c *conn) writesAllowed(kvs []wire.KV) bool {
	for _, kv := range kvs {
		if !c.srv.shard.WriteAllowed(kv.Key) {
			return false
		}
	}
	return true
}

func (c *conn) dispatchShard(fr wire.Frame) {
	switch fr.Op {
	case wire.OpShardMap:
		if len(fr.Payload) != 0 {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, "SHARD_MAP takes no payload")
			return
		}
		_, m, ok := c.srv.shard.Snapshot()
		if !ok {
			c.sendStatus(fr.Op, fr.ID, wire.StatusNotFound, "")
			return
		}
		c.send(fr.Op, fr.ID, wire.AppendShardMapResp(nil, cluster.AppendMap(nil, m)))

	case wire.OpShardMapSet:
		id, blob, err := wire.DecodeShardMapSetReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		m, err := cluster.DecodeMap(blob)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		epoch, adopted := c.srv.shard.Adopt(id, m)
		if adopted {
			c.srv.cfg.Logf("server: adopted shard map epoch %d as shard %d", epoch, id)
		}
		c.send(fr.Op, fr.ID, wire.AppendShardEpochResp(nil, epoch))

	case wire.OpShardMedian:
		// O(records): runs off the reader goroutine like BATCH, so a big
		// scan cannot stall requests pipelined behind it.
		if len(fr.Payload) != 0 {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, "SHARD_MEDIAN takes no payload")
			return
		}
		id := fr.ID
		c.pending.Add(1)
		go func() {
			defer c.pending.Done()
			median, owned, err := c.srv.shardMedian()
			if err != nil {
				c.sendStatus(wire.OpShardMedian, id, wire.StatusErr, err.Error())
				return
			}
			c.send(wire.OpShardMedian, id, wire.AppendShardMedianResp(nil, median, owned))
		}()

	case wire.OpShardFence:
		lo, hi, err := wire.DecodeShardFenceReq(fr.Payload)
		if err != nil {
			c.sendStatus(fr.Op, fr.ID, wire.StatusErr, err.Error())
			return
		}
		c.srv.shard.SetFence(lo, hi)
		c.sendStatus(fr.Op, fr.ID, wire.StatusOK, "")
	}
}

// shardMedian computes the median pseudo-key prefix over this node's
// owned records — the boundary a split at this shard would use. Under
// WriteModeCOW the walk runs against a pinned snapshot (one consistent
// cut, no tree locks held); other modes scan the live index. Records
// outside the owned range (in transit from an earlier split) are
// excluded so the boundary bisects the data the shard actually serves.
func (s *Server) shardMedian() (median, owned uint64, err error) {
	opts := s.ix.Options()
	dims, width := opts.Dims, opts.Width
	lo := make(bmeh.Key, dims)
	hi := make(bmeh.Key, dims)
	maxComp := ^uint64(0)
	if width < 64 {
		maxComp = 1<<uint(width) - 1
	}
	for j := range hi {
		hi[j] = maxComp
	}
	shardLo, shardHi, clustered := s.shard.OwnedRange()

	prefixes := make([]uint64, 0, 1024)
	collect := func(k bmeh.Key, _ uint64) bool {
		p := cluster.Prefix(k, dims, width)
		if !clustered || cluster.InRange(p, shardLo, shardHi) {
			prefixes = append(prefixes, p)
		}
		return true
	}
	if snap, serr := s.ix.Snapshot(); serr == nil {
		err = snap.Range(lo, hi, collect)
		snap.Close()
	} else {
		err = s.ix.Range(lo, hi, collect)
	}
	if err != nil {
		return 0, 0, err
	}
	if len(prefixes) == 0 {
		return 0, 0, errors.New("no owned records to split")
	}
	// The scan yields pseudo-key order already; sorting is a cheap
	// guarantee rather than an assumption.
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	return prefixes[len(prefixes)/2], uint64(len(prefixes)), nil
}
