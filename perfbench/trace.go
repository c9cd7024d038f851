package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is the index of the enclosing span in the
// same recorder, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	// N is how many items the call covered (records in a batch, ops in
	// a timed codec chunk); per-item figures divide by it.
	N int32 `json:"n"`
}

// tracer keeps spans in memory, one ring per client goroutine, so
// recording never contends. A nil *tracer records nothing: untraced
// runs pass nil and pay only the nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	rings []*ring
}

// ring holds a goroutine's most recent spans. A full ring overwrites
// its oldest spans, so memory stays fixed however long the run; parent
// links into an overwritten span are dropped when self time is taken.
type ring struct {
	t     *tracer
	spans []span
	seq   int // total spans ever begun
}

const ringSize = 1 << 14

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ring returns a fresh span ring for one goroutine.
func (t *tracer) ring() *ring {
	if t == nil {
		return nil
	}
	r := &ring{t: t, spans: make([]span, ringSize)}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// begin opens a span and returns its sequence number for end.
func (r *ring) begin(name string, parent int, req uint64) int {
	if r == nil {
		return -1
	}
	id := r.seq
	r.spans[id%ringSize] = span{Name: name, Start: int64(time.Since(r.t.epoch)), Parent: int32(parent), Req: req, N: 1}
	r.seq++
	return id
}

func (r *ring) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id%ringSize].End = int64(time.Since(r.t.epoch))
}

// endN closes a span that covered n items.
func (r *ring) endN(id, n int) {
	if r == nil || id < 0 {
		return
	}
	s := &r.spans[id%ringSize]
	s.End = int64(time.Since(r.t.epoch))
	s.N = int32(n)
}

// retained returns the ring's live spans in order, with parent links
// rebased to positions in the returned slice.
func (r *ring) retained() []span {
	first := 0
	if r.seq > ringSize {
		first = r.seq - ringSize
	}
	out := make([]span, 0, r.seq-first)
	for id := first; id < r.seq; id++ {
		s := r.spans[id%ringSize]
		if int(s.Parent) < first {
			s.Parent = -1
		} else {
			s.Parent -= int32(first)
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns, per span name, each span's self time in
// nanoseconds divided by its item count: duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	for _, r := range t.rings {
		spans := r.retained()
		children := make(map[int][]int)
		for i, s := range spans {
			if s.Parent >= 0 {
				children[int(s.Parent)] = append(children[int(s.Parent)], i)
			}
		}
		for i, s := range spans {
			if s.End == 0 {
				continue // never closed: the call failed
			}
			self := float64(s.End-s.Start) - covered(spans, children[i], s)
			out[s.Name] = append(out[s.Name], self/float64(s.N))
		}
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals spans.
func covered(spans []span, kids []int, parent span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s := spans[k]
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return float64(total)
}

// write stores every retained span as JSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, r := range t.rings {
		if err := enc.Encode(struct {
			Ring  int    `json:"ring"`
			Spans []span `json:"spans"`
		}{i, r.retained()}); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return f.Close()
}

// spanLayers maps per-layer metrics to the spans they are taken from:
// the median self time per item, scaled to the metric's unit.
var spanLayers = []struct {
	metric, span, unit string
	scale              float64 // nanoseconds per unit
}{
	{"bmeh.get_us", "bmeh.Get", "us", 1e3},
	{"bmeh.range_us", "bmeh.Range", "us", 1e3},
	{"bmeh.insert_batch_us_per_record", "bmeh.InsertBatch", "us", 1e3},
	{"bmeh.bulkload_us_per_record", "bmeh.BulkLoad", "us", 1e3},
	{"bmeh.put_replay_us", "bmeh.InsertBatchStatus", "us", 1e3},
	{"bmeh.sync_us", "bmeh.Sync", "us", 1e3},
	{"bmeh.get_replay_us", "bmeh.Get/replay", "us", 1e3},
	{"wire.get_codec_ns", "wire.get_codec", "ns", 1},
	{"wire.put_codec_ns", "wire.put_codec", "ns", 1},
	{"wire.range_codec_ns", "wire.range_codec", "ns", 1},
	{"cluster.route_ns", "cluster.route", "ns", 1},
	{"cluster.merge_ns_per_key", "cluster.merge", "ns", 1},
}

// spanMetrics sets every span-derived per-layer metric whose spans the
// run recorded.
func (b *bench) spanMetrics() {
	if !b.trace {
		return
	}
	self := b.tr.selfTimes()
	for _, l := range spanLayers {
		if xs := self[l.span]; len(xs) > 0 {
			b.set(l.metric, l.unit, median(xs)/l.scale, len(xs))
		}
	}
}
