package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"bmeh"
	"bmeh/internal/cluster"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opRange
)

// op is one generated request together with the answer the model
// expects for it.
type op struct {
	kind opKind
	key  bmeh.Key // GET and PUT
	// found is whether a GET's key is seeded (absent keys never are);
	// want is the value a present key or a PUT carries.
	found bool
	want  uint64
	fresh int // PUT: the goroutine's PUT sequence number
	box   box // RANGE
}

// mix is a workload's operation stream: shares of GET and PUT (RANGE
// takes the rest), how GET keys are drawn and where RANGE boxes go.
type mix struct {
	g        *gen
	get, put float64
	absent   float64 // share of GETs that ask for an absent key
	zipf     bool    // Zipf-skewed GET keys instead of uniform
	rangeBox func(r *rand.Rand) box
}

// stream generates one client goroutine's operations. It depends only
// on the seed and the goroutine's number, never on results, so a check
// can regenerate exactly the operations a goroutine issued.
type stream struct {
	m    *mix
	w    int
	r    *rand.Rand
	z    *rand.Zipf
	puts int
}

func (m *mix) stream(seed uint64, w int) *stream {
	r := rand.New(rand.NewPCG(seed, uint64(w)+1))
	s := &stream{m: m, w: w, r: r}
	if m.zipf {
		s.z = rand.NewZipf(r, 1.1, 100, uint64(m.g.n-1))
	}
	return s
}

func (s *stream) next() op {
	u := s.r.Float64()
	g := s.m.g
	switch {
	case u < s.m.get:
		if s.r.Float64() < s.m.absent {
			k := g.absentKey(s.r.IntN(1 << 30))
			return op{kind: opGet, key: k}
		}
		var i int
		if s.z != nil {
			i = int(s.z.Uint64())
		} else {
			i = s.r.IntN(g.n)
		}
		k := g.seedKey(i)
		return op{kind: opGet, key: k, found: true, want: g.value(k)}
	case u < s.m.get+s.m.put:
		k := g.freshKey(freshIndex(s.w, s.puts))
		o := op{kind: opPut, key: k, want: g.value(k), fresh: s.puts}
		s.puts++
		return o
	default:
		return op{kind: opRange, box: s.m.rangeBox(s.r)}
	}
}

// wlog is what one client goroutine records while the clock runs: raw
// latencies, a fold of every GET answer, and the few facts the checks
// need afterwards. Nothing is checked inside the timed window.
type wlog struct {
	m       *mix
	w       int       // stream number
	lat     [3]series // by opKind
	slotOps [nSlots]int
	span    time.Duration // the phase's length (0: bounded by a count)
	fold    uint64        // sum of getTerm over every successful GET
	n       int           // operations issued
	failed  []int         // sequence numbers of operations that returned an error
	samples []rangeSample
}

// done records a successful operation of the given kind that took el
// and completed at offset t into the phase.
func (l *wlog) done(kind opKind, t, el time.Duration) {
	slot := slotOf(t, l.span)
	l.lat[kind][slot].add(el)
	l.slotOps[slot]++
}

// rangeSample is a recorded RANGE answer. Fresh keys that PUTs were
// writing while the query ran may or may not appear: goroutine w's PUTs
// numbered below lo[w] had been acknowledged when the query was sent and
// must appear; those at or above hi[w] had not been sent when it
// returned and must not.
type rangeSample struct {
	box    box
	got    []bmeh.KV
	lo, hi []int
}

// getTerm is one GET answer's share of a log's fold. Terms are summed,
// so answers can be folded in completion order; the operation's
// sequence number i ties each answer to its request.
func getTerm(i int, v uint64, found bool) uint64 {
	if !found {
		v = ^v
	}
	return mix64(uint64(i)*0x9e3779b97f4a7c15 ^ v)
}

// expectGets regenerates the operations a log's stream issued and
// returns the fold of the answers the model gives for its successful
// GETs.
func expectGets(seed uint64, l *wlog) uint64 {
	var fold uint64
	replay(seed, l, func(i int, o op, failed bool) {
		if o.kind == opGet && !failed {
			fold += getTerm(i, o.want, o.found)
		}
	})
	return fold
}

// replay regenerates the operations a log's stream issued, flagging
// those that returned an error.
func replay(seed uint64, l *wlog, fn func(i int, o op, failed bool)) {
	s := l.m.stream(seed, l.w)
	f := 0
	for i := 0; i < l.n; i++ {
		o := s.next()
		bad := f < len(l.failed) && l.failed[f] == i
		if bad {
			f++
		}
		fn(i, o, bad)
	}
}

// checkGets fails when any GET answer (value or presence) differs from
// the model.
func checkGets(seed uint64, logs []*wlog) error {
	for _, l := range logs {
		if want := expectGets(seed, l); want != l.fold {
			return fmt.Errorf("stream %d: GET answers differ from the model (fold %016x, want %016x)", l.w, l.fold, want)
		}
	}
	return nil
}

// replayPuts regenerates every log's PUTs and returns the fresh keys
// whose PUT was acknowledged, and the freshIndex of every PUT that
// failed.
func replayPuts(seed uint64, logs []*wlog) (acked []bmeh.Key, failed map[int]bool) {
	failed = make(map[int]bool)
	for _, l := range logs {
		replay(seed, l, func(_ int, o op, bad bool) {
			switch {
			case o.kind != opPut:
			case bad:
				failed[freshIndex(l.w, o.fresh)] = true
			default:
				acked = append(acked, o.key)
			}
		})
	}
	return acked, failed
}

// checkReadBack fails unless every key reads back with its value.
func checkReadBack(g *gen, keys []bmeh.Key, get func(bmeh.Key) (uint64, bool, error)) error {
	for _, k := range keys {
		v, ok, err := get(k)
		if err != nil {
			return fmt.Errorf("reading back %v: %w", k, err)
		}
		if !ok {
			return fmt.Errorf("acknowledged PUT %v is missing", k)
		}
		if v != g.value(k) {
			return fmt.Errorf("acknowledged PUT %v reads %d, want %d", k, v, g.value(k))
		}
	}
	return nil
}

// checkRanges compares each recorded RANGE answer with the model's key
// set for its box. ordered additionally requires pseudo-key order, the
// order a routed query merges its shards' answers into.
func checkRanges(g *gen, samples []rangeSample, failed map[int]bool, ordered bool) error {
	if len(samples) == 0 {
		return nil
	}
	boxes := make([]box, len(samples))
	for i, s := range samples {
		boxes[i] = s.box
	}
	seeded := seedsIn(g, boxes)
	for i, s := range samples {
		if err := checkRange(g, s, seeded[i], failed, ordered); err != nil {
			return fmt.Errorf("RANGE %v-%v: %w", s.box.lo, s.box.hi, err)
		}
	}
	return nil
}

// seedsIn returns, per box, the seeded keys inside it, in one pass over
// the regenerated seed set. Boxes are bucketed by the top byte of x so
// each key is tested only against the few boxes near it.
func seedsIn(g *gen, boxes []box) [][][2]uint32 {
	var buckets [256][]int
	for b, bx := range boxes {
		for k := bx.lo[0] >> 24; k <= bx.hi[0]>>24; k++ {
			buckets[k] = append(buckets[k], b)
		}
	}
	out := make([][][2]uint32, len(boxes))
	for i := 0; i < g.n; i++ {
		x, y := g.xy(tagSeed, i)
		for _, b := range buckets[x>>24] {
			if boxes[b].contains(x, y) {
				out[b] = append(out[b], [2]uint32{x, y})
			}
		}
	}
	return out
}

func checkRange(g *gen, s rangeSample, seeded [][2]uint32, failed map[int]bool, ordered bool) error {
	must := make(map[[2]uint32]bool, len(seeded))
	for _, k := range seeded {
		must[k] = true
	}
	may := make(map[[2]uint32]bool)
	for w := range s.hi {
		for j := 0; j < s.hi[w]; j++ {
			x, y := g.xy(tagFresh, freshIndex(w, j))
			if !s.box.contains(x, y) {
				continue
			}
			if j < s.lo[w] && !failed[freshIndex(w, j)] {
				must[[2]uint32{x, y}] = true
			} else {
				may[[2]uint32{x, y}] = true
			}
		}
	}
	seen := make(map[[2]uint32]bool, len(s.got))
	for i, kv := range s.got {
		if len(kv.Key) != 2 || kv.Key[0] > 1<<32-1 || kv.Key[1] > 1<<32-1 {
			return fmt.Errorf("malformed key %v", kv.Key)
		}
		k := [2]uint32{uint32(kv.Key[0]), uint32(kv.Key[1])}
		switch {
		case seen[k]:
			return fmt.Errorf("key %v returned twice", kv.Key)
		case !must[k] && !may[k]:
			return fmt.Errorf("key %v is not in the box's model set", kv.Key)
		case kv.Value != g.value(kv.Key):
			return fmt.Errorf("key %v carries %d, want %d", kv.Key, kv.Value, g.value(kv.Key))
		case ordered && i > 0 && cluster.CompareKeys(s.got[i-1].Key, kv.Key, 2, 32) >= 0:
			return fmt.Errorf("key %v is out of pseudo-key order", kv.Key)
		}
		seen[k] = true
	}
	for k := range must {
		if !seen[k] {
			return fmt.Errorf("model key %v is missing (%d returned, %d required)", k, len(s.got), len(must))
		}
	}
	return nil
}
