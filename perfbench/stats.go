package main

import (
	"slices"
	"time"
)

// latCap bounds the samples one goroutine keeps per operation type and
// time slot, so that the benchmark's own buffers stay a small part of the
// process's resident memory (at most 16 KiB each).
const latCap = 1 << 12

// lat collects one goroutine's latency samples in nanoseconds. It keeps
// every sample until latCap, then a systematic sample: each time the
// buffer fills, every other sample is dropped and the recording stride
// doubles. Memory stays bounded, percentiles stay exact over the kept
// samples, and n still counts every operation.
type lat struct {
	s      []uint32
	stride int // record one operation in stride (0 means 1)
	skip   int
	n      int
}

func (l *lat) add(d time.Duration) {
	l.n++
	if l.skip > 0 {
		l.skip--
		return
	}
	l.stride = max(l.stride, 1)
	l.skip = l.stride - 1
	if d > time.Duration(^uint32(0)) {
		d = time.Duration(^uint32(0))
	}
	l.s = append(l.s, uint32(d))
	if len(l.s) == latCap {
		l.halve()
	}
}

// halve drops every other sample and doubles the stride.
func (l *lat) halve() {
	for i := 0; 2*i < len(l.s); i++ {
		l.s[i] = l.s[2*i]
	}
	l.s = l.s[:(len(l.s)+1)/2]
	l.stride = max(l.stride, 1) * 2
}

// Every timed phase is cut into nSlots equal time slots. A reported
// timing is the median over slots of that slot's value, so a burst of
// interference from outside the program (this benchmark runs on shared
// CPUs) moves it far less than it moves a whole-window figure.
const nSlots = 10

// minSlotSamples is the fewest samples a slot's percentiles are taken
// over, so a p99 has at least ten samples beyond it; sparse operation
// types are cut into fewer, wider slots.
const minSlotSamples = 1000

// slotOf returns the slot of an event at offset t into a phase of length
// d; events after the phase's end (in-flight operations draining) count
// in the last slot. Phases bounded by a count (d == 0) have one slot.
func slotOf(t, d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return min(int(t*nSlots/d), nSlots-1)
}

// series is one goroutine's latencies of one operation type, per slot.
type series [nSlots]lat

func (s *series) n() int {
	n := 0
	for i := range s {
		n += s[i].n
	}
	return n
}

// slotPcts returns, for each quantile q, the median over slots of each
// slot's q-quantile (in microseconds), and the total sample count, for
// the goroutines' series of one operation type.
func slotPcts(parts []*series, qs ...float64) (vals []float64, n int) {
	per, n := slotQuantiles(parts, qs...)
	vals = make([]float64, len(qs))
	for i := range qs {
		vals[i] = median(per[i])
	}
	return vals, n
}

// slotQuantiles returns, for each quantile q, each slot's q-quantile in
// microseconds, and the total sample count. Slots are grouped so that
// each group holds at least minSlotSamples operations where the total
// allows.
func slotQuantiles(parts []*series, qs ...float64) (per [][]float64, n int) {
	for _, p := range parts {
		n += p.n()
	}
	per = make([][]float64, len(qs))
	if n == 0 {
		return per, 0
	}
	groups := max(1, min(nSlots, n/minSlotSamples))
	for g := 0; g < groups; g++ {
		var lats []lat
		for _, p := range parts {
			for i := g * nSlots / groups; i < (g+1)*nSlots/groups; i++ {
				lats = append(lats, p[i])
			}
		}
		if d := merge(lats...); len(d) > 0 {
			for i, q := range qs {
				per[i] = append(per[i], d.pct(q))
			}
		}
	}
	return per, n
}

// latDist is a sorted latency distribution merged from per-goroutine
// samples.
type latDist []uint32

// merge combines goroutines' samples. Samples from a goroutine that
// recorded at a finer stride are thinned to the coarsest stride first,
// so every kept sample stands for the same number of operations.
func merge(parts ...lat) latDist {
	stride, n := 1, 0
	for _, p := range parts {
		stride = max(stride, p.stride)
	}
	for i := range parts {
		parts[i].s = slices.Clone(parts[i].s)
		for max(parts[i].stride, 1) < stride {
			parts[i].halve()
		}
		n += len(parts[i].s)
	}
	out := make(latDist, 0, n)
	for _, p := range parts {
		out = append(out, p.s...)
	}
	slices.Sort(out)
	return out
}

// pct returns the q-quantile (0..1) in microseconds, interpolating
// between the two nearest samples.
func (d latDist) pct(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	pos := q * float64(len(d)-1)
	i := int(pos)
	if i+1 >= len(d) {
		return float64(d[len(d)-1]) / 1e3
	}
	f := pos - float64(i)
	return (float64(d[i])*(1-f) + float64(d[i+1])*f) / 1e3
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
