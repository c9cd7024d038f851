package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"

	"bmeh"
	"bmeh/internal/cluster"
)

// model is a correct in-memory system under test: it answers from the
// generator and stores PUTs in a map. Its fault hooks corrupt one answer
// so each check can be shown to fail.
type model struct {
	g  *gen
	mu sync.Mutex
	kv map[[2]uint64]uint64
	// wrongGet, when positive, makes the wrongGet-th GET return a wrong
	// value; dropKeyInRange drops one key from every RANGE answer.
	gets           int
	wrongGet       int
	dropKeyInRange bool
}

func newModel(g *gen) *model {
	m := &model{g: g, kv: make(map[[2]uint64]uint64)}
	for i := 0; i < g.n; i++ {
		k := g.seedKey(i)
		m.kv[[2]uint64{k[0], k[1]}] = g.value(k)
	}
	return m
}

func (m *model) get(k bmeh.Key) (uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.kv[[2]uint64{k[0], k[1]}]
	return v, ok, nil
}

func (m *model) exec(o op, _ *ring, _ int, _ uint64) (answer, error) {
	switch o.kind {
	case opGet:
		v, ok, _ := m.get(o.key)
		m.mu.Lock()
		m.gets++
		if m.gets == m.wrongGet {
			v++
		}
		m.mu.Unlock()
		return answer{value: v, found: ok}, nil
	case opPut:
		m.mu.Lock()
		m.kv[[2]uint64{o.key[0], o.key[1]}] = o.want
		m.mu.Unlock()
		return answer{}, nil
	default:
		m.mu.Lock()
		defer m.mu.Unlock()
		var kvs []bmeh.KV
		for k, v := range m.kv {
			if o.box.contains(uint32(k[0]), uint32(k[1])) {
				kvs = append(kvs, bmeh.KV{Key: bmeh.Key{k[0], k[1]}, Value: v})
			}
		}
		if m.dropKeyInRange && len(kvs) > 0 {
			kvs = kvs[1:]
		}
		return answer{kvs: kvs}, nil
	}
}

// runModel drives the model with a mixed workload on two goroutines
// and runs every correctness check over the answers.
func runModel(t *testing.T, m *model, readBack func(bmeh.Key) (uint64, bool, error)) error {
	t.Helper()
	b := &bench{seed: 7, metrics: make(map[string]metric)}
	mx := &mix{g: m.g, get: 0.5, put: 0.3, absent: 0.2, rangeBox: uniformBox(m.g)}
	cfg := loopCfg{m: mx, first: wUntraced, n: clients, ops: 2000, sampleEvery: 1, maxSamples: 1000}
	logs, _ := b.closedLoop(cfg, &progress{}, m.exec)
	if readBack == nil {
		readBack = m.get
	}
	return b.check(m.g, logs, false, readBack)
}

func isWrong(err error) bool {
	var w *wrongResult
	return errors.As(err, &w)
}

func TestChecksPassOnCorrectAnswers(t *testing.T) {
	m := newModel(newGen(7, uniform, 2000))
	if err := runModel(t, m, nil); err != nil {
		t.Fatalf("correct answers failed a check: %v", err)
	}
}

func TestWrongGetValueFails(t *testing.T) {
	m := newModel(newGen(7, uniform, 2000))
	m.wrongGet = 500
	if err := runModel(t, m, nil); !isWrong(err) {
		t.Fatalf("a wrong GET value passed: %v", err)
	}
}

func TestMissingRangeKeyFails(t *testing.T) {
	m := newModel(newGen(7, uniform, 2000))
	m.dropKeyInRange = true
	if err := runModel(t, m, nil); !isWrong(err) {
		t.Fatalf("a RANGE answer missing a key passed: %v", err)
	}
}

func TestDroppedAckedPutFails(t *testing.T) {
	m := newModel(newGen(7, uniform, 2000))
	var dropped bmeh.Key
	readBack := func(k bmeh.Key) (uint64, bool, error) {
		if k[1]&tagMask == tagFresh && dropped == nil {
			dropped = k // the store lost this acknowledged PUT
			return 0, false, nil
		}
		return m.get(k)
	}
	if err := runModel(t, m, readBack); !isWrong(err) {
		t.Fatalf("a dropped acknowledged PUT passed: %v", err)
	}
	if dropped == nil {
		t.Fatal("the workload acknowledged no PUT")
	}
}

func TestRangeOrderIsChecked(t *testing.T) {
	g := newGen(7, uniform, 2000)
	bx := box{hi: [2]uint32{1<<32 - 1, 1<<32 - 1}}
	var got []bmeh.KV
	for j := 0; j < g.n; j++ {
		k := g.seedKey(j)
		got = append(got, bmeh.KV{Key: k, Value: g.value(k)})
	}
	sample := rangeSample{box: bx, got: got, lo: make([]int, maxWorkers), hi: make([]int, maxWorkers)}
	slices.SortFunc(sample.got, func(a, b bmeh.KV) int { return cluster.CompareKeys(a.Key, b.Key, 2, 32) })
	if err := checkRanges(g, []rangeSample{sample}, nil, true); err != nil {
		t.Fatalf("an ordered answer failed: %v", err)
	}
	sample.got[0], sample.got[1] = sample.got[1], sample.got[0]
	if err := checkRanges(g, []rangeSample{sample}, nil, true); err == nil {
		t.Fatal("an answer out of pseudo-key order passed")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, d := range []dist{uniform, normal} {
		a, b := newGen(11, d, 100), newGen(11, d, 100)
		for i := 0; i < 100; i++ {
			ka, kb := a.seedKey(i), b.seedKey(i)
			if ka[0] != kb[0] || ka[1] != kb[1] || a.value(ka) != b.value(kb) {
				t.Fatalf("dist %d key %d differs between generators with one seed", d, i)
			}
			if ka[1]&tagMask != tagSeed || a.freshKey(i)[1]&tagMask != tagFresh || a.absentKey(i)[1]&tagMask != tagAbsent {
				t.Fatalf("key %d carries the wrong class tag", i)
			}
		}
		if c := newGen(12, d, 100); c.seedKey(0)[0] == a.seedKey(0)[0] {
			t.Fatalf("dist %d: seeds 11 and 12 gave the same first key", d)
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric lists and workload names in
// BENCHMARK.json and in the program identical.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricName, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames(), w.Name) {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
