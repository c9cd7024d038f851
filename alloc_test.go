package bmeh

import (
	"path/filepath"
	"testing"

	"bmeh/internal/bitkey"
	"bmeh/internal/latch"
)

// TestWarmReadAllocs guards the zero-allocation warm read path: once the
// decoded caches hold the working set, an exact-match Get allocates
// nothing, and neither does any data page a Range visits beyond the first,
// on the in-memory index (whose store accounts every read) and on the
// file-backed one alike.
func TestWarmReadAllocs(t *testing.T) {
	if raceEnabled || latch.Debug {
		t.Skip("the -race and latchdebug builds allocate on their own")
	}
	opts := Options{Dims: 2, PageCapacity: 32}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (*Index, error)
	}{
		{"store=mem", func(*testing.T) (*Index, error) { return New(opts) }},
		{"store=file", func(t *testing.T) (*Index, error) {
			return Create(filepath.Join(t.TempDir(), "alloc.bmeh"), opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := tc.open(t)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			const n = 600
			keys := make([]Key, n)
			for i := range keys {
				keys[i] = benchKey(uint64(i))
				if err := ix.Insert(keys[i], uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			// One directory level: every page hangs off the pinned root, so
			// a full scan visits many pages but only one node.
			if l := ix.idx.Levels(); l != 1 {
				t.Fatalf("want a one-level directory, got %d levels", l)
			}
			for _, k := range keys { // warm the decoded caches
				if _, ok, err := ix.Get(k); err != nil || !ok {
					t.Fatalf("warmup: ok=%v err=%v", ok, err)
				}
			}

			i := 0
			if a := testing.AllocsPerRun(1000, func() {
				if _, ok, err := ix.Get(keys[i%n]); err != nil || !ok {
					t.Fatalf("get: ok=%v err=%v", ok, err)
				}
				i++
			}); a != 0 {
				t.Errorf("warm Get: %v allocs/op, want 0", a)
			}

			point, err := ix.key(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			lo := make(bitkey.Vector, 2)
			hi := bitkey.Vector{bitkey.Component(ix.MaxComponent()), bitkey.Component(ix.MaxComponent())}
			seen := 0
			count := func(bitkey.Vector, uint64) bool { seen++; return true }
			scan := func(lo, hi bitkey.Vector) float64 {
				return testing.AllocsPerRun(100, func() {
					if err := ix.idx.Range(lo, hi, count); err != nil {
						t.Fatal(err)
					}
				})
			}
			one := scan(point, point)
			seen = 0
			all := scan(lo, hi)
			if want := n * 101; seen != want { // AllocsPerRun adds a warm-up run
				t.Fatalf("full scan saw %d records, want %d", seen, want)
			}
			if all != one {
				t.Errorf("Range: %v allocs for a one-page box, %v for a full scan; want no per-page allocations", one, all)
			}
		})
	}
}
