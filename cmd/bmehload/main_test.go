package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bmeh"
)

func TestParseColSpec(t *testing.T) {
	good := map[string]colSpec{
		"u32:0":          {kind: "u32", index: 0},
		"i32:3":          {kind: "i32", index: 3},
		"f64:1:-180:180": {kind: "f64", index: 1, lo: -180, hi: 180},
		"str:2":          {kind: "str", index: 2},
	}
	for s, want := range good {
		got, err := parseColSpec(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("%q: got %+v, want %+v", s, got, want)
		}
	}
	bad := []string{"", "u32", "u32:x", "u32:-1", "f64:1", "f64:1:5:1", "f64:1:a:b", "u32:0:1:2", "zzz:0"}
	for _, s := range bad {
		if _, err := parseColSpec(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestEncodeField(t *testing.T) {
	if v, err := (colSpec{kind: "u32", index: 0}).encode(" 42 "); err != nil || v != 42 {
		t.Errorf("u32 encode: %d %v", v, err)
	}
	if _, err := (colSpec{kind: "u32", index: 0}).encode("-1"); err == nil {
		t.Error("u32 accepted negative")
	}
	lo, _ := (colSpec{kind: "f64", index: 0, lo: 0, hi: 10}).encode("0")
	hi, _ := (colSpec{kind: "f64", index: 0, lo: 0, hi: 10}).encode("10")
	mid, _ := (colSpec{kind: "f64", index: 0, lo: 0, hi: 10}).encode("5")
	if !(lo < mid && mid < hi) {
		t.Errorf("f64 encode not monotone: %d %d %d", lo, mid, hi)
	}
	a, _ := (colSpec{kind: "str", index: 0}).encode("apple")
	b, _ := (colSpec{kind: "str", index: 0}).encode("banana")
	if a >= b {
		t.Error("str encode not order preserving")
	}
	if v, err := (colSpec{kind: "i32", index: 0}).encode("-7"); err != nil || v >= bmeh.Int32(0) {
		t.Errorf("i32 encode: %d %v", v, err)
	}
}

func TestLoadCSVEndToEnd(t *testing.T) {
	csvData := `name,lon,lat,pop
London,-0.13,51.51,9540
Paris,2.35,48.86,11100
Tokyo,139.69,35.69,37400
broken,not-a-number,1,2
Paris,2.35,48.86,11100
Sydney,151.21,-33.87,4990
short-row
`
	path := filepath.Join(t.TempDir(), "x.bmeh")
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	cols := []colSpec{
		{kind: "f64", index: 1, lo: -180, hi: 180},
		{kind: "f64", index: 2, lo: -90, hi: 90},
	}
	var errlog bytes.Buffer
	loaded, dups, bad, err := loadCSV(ix, strings.NewReader(csvData), cols, true, 3, &errlog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || dups != 1 || bad != 2 {
		t.Fatalf("loaded=%d dups=%d bad=%d, want 4/1/2 (%s)", loaded, dups, bad, errlog.String())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := bmeh.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Europe box finds London and Paris; their values are the CSV row
	// numbers (header = row 0).
	rows := map[uint64]bool{}
	err = re.Range(
		bmeh.Key{bmeh.Bounded(-11, -180, 180), bmeh.Bounded(35, -90, 90)},
		bmeh.Key{bmeh.Bounded(40, -180, 180), bmeh.Bounded(66, -90, 90)},
		func(k bmeh.Key, v uint64) bool { rows[v] = true; return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[1] || !rows[2] {
		t.Fatalf("Europe box rows = %v, want {1,2}", rows)
	}
}

// TestLoadCSVStop: a stop request mid-load flushes the batch in hand,
// reports errStopped, and leaves a file that reopens with a clean
// shutdown (no WAL replay) holding exactly the flushed rows.
func TestLoadCSVStop(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i%97)
	}
	path := filepath.Join(t.TempDir(), "stop.bmeh")
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	cols := []colSpec{{kind: "u32", index: 0}, {kind: "u32", index: 1}}
	stop := make(chan struct{})
	close(stop) // fires on the very first row boundary
	var errlog bytes.Buffer
	loaded, _, _, err := loadCSV(ix, strings.NewReader(sb.String()), cols, true, 64, &errlog, stop)
	if !errors.Is(err, errStopped) {
		t.Fatalf("stopped load error = %v, want errStopped", err)
	}
	if loaded != 0 {
		t.Fatalf("loaded %d rows after immediate stop, want 0", loaded)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// A stop after some batches keeps what was flushed.
	path2 := filepath.Join(t.TempDir(), "stop2.bmeh")
	ix2, err := bmeh.Create(path2, bmeh.Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	stop2 := make(chan struct{})
	var once sync.Once
	// stoppingReader closes stop2 partway through the input stream.
	r := io.Reader(&stoppingReader{r: strings.NewReader(sb.String()), after: 2000, fire: func() { once.Do(func() { close(stop2) }) }})
	loaded2, _, _, err := loadCSV(ix2, r, cols, true, 64, &errlog, stop2)
	if !errors.Is(err, errStopped) {
		t.Fatalf("stopped load error = %v, want errStopped", err)
	}
	if loaded2 == 0 || loaded2 >= 1000 {
		t.Fatalf("partial load kept %d rows, want 0 < n < 1000", loaded2)
	}
	if err := ix2.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := bmeh.Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovery().CleanShutdown() {
		t.Fatalf("interrupted load left a dirty WAL: %+v", re.Recovery())
	}
	if got := re.Len(); got != loaded2 {
		t.Fatalf("reopened index has %d records, loader reported %d", got, loaded2)
	}
}

// stoppingReader calls fire once `after` bytes have been read through it.
type stoppingReader struct {
	r     io.Reader
	after int
	read  int
	fire  func()
}

func (s *stoppingReader) Read(p []byte) (int, error) {
	if len(p) > 512 {
		p = p[:512] // small reads so fire lands mid-stream
	}
	n, err := s.r.Read(p)
	s.read += n
	if s.read >= s.after {
		s.fire()
	}
	return n, err
}

// TestLoadBulkEndToEnd runs the same fixture through the bottom-up bulk
// path and expects identical counts and query results.
func TestLoadBulkEndToEnd(t *testing.T) {
	csvData := `name,lon,lat,pop
London,-0.13,51.51,9540
Paris,2.35,48.86,11100
Tokyo,139.69,35.69,37400
broken,not-a-number,1,2
Paris,2.35,48.86,11100
Sydney,151.21,-33.87,4990
short-row
`
	path := filepath.Join(t.TempDir(), "bulk.bmeh")
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	cols := []colSpec{
		{kind: "f64", index: 1, lo: -180, hi: 180},
		{kind: "f64", index: 2, lo: -90, hi: 90},
	}
	var errlog bytes.Buffer
	loaded, dups, bad, err := loadBulk(ix, strings.NewReader(csvData), cols, true, &errlog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || dups != 1 || bad != 2 {
		t.Fatalf("loaded=%d dups=%d bad=%d, want 4/1/2 (%s)", loaded, dups, bad, errlog.String())
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := bmeh.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rows := map[uint64]bool{}
	err = re.Range(
		bmeh.Key{bmeh.Bounded(-11, -180, 180), bmeh.Bounded(35, -90, 90)},
		bmeh.Key{bmeh.Bounded(40, -180, 180), bmeh.Bounded(66, -90, 90)},
		func(k bmeh.Key, v uint64) bool { rows[v] = true; return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[1] || !rows[2] {
		t.Fatalf("Europe box rows = %v, want {1,2}", rows)
	}
}

// TestLoadBulkStop: stopping a bulk load commits the rows read so far as
// one consistent partial index.
func TestLoadBulkStop(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*131)
	}
	path := filepath.Join(t.TempDir(), "bulkstop.bmeh")
	ix, err := bmeh.Create(path, bmeh.Options{Dims: 2, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	cols := []colSpec{{kind: "u32", index: 0}, {kind: "u32", index: 1}}
	stop := make(chan struct{})
	var once sync.Once
	var errlog bytes.Buffer
	r := io.Reader(&stoppingReader{r: strings.NewReader(sb.String()), after: 2000, fire: func() { once.Do(func() { close(stop) }) }})
	loaded, _, _, err := loadBulk(ix, r, cols, true, &errlog, stop)
	if !errors.Is(err, errStopped) {
		t.Fatalf("stopped bulk load error = %v, want errStopped", err)
	}
	if loaded == 0 || loaded >= 1000 {
		t.Fatalf("partial bulk load kept %d rows, want 0 < n < 1000", loaded)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := bmeh.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovery().CleanShutdown() {
		t.Fatalf("interrupted bulk load left a dirty WAL: %+v", re.Recovery())
	}
	if got := re.Len(); got != loaded {
		t.Fatalf("reopened index has %d records, loader reported %d", got, loaded)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}
