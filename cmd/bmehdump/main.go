// Command bmehdump inspects a BMEH-tree index file: it prints statistics,
// verifies every structural invariant, and (with -tree) renders the whole
// directory hierarchy.
//
// Usage:
//
//	bmehdump [-tree] [-validate] index.bmeh
//	bmehdump -demo          # build a small demo index and dump it
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"bmeh"
)

func main() {
	var (
		tree     = flag.Bool("tree", false, "render the full directory hierarchy")
		validate = flag.Bool("validate", true, "check structural invariants")
		demo     = flag.Bool("demo", false, "build an in-memory demo index instead of opening a file")
	)
	flag.Parse()

	var (
		ix  *bmeh.Index
		err error
	)
	switch {
	case *demo:
		ix, err = demoIndex()
	case flag.NArg() == 1:
		ix, err = bmeh.Open(flag.Arg(0))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	defer ix.Close()

	st := ix.Stats()
	fmt.Printf("records:            %d\n", st.Records)
	fmt.Printf("directory elements: %d (σ)\n", st.DirectoryElements)
	fmt.Printf("directory levels:   %d\n", st.DirectoryLevels)
	fmt.Printf("directory pages:    %d\n", st.DirectoryPages)
	fmt.Printf("data pages:         %d\n", st.DataPages)
	fmt.Printf("load factor:        %.3f (α)\n", st.LoadFactor)

	if *validate {
		if err := ix.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "INTEGRITY FAILURE:", err)
			os.Exit(1)
		}
		fmt.Println("integrity:          ok")
	}
	if *tree {
		fmt.Println()
		if err := ix.Dump(os.Stdout); err != nil {
			fail(err)
		}
	}
}

func demoIndex() (*bmeh.Index, error) {
	ix, err := bmeh.New(bmeh.Options{Dims: 2, PageCapacity: 4, NodeBits: []int{2, 2}})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		k := bmeh.Key{uint64(rng.Int63n(1 << 31)), uint64(rng.Int63n(1 << 31))}
		if err := ix.Insert(k, uint64(i)); err != nil && err != bmeh.ErrDuplicate {
			return nil, err
		}
	}
	return ix, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bmehdump:", err)
	os.Exit(1)
}
