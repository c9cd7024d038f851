// Command bmehcli is a small interactive shell over a bmeh index. It
// operates on a file-backed BMEH-tree index (created on demand) or, with
// -mem, on a transient in-memory index of any scheme.
//
// Usage:
//
//	bmehcli -dims 2 index.bmeh
//	bmehcli -mem -dims 3 -scheme mdeh
//	bmehcli fsck index.bmeh
//	bmehcli stats host:7707
//
// The fsck form runs an offline integrity check — page checksums, header,
// structural invariants — and exits 0 (clean) or 1 (problems found)
// instead of starting the shell.
//
// The stats form asks a running bmehserve node for its STATS over the
// wire and prints them, including the node's role, replication position
// and — on a clustered node — its shard identity: shard ID, owned
// pseudo-key prefix range and shard-map epoch.
//
// Commands (keys are space-separated unsigned components):
//
//	insert <k1> ... <kd> <value>
//	get    <k1> ... <kd>
//	del    <k1> ... <kd>
//	range  <lo1> ... <lod> <hi1> ... <hid>
//	count  <lo1> ... <lod> <hi1> ... <hid>
//	stats | dump | validate | help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bmeh"
	"bmeh/client"
	"bmeh/internal/wire"
)

func main() {
	var (
		dims     = flag.Int("dims", 2, "key dimensionality for a new index")
		capacity = flag.Int("b", 32, "data page capacity for a new index")
		mem      = flag.Bool("mem", false, "use a transient in-memory index")
		scheme   = flag.String("scheme", "bmeh", "scheme for a new index: bmeh, mdeh or meh")
	)
	flag.Parse()

	if flag.Arg(0) == "fsck" {
		os.Exit(runFsck(flag.Arg(1)))
	}
	if flag.Arg(0) == "stats" {
		os.Exit(runRemoteStats(flag.Arg(1)))
	}

	ix, err := openIndex(*mem, *scheme, *dims, *capacity, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehcli:", err)
		os.Exit(1)
	}
	defer ix.Close()

	d := *dims
	in := bufio.NewScanner(os.Stdin)
	fmt.Println("bmeh shell — type 'help' for commands")
	for {
		fmt.Print("> ")
		if !in.Scan() {
			break
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println("insert k1..kd value | get k1..kd | del k1..kd |")
			fmt.Println("range lo1..lod hi1..hid | count lo1..lod hi1..hid |")
			fmt.Println("stats | dump | validate | quit")
		case "insert":
			k, rest, err := parseKey(args, d)
			if err != nil || len(rest) != 1 {
				fmt.Println("usage: insert k1..kd value")
				continue
			}
			v, err := strconv.ParseUint(rest[0], 10, 64)
			if err != nil {
				fmt.Println("bad value:", rest[0])
				continue
			}
			switch err := ix.Insert(k, v); err {
			case nil:
				fmt.Println("ok")
			case bmeh.ErrDuplicate:
				fmt.Println("duplicate key")
			default:
				fmt.Println("error:", err)
			}
		case "get":
			k, _, err := parseKey(args, d)
			if err != nil {
				fmt.Println("usage: get k1..kd")
				continue
			}
			v, ok, err := ix.Get(k)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case ok:
				fmt.Println(v)
			default:
				fmt.Println("not found")
			}
		case "del":
			k, _, err := parseKey(args, d)
			if err != nil {
				fmt.Println("usage: del k1..kd")
				continue
			}
			ok, err := ix.Delete(k)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case ok:
				fmt.Println("deleted")
			default:
				fmt.Println("not found")
			}
		case "range", "count":
			lo, rest, err := parseKey(args, d)
			if err != nil {
				fmt.Printf("usage: %s lo1..lod hi1..hid\n", cmd)
				continue
			}
			hi, _, err2 := parseKey(rest, d)
			if err2 != nil {
				fmt.Printf("usage: %s lo1..lod hi1..hid\n", cmd)
				continue
			}
			n := 0
			err = ix.Range(lo, hi, func(k bmeh.Key, v uint64) bool {
				n++
				if cmd == "range" {
					fmt.Printf("%v = %d\n", []uint64(k), v)
				}
				return true
			})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%d record(s)\n", n)
		case "stats":
			st := ix.Stats()
			fmt.Printf("records=%d σ=%d levels=%d dataPages=%d dirPages=%d α=%.3f reads=%d writes=%d\n",
				st.Records, st.DirectoryElements, st.DirectoryLevels,
				st.DataPages, st.DirectoryPages, st.LoadFactor, st.Reads, st.Writes)
		case "dump":
			if err := ix.Dump(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		case "validate":
			if err := ix.Validate(); err != nil {
				fmt.Println("INTEGRITY FAILURE:", err)
			} else {
				fmt.Println("ok")
			}
		default:
			fmt.Println("unknown command; type 'help'")
		}
	}
}

// runFsck checks an index file offline and prints the findings, returning
// the process exit code: 0 clean, 1 problems found, 2 usage/IO error.
func runFsck(path string) int {
	if path == "" {
		fmt.Fprintln(os.Stderr, "usage: bmehcli fsck <index-file>")
		return 2
	}
	rep, err := bmeh.Fsck(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehcli: fsck:", err)
		return 2
	}
	if rep.Scheme != "" {
		fmt.Printf("%s: %s, %d page(s) (%d free) of %d bytes, %d record(s)\n",
			rep.Path, rep.Scheme, rep.Pages, rep.FreePages, rep.PageSize, rep.Records)
	}
	if rep.WALBatches > 0 || rep.WALTailBytes > 0 {
		fmt.Printf("wal: %d committed batch(es), %d frame(s), %d torn tail byte(s)\n",
			rep.WALBatches, rep.WALFrames, rep.WALTailBytes)
	}
	if rep.OK() {
		fmt.Println("ok")
		return 0
	}
	for _, p := range rep.Problems {
		fmt.Println("PROBLEM:", p)
	}
	return 1
}

// runRemoteStats dials a bmehserve node and prints its STATS, shard
// identity included. Exit code: 0 ok, 2 usage/connect error.
func runRemoteStats(addr string) int {
	if addr == "" {
		fmt.Fprintln(os.Stderr, "usage: bmehcli stats <host:port>")
		return 2
	}
	cl, err := client.Dial(addr, client.Options{PoolSize: 1, RequestTimeout: 10 * time.Second})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehcli: stats:", err)
		return 2
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmehcli: stats:", err)
		return 2
	}
	role := "primary"
	if st.Role == wire.RoleReplica {
		role = "replica"
	}
	fmt.Printf("%s: %s, records=%d dims=%d width=%d levels=%d dataPages=%d dirPages=%d α=%.3f\n",
		addr, role, st.Records, st.Dims, st.Width, st.DirectoryLevels,
		st.DataPages, st.DirectoryPages, st.LoadFactor)
	fmt.Printf("repl: commitSeq=%d primarySeq=%d subscribers=%d\n",
		st.CommitSeq, st.PrimarySeq, st.Replicas)
	if st.COW {
		fmt.Printf("cow: epoch=%d pinnedEpochs=%d reclaimablePages=%d\n",
			st.Epoch, st.PinnedEpochs, st.ReclaimablePages)
	}
	if st.Clustered {
		hi := "2^64"
		if st.ShardHi != 0 {
			hi = fmt.Sprintf("%#016x", st.ShardHi)
		}
		fmt.Printf("shard: id=%d range=[%#016x, %s) mapEpoch=%d\n",
			st.ShardID, st.ShardLo, hi, st.ShardMapEpoch)
	} else {
		fmt.Println("shard: unclustered (no shard map installed)")
	}
	return 0
}

func openIndex(mem bool, scheme string, dims, capacity int, path string) (*bmeh.Index, error) {
	if mem {
		var s bmeh.Scheme
		switch scheme {
		case "bmeh":
			s = bmeh.SchemeBMEH
		case "mdeh":
			s = bmeh.SchemeMDEH
		case "meh":
			s = bmeh.SchemeMEH
		default:
			return nil, fmt.Errorf("unknown scheme %q", scheme)
		}
		return bmeh.New(bmeh.Options{Scheme: s, Dims: dims, PageCapacity: capacity})
	}
	if path == "" {
		return nil, fmt.Errorf("an index file path is required (or pass -mem)")
	}
	if _, err := os.Stat(path); err == nil {
		return bmeh.Open(path)
	}
	var s bmeh.Scheme
	switch scheme {
	case "bmeh":
		s = bmeh.SchemeBMEH
	case "mdeh":
		s = bmeh.SchemeMDEH
	case "meh":
		s = bmeh.SchemeMEH
	default:
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	return bmeh.Create(path, bmeh.Options{Scheme: s, Dims: dims, PageCapacity: capacity})
}

func parseKey(args []string, d int) (bmeh.Key, []string, error) {
	if len(args) < d {
		return nil, nil, fmt.Errorf("need %d components", d)
	}
	k := make(bmeh.Key, d)
	for j := 0; j < d; j++ {
		v, err := strconv.ParseUint(args[j], 10, 64)
		if err != nil {
			return nil, nil, err
		}
		k[j] = v
	}
	return k, args[d:], nil
}
