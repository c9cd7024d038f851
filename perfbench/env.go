package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment records what the numbers depend on besides the code.
// Workloads add their backend, write mode and cache sizes.
func environment(b *bench) map[string]any {
	return map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"seconds":     b.window.Seconds(),
		"trace":       b.trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_rev":     gitRev("."),
		"store_fs":    fsType(b.dir),
		"clients":     clients,
		"flush":       "every acknowledged write passes the WAL commit and fsync",
		"decoded_cap": map[string]int{"dir_nodes": 1024, "data_pages": 32768},
	}
}

// gitRev reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "none".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "none"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "unknown"
}

// cpuTimes reads the machine's CPU time counters from /proc/stat: the
// ticks stolen by the hypervisor for other guests, and all ticks. Both
// are 0 where the file is missing.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fileBytes sums the sizes of the named files; a missing file counts 0.
func fileBytes(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}
