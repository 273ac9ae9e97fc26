package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// printProvenance prints what a reader needs to compare two runs: the
// host, the toolchain, the source (of the checkout in the working
// directory) and gompaxd's command line.
func printProvenance(out io.Writer, c config, daemonFlags []string) {
	quoted := make([]string, len(daemonFlags))
	for i, f := range daemonFlags {
		quoted[i] = f
		if strings.ContainsAny(f, " \t\"'\\!<>()|&;$") {
			quoted[i] = strconv.Quote(f)
		}
	}
	fmt.Fprintf(out, "provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "provenance: git_commit=%s source_sha256=%s workload_seed=%d\n",
		gitCommit("."), sourceDigest("."), c.seed)
	fmt.Fprintf(out, "provenance: gompaxd %s\n", strings.Join(quoted, " "))
	fmt.Fprintln(out, "provenance: store fsync policy interval, 100ms (gompaxd default: no -fsync or -fsync-interval flag)")
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD commit, or "none" outside a git
// repository.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot directories), so runs from checkouts without git history still
// name the source they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
