package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostBlock is stamped on every result: what ran, where, on what.
type hostBlock struct {
	NumCPU int `json:"nproc"`
	// GOMAXPROCS is the client's; hullserver runs with the Go default
	// (nproc).
	GOMAXPROCS int    `json:"gomaxprocs_client"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	// Server is hullserver's configuration for this workload.
	Server serverBlock `json:"hullserver"`
	DataFS string      `json:"data_fs,omitempty"`
}

type serverBlock struct {
	Flags      []string `json:"flags"`
	Store      string   `json:"store"`
	Fsync      string   `json:"fsync"`
	Checkpoint int      `json:"checkpoint_points"`
}

func printHost(out io.Writer, cfg config, w workloadDef, sc scenario) {
	hb := hostBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(cfg.root),
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Server: serverBlock{Flags: serverFlags(cfg, sc, "<data>"), Store: "memory", Fsync: "none"},
	}
	if sc.durable() {
		hb.Server.Store = "fswal"
		if cfg.store != "" {
			hb.Server.Store = cfg.store
		}
		hb.Server.Fsync = "interval (50ms)"
		hb.Server.Checkpoint = 65536
		hb.DataFS = fsType(cfg.dataRoot)
	}
	b, _ := json.Marshal(map[string]any{"host": hb})
	fmt.Fprintln(out, string(b))
}

// serverFlags returns hullserver's flags for the workload: its defaults
// plus the workload's own, with the backend override when one is set.
func serverFlags(cfg config, sc scenario, dataDir string) []string {
	flags := sc.flags(dataDir)
	if sc.durable() && cfg.store != "" {
		flags = append(flags, "-store", cfg.store)
	}
	return flags
}

// commitOf names the source the run measured: the git commit when the
// checkout is a repository, else a digest of its Go sources and module
// files (a benchmark checkout is a plain copy of the tree).
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
