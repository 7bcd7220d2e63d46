package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and code a result set was measured
// on. Results carrying different fingerprints are never compared.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary when it was
	// built inside a git work tree, else "unknown".
	Commit string `json:"commit"`
	// SourceSHA256 digests every .go and go.mod file under the directory
	// the benchmark runs from, so builds from exported trees without VCS
	// metadata are still told apart.
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
}

func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // a struct of strings, ints and bools always marshals
	return string(b)
}

func takeFingerprint(cfg runConfig) (fingerprint, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       vcsRevision(),
		SourceSHA256: digest,
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.traced,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the path and content of every Go source and
// go.mod file under root, in walk order, skipping build output and VCS
// directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
