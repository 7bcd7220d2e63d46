// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a timed window and prints every metric by name and
// unit, then a one-line JSON result:
//
//	perfbench --workload bulk-3p --seed 7 --seconds 12 --trace 0
//
// Workloads:
//
//   - exhibits: the paper-reproduction pipeline, experiments.RunAll at
//     parallelism 2 (what `paperrepro -exp all -parallel 2` runs). Every
//     timed pipeline runs in a fresh child process, so the experiments
//     package's per-seed dataset memo is always cold.
//   - bulk-3p: managed third-party 32 MiB transfers, DirStore source
//     capped at 40 Gbps aggregate to MemStore destination, through
//     xferman (2 workers) over a connpool.
//   - client-rw: two users, each pairing a 4-stream RetrTo of a 32 MiB
//     object from a DirStore server with a 4-stream StorFrom of one to a
//     MemStore server, on bare gridftp.Client sessions.
//   - small-pooled: the bulk-3p manager and pool moving MemStore objects
//     of 4 KiB to 1 MiB, so per-job control work dominates.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs a live
// workload once untraced and once with the benchmark's own store
// decorator and connection wrappers installed, and reports the per-layer
// metrics plus the tracing overhead on every end-to-end metric. On
// exhibits it runs the instrumented layer pass alone. Outputs are checked
// outside the timed window; any wrong output sets "correct" to false and
// the exit code to 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

const (
	wlExhibits = "exhibits"
	wlBulk     = "bulk-3p"
	wlClientRW = "client-rw"
	wlSmall    = "small-pooled"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // timed window of each measured pass
	traced   bool
	// workDir holds every file a live workload writes; it lies inside the
	// directory the benchmark is run from.
	workDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == childArg {
		if err := runChild(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "exhibits | bulk-3p | client-rw | small-pooled")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "timed window of each measured pass, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workDir:  ".bench_build/perfbench-data",
	}
	fp, err := takeFingerprint(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "fingerprint", fp)
	var rep *report
	switch cfg.workload {
	case wlExhibits:
		rep, err = runExhibits(cfg, stdout)
	case wlBulk, wlClientRW, wlSmall:
		rep, err = runLive(cfg, stdout)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)",
			cfg.workload, wlExhibits, wlBulk, wlClientRW, wlSmall)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed:", strings.Join(rep.problems, "; "))
		return 1
	}
	return 0
}

// metric is one named measurement in the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    map[string]string // per-metric sample counts, printed beside the value
	problems []string          // what made Correct false
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a wrong output.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints one human-readable line per metric, then the JSON result
// as the last line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-44s %16.6f %-9s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-44s %16.6f %-9s %d failed of %d attempted\n", "fail_ratio", ratio, "ratio", r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
