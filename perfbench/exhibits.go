package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gftpvc/internal/experiments"
	"gftpvc/internal/sessions"
	"gftpvc/internal/workload"
)

// childArg, as the first argument, turns the binary into a child that
// runs one exhibits-pipeline task in a fresh process and reports it.
const childArg = "child"

// Child modes.
const (
	modeReady     = "ready"     // start up and exit: the pipeline's set-up cost
	modePipeline  = "pipeline"  // one timed RunAll(IDs(), seed, 2)
	modeLayers    = "layers"    // synthesis, grouping and serial per-exhibit timings
	modeReference = "reference" // RunAll(IDs(), seed, 1), the determinism oracle
)

const (
	exhibitsParallel = 2
	setupSpawns      = 21
	childTimeout     = 150 * time.Second
)

// childStats is the first line a child prints; the rendered exhibits
// follow it.
type childStats struct {
	WallNS      int64            `json:"wall_ns"`
	CPUNS       int64            `json:"cpu_ns"`
	SLACSynthNS int64            `json:"slac_synth_ns,omitempty"`
	NCARSynthNS int64            `json:"ncar_synth_ns,omitempty"`
	GroupSLACNS int64            `json:"group_slac_ns,omitempty"`
	ExhibitNS   map[string]int64 `json:"exhibit_ns,omitempty"`
	AllocBytes  uint64           `json:"alloc_bytes,omitempty"`
	GCCycles    uint32           `json:"gc_cycles,omitempty"`
}

// pipelineSeeds records each seed this process has run the experiments
// pipeline at. The experiments package memoizes generated datasets per
// seed for the life of the process, so a second run at a seed would time
// cache hits instead of the pipeline.
var (
	pipelineMu    sync.Mutex
	pipelineSeeds = map[int64]bool{}
)

var errWarmPipeline = errors.New("the experiments pipeline already ran in this process at this seed; a timed run must start cold")

// claimPipeline registers a pipeline run at seed; a timed run is refused
// when any earlier run in this process used the same seed.
func claimPipeline(seed int64, timed bool) error {
	pipelineMu.Lock()
	defer pipelineMu.Unlock()
	if timed && pipelineSeeds[seed] {
		return errWarmPipeline
	}
	pipelineSeeds[seed] = true
	return nil
}

// renderExhibits formats results exactly as paperrepro prints them.
func renderExhibits(results []experiments.Result) []byte {
	var b bytes.Buffer
	for _, r := range results {
		b.WriteString(strings.Repeat("=", 80))
		b.WriteByte('\n')
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// timedPipeline runs RunAll once, cold, and times it.
func timedPipeline(ids []string, seed int64) ([]experiments.Result, childStats, error) {
	if err := claimPipeline(seed, true); err != nil {
		return nil, childStats{}, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	results, err := experiments.RunAll(ids, seed, exhibitsParallel)
	st := childStats{WallNS: int64(time.Since(t0)), CPUNS: int64(cpuTime() - cpu0)}
	return results, st, err
}

// referencePipeline is the serial run every timed output must equal.
func referencePipeline(ids []string, seed int64) ([]experiments.Result, error) {
	if err := claimPipeline(seed, false); err != nil {
		return nil, err
	}
	return experiments.RunAll(ids, seed, 1)
}

// layerPass times the pipeline's layers from their public functions:
// dataset synthesis, session grouping, then every exhibit in serial
// order, so the first exhibit that needs a dataset pays for generating
// it.
func layerPass(ids []string, seed int64) ([]experiments.Result, childStats, error) {
	if err := claimPipeline(seed, true); err != nil {
		return nil, childStats{}, err
	}
	var st childStats
	t0 := time.Now()
	slac, err := workload.SLACBNL(workload.Options{Seed: seed})
	if err != nil {
		return nil, st, err
	}
	st.SLACSynthNS = int64(time.Since(t0))
	t0 = time.Now()
	if _, err := workload.NCARNICS(workload.Options{Seed: seed}); err != nil {
		return nil, st, err
	}
	st.NCARSynthNS = int64(time.Since(t0))
	t0 = time.Now()
	if _, err := sessions.Group(slac.Records, time.Minute); err != nil {
		return nil, st, err
	}
	st.GroupSLACNS = int64(time.Since(t0))
	slac = nil
	runtime.GC() // start the exhibits from the same heap a fresh process has

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	st.ExhibitNS = map[string]int64{}
	results := make([]experiments.Result, 0, len(ids))
	for _, id := range ids {
		s := time.Now()
		r, err := experiments.Run(id, seed)
		st.ExhibitNS[id] = int64(time.Since(s))
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", id, err)
		}
		results = append(results, r)
	}
	st.WallNS, st.CPUNS = int64(time.Since(start)), int64(cpuTime()-cpu0)
	runtime.ReadMemStats(&ms1)
	st.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.GCCycles = ms1.NumGC - ms0.NumGC
	return results, st, nil
}

// runChild serves `perfbench child <mode> <seed>`: it prints its stats as
// one JSON line, then the rendered exhibits. Mode "live" runs one pass of
// a live workload instead.
func runChild(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "live" {
		return runLiveChild(args[1:], stdout)
	}
	if len(args) != 2 {
		return errors.New("usage: perfbench child <mode> <seed>")
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad seed: %w", err)
	}
	ids := experiments.IDs()
	var (
		results []experiments.Result
		st      childStats
	)
	switch args[0] {
	case modeReady:
	case modePipeline:
		results, st, err = timedPipeline(ids, seed)
	case modeLayers:
		results, st, err = layerPass(ids, seed)
	case modeReference:
		results, err = referencePipeline(ids, seed)
	default:
		return fmt.Errorf("unknown child mode %q", args[0])
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s", line, renderExhibits(results))
	return err
}

// childRun is one finished child.
type childRun struct {
	stats   childStats
	output  []byte
	wall    time.Duration // start to exit, as the parent saw it
	peakRSS int64
}

// execChild prepares `exe child args...`; the child's diagnostics go to
// this process's standard error.
func execChild(ctx context.Context, exe string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, exe, append([]string{childArg}, args...)...)
	cmd.Stderr = os.Stderr
	return cmd
}

func spawnChild(exe, mode string, seed int64) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := execChild(ctx, exe, mode, strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	err := cmd.Run()
	run := childRun{wall: time.Since(t0)}
	if err != nil {
		return run, fmt.Errorf("child %s: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.peakRSS = ru.Maxrss << 10
	}
	line, rest, _ := bytes.Cut(stdout.Bytes(), []byte("\n"))
	if err := json.Unmarshal(line, &run.stats); err != nil {
		return run, fmt.Errorf("child %s: bad stats line: %w", mode, err)
	}
	run.output = rest
	return run, nil
}

// exhibitsPass runs cold pipelines back to back, one child each, until
// they cover the window.
func exhibitsPass(exe string, cfg runConfig) ([]childRun, error) {
	var runs []childRun
	for wall := time.Duration(0); wall < cfg.window; {
		r, err := spawnChild(exe, modePipeline, cfg.seed)
		if err != nil {
			return nil, err
		}
		wall += time.Duration(r.stats.WallNS)
		runs = append(runs, r)
	}
	return runs, nil
}

// runExhibits measures the exhibits workload. Nothing in this process
// calls into the experiments pipeline: every pipeline, the reference
// included, runs in its own child. A traced run makes only the layer
// pass, the one child that carries instruments; the timed pipelines
// carry none, so tracing costs them nothing and every trace_overhead
// metric reads 0.
func runExhibits(cfg runConfig, out io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var runs []childRun
	pass := passResult{TailPct: 100}
	what := "timed"
	if cfg.traced {
		what = "layer pass"
		layers, err := spawnChild(exe, modeLayers, cfg.seed)
		if err != nil {
			return nil, err
		}
		runs = []childRun{layers}
	} else {
		for i := 0; i < setupSpawns; i++ {
			r, err := spawnChild(exe, modeReady, cfg.seed)
			if err != nil {
				return nil, err
			}
			pass.Setup = append(pass.Setup, r.wall.Seconds())
		}
		if runs, err = exhibitsPass(exe, cfg); err != nil {
			return nil, err
		}
	}
	ref, err := spawnChild(exe, modeReference, cfg.seed)
	if err != nil {
		return nil, err
	}

	rep := newReport()
	for i, r := range runs {
		rep.Attempted++
		ok := bytes.Equal(r.output, ref.output)
		if !ok {
			rep.Failed++
			rep.fail("%s run %d output differs from RunAll(IDs(), %d, 1)", what, i, cfg.seed)
		}
		pass.merge(passResult{Wall: time.Duration(r.stats.WallNS), CPU: time.Duration(r.stats.CPUNS), RSS: []int64{r.peakRSS}})
		pass.addJob(time.Duration(r.stats.WallNS), int64(len(r.output)), ok)
	}
	fmt.Fprintf(out, "exhibits %s: %d cold pipelines, %d output bytes each\n", what, len(runs), len(ref.output))
	if !cfg.traced {
		pass.emit(rep)
		return rep, nil
	}
	for _, m := range pass.endToEnd() {
		rep.set("trace_overhead."+m.name, 0, "ratio", "the timed pipelines carry no instruments")
	}
	emitExhibitLayers(rep, runs[0].stats)
	emitLiveLayers(rep, nil)
	return rep, nil
}

// emitExhibitLayers reports the pipeline's per-layer timings.
func emitExhibitLayers(rep *report, st childStats) {
	rep.set("workload.slac_synth_s", nsToS(st.SLACSynthNS), "s", "")
	rep.set("workload.ncar_synth_s", nsToS(st.NCARSynthNS), "s", "")
	rep.set("sessions.group_slac_s", nsToS(st.GroupSLACNS), "s", "gap 1 min")
	for _, id := range experiments.IDs() {
		rep.set("experiments.exhibit_s."+id, nsToS(st.ExhibitNS[id]), "s", "serial order")
	}
	rep.set("experiments.alloc_gb", float64(st.AllocBytes)/1e9, "GB", "serial exhibits")
	rep.set("experiments.gc_cycles", float64(st.GCCycles), "count", "serial exhibits")
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }
