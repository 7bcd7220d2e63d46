package main

import (
	"fmt"
	"math"
	"time"
)

// passResult is one measured pass of a workload: its set-ups, then the
// jobs of its timed window. A job is one unit of requested work: a cold
// exhibits pipeline, a managed transfer, or one client RETR or STOR.
type passResult struct {
	Setup  []float64     `json:"setup_s"` // one per set-up
	Lat    []float64     `json:"lat_ms"`  // one per job; failed or wrong jobs are left out
	Failed int           `json:"failed"`  // jobs that failed or returned wrong output
	Wall   time.Duration `json:"wall_ns"`
	CPU    time.Duration `json:"cpu_ns"` // process user+system CPU in the window
	Bytes  int64         `json:"bytes"`  // useful bytes of correct jobs
	RSS    []int64       `json:"rss"`    // peak RSS samples, bytes
	// TailPct is the percentile job_tail_ms reports: 90 for the 32 MiB
	// workloads (hundreds of jobs a run), 99 for small-pooled (thousands),
	// and 100, the slowest, for exhibits, whose few pipelines a run
	// resolve no percentile.
	TailPct float64 `json:"tail_pct"`
}

func (p *passResult) addJob(lat time.Duration, bytes int64, ok bool) {
	if !ok {
		p.Failed++
		return
	}
	p.Bytes += bytes
	p.Lat = append(p.Lat, float64(lat)/float64(time.Millisecond))
}

// merge pools another pass's samples and totals into p.
func (p *passResult) merge(q passResult) {
	p.Setup = append(p.Setup, q.Setup...)
	p.Lat = append(p.Lat, q.Lat...)
	p.Failed += q.Failed
	p.Wall += q.Wall
	p.CPU += q.CPU
	p.Bytes += q.Bytes
	p.RSS = append(p.RSS, q.RSS...)
}

// latencies returns every job's latency in ms, a failed job as +Inf: it
// misses any latency limit.
func (p passResult) latencies() []float64 {
	lat := append([]float64(nil), p.Lat...)
	for i := 0; i < p.Failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	return lat
}

// namedMetric is a metric with the note printed beside it.
type namedMetric struct {
	name, unit string
	value      float64
	note       string
}

// endToEnd lists the end-to-end metrics every workload reports, in the
// order BENCHMARK.json declares them.
func (p passResult) endToEnd() []namedMetric {
	wallS, cpuS, mb := p.Wall.Seconds(), p.CPU.Seconds(), float64(p.Bytes)/1e6
	lat := p.latencies()
	n, ok := len(lat), len(p.Lat)
	latency := func(name string, v float64, note string) namedMetric {
		if math.IsInf(v, 1) {
			// Failed jobs reach this percentile; report the whole window.
			v, note = wallS*1000, note+", failed jobs in the tail"
		}
		return namedMetric{name, "ms", v, note}
	}
	rss := make([]float64, len(p.RSS))
	for i, b := range p.RSS {
		rss[i] = float64(b) / 1e6
	}
	return []namedMetric{
		{"setup_s", "s", median(p.Setup), fmt.Sprintf("median of %d set-ups", len(p.Setup))},
		latency("job_p50_ms", median(lat), fmt.Sprintf("n=%d", n)),
		latency("job_tail_ms", percentile(lat, p.TailPct), tailNote(n, p.TailPct)),
		{"jobs_per_s", "1/s", safeDiv(float64(ok), wallS), fmt.Sprintf("%d correct jobs in %.3f s", ok, wallS)},
		{"goodput_mbps", "MB/s", safeDiv(mb, wallS), fmt.Sprintf("%.1f useful MB", mb)},
		{"mb_per_cpu_s", "MB/cpu-s", safeDiv(mb, cpuS), fmt.Sprintf("%.3f CPU-s, CPU/wall %.2f", cpuS, safeDiv(cpuS, wallS))},
		{"cpu_s_per_job", "s", safeDiv(cpuS, float64(n)), ""},
		{"peak_rss_mb", "MB", median(rss), fmt.Sprintf("median of %d", len(rss))},
	}
}

func (p passResult) emit(rep *report) {
	for _, m := range p.endToEnd() {
		rep.set(m.name, m.value, m.unit, m.note)
	}
}

// emitOverhead reports, for every end-to-end metric, how far the traced
// pass read from the untraced one: traced/untraced - 1.
func emitOverhead(rep *report, plain, traced passResult) {
	tm := traced.endToEnd()
	for i, m := range plain.endToEnd() {
		rep.set("trace_overhead."+m.name, safeDiv(tm[i].value-m.value, m.value), "ratio",
			fmt.Sprintf("untraced %.6g, traced %.6g %s", m.value, tm[i].value, m.unit))
	}
}

// safeDiv is a/b, or 0 when b is 0: a layer the workload bypasses did no
// work, and reports 0 rather than no value.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
