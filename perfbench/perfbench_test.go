package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
)

// TestMain lets the test binary serve as its own child process, the way
// the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// The server picks its RETR branch (snapshot, ReadObjectAt or Get) and
// its STOR branch (windowed or buffered) by the store's optional
// interfaces. A decorator that added or hid one would make the traced
// pass measure a different program than the untraced pass.
func TestStoreDecoratorKeepsInterfaces(t *testing.T) {
	dir, err := gridftp.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []gridftp.Store{gridftp.NewMemStore(), dir} {
		outer := decorateStore(inner, &storeStats{})
		for _, c := range []struct {
			name string
			is   func(gridftp.Store) bool
		}{
			{"ReaderAtStore", func(s gridftp.Store) bool { _, ok := s.(gridftp.ReaderAtStore); return ok }},
			{"SnapshotStore", func(s gridftp.Store) bool { _, ok := s.(gridftp.SnapshotStore); return ok }},
			{"StreamPutter", func(s gridftp.Store) bool { _, ok := s.(gridftp.StreamPutter); return ok }},
			{"PutAborter", func(s gridftp.Store) bool { _, ok := s.(gridftp.PutAborter); return ok }},
		} {
			if got, want := c.is(outer), c.is(inner); got != want {
				t.Errorf("%T: decorator implements %s = %v, store = %v", inner, c.name, got, want)
			}
		}
	}
}

// A snapshot the server must close stays closable through the decorator,
// and one it must not close does not become closable.
func TestStoreDecoratorKeepsSnapshotCloser(t *testing.T) {
	dir, err := gridftp.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []gridftp.Store{gridftp.NewMemStore(), dir} {
		if err := inner.Put("x", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		st := &storeStats{}
		r, _, err := decorateStore(inner, st).(gridftp.SnapshotStore).SnapshotObject("x")
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := inner.(gridftp.SnapshotStore).SnapshotObject("x")
		if err != nil {
			t.Fatal(err)
		}
		_, got := r.(io.Closer)
		_, want := raw.(io.Closer)
		if got != want {
			t.Errorf("%T: decorated snapshot is a Closer = %v, store's = %v", inner, got, want)
		}
		buf := make([]byte, 7)
		if _, err := r.ReadAt(buf, 0); err != nil || string(buf) != "payload" {
			t.Errorf("%T: read %q, %v", inner, buf, err)
		}
		if st.readCalls.Load() != 1 {
			t.Errorf("%T: %d reads counted, want 1", inner, st.readCalls.Load())
		}
		for _, c := range []any{r, raw} {
			if cl, ok := c.(io.Closer); ok {
				cl.Close()
			}
		}
	}
}

// A timed pipeline must not follow any in-process pipeline at its seed:
// the experiments package would serve it memoized datasets.
func TestTimedPipelineRefusesWarmProcess(t *testing.T) {
	const seed = 424242
	if err := claimPipeline(seed, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := timedPipeline([]string{"table1"}, seed); !errors.Is(err, errWarmPipeline) {
		t.Fatalf("timed pipeline after a reference run at its seed: err = %v, want errWarmPipeline", err)
	}
	if _, _, err := layerPass([]string{"table1"}, seed); !errors.Is(err, errWarmPipeline) {
		t.Fatalf("layer pass after a reference run at its seed: err = %v, want errWarmPipeline", err)
	}
	if err := claimPipeline(seed+1, true); err != nil {
		t.Fatalf("first timed run at a fresh seed refused: %v", err)
	}
}

// The exhibits workload runs every pipeline, the reference included, in
// a child process, and checks each timed output against the reference.
func TestExhibitsRunNoPipelineInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full exhibit pipelines")
	}
	cfg := runConfig{workload: wlExhibits, seed: 5, window: time.Nanosecond}
	rep, err := runExhibits(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted != 1 || rep.Failed != 0 {
		t.Fatalf("report: correct=%v attempted=%d failed=%d %v", rep.Correct, rep.Attempted, rep.Failed, rep.problems)
	}
	pipelineMu.Lock()
	ran := pipelineSeeds[cfg.seed]
	pipelineMu.Unlock()
	if ran {
		t.Fatal("the parent process ran the experiments pipeline itself")
	}
}

// A job whose source object does not exist must count as failed: no
// useful bytes, no latency sample, and a latency tail that shows it.
func TestMissingSourceCountsAsFailed(t *testing.T) {
	in := newLiveInputs(wlSmall, 1)
	env, err := setupLive(wlSmall, in, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	// Name an object the source store never received.
	env.in = &liveInputs{seed: 1, names: []string{"absent"}, sizes: []int{12}}
	lists := [][]job{{{src: 0, dst: "copy00", put: 0}}}
	outs := env.runEpoch(lists)
	env.verify(lists, outs)
	if outs[0][0].ok {
		t.Fatal("a transfer of a missing source was reported ok")
	}
	var p passResult
	p.TailPct = 99
	p.Wall = time.Second
	p.addJob(outs[0][0].lat, outs[0][0].bytes, outs[0][0].ok)
	if p.Failed != 1 || len(p.Lat) != 0 || p.Bytes != 0 {
		t.Fatalf("failed=%d samples=%d bytes=%d, want 1, 0, 0", p.Failed, len(p.Lat), p.Bytes)
	}
	for _, m := range p.endToEnd() {
		switch m.name {
		case "jobs_per_s", "goodput_mbps":
			if m.value != 0 {
				t.Errorf("%s = %v with only a failed job, want 0", m.name, m.value)
			}
		case "job_p50_ms", "job_tail_ms":
			if m.value != 1000 {
				t.Errorf("%s = %v ms, want the 1000 ms window a failed job is charged", m.name, m.value)
			}
		}
	}
}

// A short traced pass of each live workload completes with every output
// correct, no goroutine left behind, and its layers populated.
func TestLivePassesTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three live workloads")
	}
	for _, wl := range []string{wlBulk, wlClientRW, wlSmall} {
		res, err := livePass(wl, 2, 200*time.Millisecond, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(res.Problems) != 0 || res.Pass.Failed != 0 {
			t.Fatalf("%s: %d failed: %v", wl, res.Pass.Failed, res.Problems)
		}
		ly := res.Layers
		if ly == nil || ly.GoroutinesLeaked != 0 || ly.Jobs == 0 || ly.Conn.CtlCmds == 0 || ly.Conn.DataConns == 0 {
			t.Fatalf("%s: layers %+v", wl, ly)
		}
		if wl == wlBulk && (ly.Dir.ReadCalls == 0 || ly.Mem.PutRegionCalls == 0) {
			t.Errorf("%s: store counts %+v %+v", wl, ly.Dir, ly.Mem)
		}
		if wl == wlClientRW && (ly.Dir.ReadCalls == 0 || ly.Mem.PutRegionCalls == 0 || ly.Conn.DataWrites == 0) {
			t.Errorf("%s: store counts %+v %+v, conns %+v", wl, ly.Dir, ly.Mem, ly.Conn)
		}
		if ly.Direct.DirPutNSPerMB == 0 || ly.Direct.DirFinishPutMS == 0 {
			t.Errorf("%s: DirStore write pass %+v", wl, ly.Direct)
		}
	}
}

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := newReport()
	passResult{}.emit(e2e)
	layers := newReport()
	emitOverhead(layers, passResult{}, passResult{})
	emitExhibitLayers(layers, childStats{})
	emitLiveLayers(layers, nil)
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e.Metrics}, {"per_layer", spec.PerLayer, layers.Metrics}} {
		declared := map[string]string{}
		for _, m := range c.declared {
			declared[m.Name] = m.Unit
		}
		for name, m := range c.printed {
			if u, ok := declared[name]; !ok || u != m.Unit {
				t.Errorf("%s: printed %s [%s], declared [%s] (present %v)", c.what, name, m.Unit, u, ok)
			}
		}
		var missing []string
		for name := range declared {
			if _, ok := c.printed[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: declared but not printed: %v", c.what, missing)
		}
	}
}

// layers.json maps every per-layer metric to the end-to-end metrics and
// workloads it should move, using only names BENCHMARK.json declares.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	var lm struct {
		Workloads map[string]json.RawMessage
		Map       []struct {
			PerLayer []string `json:"per_layer"`
			Moves    []string
			On       []string
			FlatOn   []string `json:"flat_on"`
		}
	}
	for file, v := range map[string]any{"../BENCHMARK.json": &spec, "layers.json": &lm} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	workloads, e2e := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
		if lm.Workloads[w.Name] == nil {
			t.Errorf("layers.json does not describe workload %s", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	matches := func(pattern, name string) bool {
		if p, ok := strings.CutSuffix(pattern, "*"); ok {
			return strings.HasPrefix(name, p)
		}
		return pattern == name
	}
	for _, m := range spec.PerLayer {
		n := 0
		for _, e := range lm.Map {
			for _, p := range e.PerLayer {
				if matches(p, m.Name) {
					n++
				}
			}
		}
		if n != 1 {
			t.Errorf("per-layer metric %s has %d entries in layers.json, want 1", m.Name, n)
		}
	}
	for _, e := range lm.Map {
		for _, m := range e.Moves {
			if !e2e[m] {
				t.Errorf("%v moves unknown end-to-end metric %s", e.PerLayer, m)
			}
		}
		for _, w := range append(append([]string(nil), e.On...), e.FlatOn...) {
			if !workloads[w] {
				t.Errorf("%v names unknown workload %s", e.PerLayer, w)
			}
		}
	}
}

// The read-back check catches a destination that holds the wrong bytes,
// and, because each epoch writes every name from a different source than
// the epoch before, a job that claims success without writing.
func TestVerifyCatchesWrongAndStaleObjects(t *testing.T) {
	for _, wl := range []string{wlBulk, wlClientRW, wlSmall} {
		env, err := setupLive(wl, newLiveInputs(wl, 3), nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		lists := env.plan(0)
		outs := env.runEpoch(lists)
		env.verify(lists, outs)
		for u := range outs {
			for i, o := range outs[u] {
				if !o.ok {
					t.Fatalf("%s: job %v failed: %s", wl, lists[u][i], o.err)
				}
			}
		}
		// Claim success for the next epoch without running it: every name
		// still holds the previous epoch's object.
		stale := env.plan(1)
		faked := make([][]jobOutcome, len(stale))
		for u := range stale {
			for range stale[u] {
				faked[u] = append(faked[u], jobOutcome{ok: true})
			}
		}
		env.verify(stale, faked)
		for u := range faked {
			for i, o := range faked[u] {
				if o.ok {
					t.Errorf("%s: stale %s passed the check", wl, stale[u][i].dst)
				}
			}
		}
		// Corrupt one byte of one written object.
		j := lists[0][0]
		bad := payload(env.in.sizes[j.put], env.in.seed, uint64(j.put))
		bad[len(bad)/2] ^= 1
		if err := env.dstStore.Put(j.dst, bad); err != nil {
			t.Fatal(err)
		}
		outs[0][0].ok = true
		env.verify(lists[:1], outs[:1])
		if outs[0][0].ok {
			t.Errorf("%s: corrupted %s passed the check", wl, j.dst)
		}
		env.close()
	}
}

// Any part of a payload regenerates to the same bytes as the whole, at
// any offset: verify and the RETR hashes rely on it.
func TestPayloadRegeneratesAtAnyOffset(t *testing.T) {
	const n = 1000
	whole := payload(n, 9, 4)
	for _, off := range []int{0, 1, 7, 8, 13, 999} {
		for _, l := range []int{0, 1, 5, 8, 17, n - off} {
			if off+l > n {
				continue
			}
			part := make([]byte, l)
			fillPayloadAt(part, 9, 4, int64(off))
			if !bytes.Equal(part, whole[off:off+l]) {
				t.Fatalf("bytes [%d, %d) differ from the whole payload's", off, off+l)
			}
		}
	}
	if bytes.Equal(payload(n, 9, 5), whole) || bytes.Equal(payload(n, 10, 4), whole) {
		t.Fatal("different (seed, id) pairs gave the same payload")
	}
}
