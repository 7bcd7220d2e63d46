package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/xferman"
)

// Live workload geometry. Every workload keeps at most two jobs or
// sessions in flight (the benchmark box has two cores), and destination
// names are reused epoch after epoch so memory stays bounded.
const (
	users = 2

	bulkObject  = 32 << 20
	bulkSources = 3
	bulkSlots   = 4 // destination names, one per job of an epoch
	// aggregateRate is the bulk-3p source's -aggregate-rate R: 40 Gbps,
	// several times what loopback reaches, so pacing sits on the path
	// without throttling.
	aggregateRate = 40_000_000_000

	rwObject  = 32 << 20
	rwSources = 4
	rwStreams = 4
	rwRounds  = 2 // jobs per user per epoch

	smallObjects = 256
	smallSlots   = 64
	smallMin     = 4 << 10
	smallMax     = 1 << 20

	// setupsPerPass is how many times a pass sets its workload up;
	// setup_s is the median.
	setupsPerPass = 7
	warmup        = 2 * time.Second
	jobTimeout    = 60 * time.Second
	leakWait      = 5 * time.Second
	// chunk is the unit verify reads back and regenerates at a time.
	chunk = 1 << 20
)

// castagnoli is the CRC client-rw hashes received bytes with: hardware
// accelerated, so the check costs little next to the transfer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// liveInputs describe a live workload's source objects. Object i is the
// payload for (seed, i): the benchmark generates its bytes when it loads
// a store or writes an upload file, and again when it checks a copy, and
// holds no copy in memory, so the peak RSS a pass reports is the
// program's.
type liveInputs struct {
	seed  int64
	names []string
	sizes []int
	crcs  []uint32 // client-rw: expected RETR hashes
}

func newLiveInputs(wl string, seed int64) *liveInputs {
	in := &liveInputs{seed: seed}
	var sizes []int
	switch wl {
	case wlBulk:
		for i := 0; i < bulkSources; i++ {
			sizes = append(sizes, bulkObject)
		}
	case wlClientRW:
		for i := 0; i < rwSources; i++ {
			sizes = append(sizes, rwObject)
		}
	case wlSmall:
		sizes = smallSizes(seed)
	}
	for i, size := range sizes {
		in.names = append(in.names, fmt.Sprintf("obj%03d", i))
		in.sizes = append(in.sizes, size)
		if wl == wlClientRW {
			buf, crc := make([]byte, chunk), uint32(0)
			for off := 0; off < size; off += chunk {
				p := buf[:min(chunk, size-off)]
				fillPayloadAt(p, seed, uint64(i), int64(off))
				crc = crc32.Update(crc, castagnoli, p)
			}
			in.crcs = append(in.crcs, crc)
		}
	}
	return in
}

// smallSizes draws smallObjects sizes log-uniformly from [smallMin,
// smallMax], one from each of smallObjects equal strata of the log
// range, in a seeded order. Stratifying keeps the total byte count
// nearly the same for every seed, so goodput compares across seeds.
func smallSizes(seed int64) []int {
	sizes := make([]int, smallObjects)
	span := math.Log(float64(smallMax) / float64(smallMin))
	for i := range sizes {
		u := float64(mix(seed, uint64(i))>>11) / (1 << 53)
		f := (float64(i) + u) / smallObjects
		sizes[i] = int(float64(smallMin) * math.Exp(f*span))
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := int(mix(seed, uint64(1000+i)) % uint64(i+1))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}

// job is one unit of live work: a managed transfer of object src to
// dst, or, on client-rw, a RETR of object src from the DirStore server
// followed by a STOR of object put to dst on the MemStore server by the
// same user. Pairing the two keeps the latency distribution unimodal, so
// its median is well defined.
type job struct {
	src int
	dst string
	put int // the object dst must hold afterwards
}

type jobOutcome struct {
	lat   time.Duration
	ok    bool
	err   string
	bytes int64
	// managed jobs only
	dispatch time.Duration
	attempts int
	wire     int64
	moved    int64
}

// tracer holds the traced pass's instruments.
type tracer struct {
	conns    connStats
	mem, dir storeStats
}

func (t *tracer) statsFor(s gridftp.Store) *storeStats {
	if _, ok := s.(*gridftp.DirStore); ok {
		return &t.dir
	}
	return &t.mem
}

// liveEnv is one set-up of a live workload.
type liveEnv struct {
	wl       string
	in       *liveInputs
	dir      string
	tr       *tracer
	srcStore gridftp.Store // undecorated: the benchmark reads outputs back here
	dstStore gridftp.Store
	servers  []*gridftp.Server
	hubs     []*telemetry.Hub
	pool     *connpool.Pool
	mgr      *xferman.Manager
	clients  []*gridftp.Client
	src, dst xferman.Endpoint
	// verify's buffers: read back, and regenerated expected bytes
	readBuf, wantBuf []byte
	// uploads are client-rw's local files, one per object, which the
	// uploading client reads as a deployed client reads what it sends.
	uploads []string
	// genTime is the time setupLive spent generating source bytes and
	// writing upload files, which setup_s leaves out.
	genTime time.Duration
}

// setupLive builds stores, loads the source objects through the stores'
// Put, starts a source and a destination server with a telemetry hub
// each, and starts the manager and pool (bulk-3p, small-pooled) or dials
// and logs in each user's session on each server (client-rw).
func setupLive(wl string, in *liveInputs, tr *tracer, dir string) (env *liveEnv, err error) {
	env = &liveEnv{wl: wl, in: in, dir: dir, tr: tr, readBuf: make([]byte, chunk), wantBuf: make([]byte, chunk)}
	defer func() {
		if err != nil {
			env.close()
			env = nil
		}
	}()
	newDir := func(name string) (*gridftp.DirStore, error) {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
		return gridftp.NewDirStore(p)
	}
	var srcRate int64
	switch wl {
	case wlBulk:
		s, err := newDir("src")
		if err != nil {
			return nil, err
		}
		env.srcStore, env.dstStore, srcRate = s, gridftp.NewMemStore(), aggregateRate
	case wlSmall:
		env.srcStore, env.dstStore = gridftp.NewMemStore(), gridftp.NewMemStore()
	case wlClientRW:
		s, err := newDir("src")
		if err != nil {
			return nil, err
		}
		env.srcStore, env.dstStore = s, gridftp.NewMemStore()
	}
	upDir := filepath.Join(dir, "upload")
	if wl == wlClientRW {
		if err := os.MkdirAll(upDir, 0o755); err != nil {
			return nil, err
		}
	}
	// Both stores' Put keep no reference to their argument, so one buffer
	// serves every object.
	var buf []byte
	for i, name := range in.names {
		t0 := time.Now()
		if cap(buf) < in.sizes[i] {
			buf = make([]byte, in.sizes[i])
		}
		buf = buf[:in.sizes[i]]
		fillPayloadAt(buf, in.seed, uint64(i), 0)
		if wl == wlClientRW {
			p := filepath.Join(upDir, name)
			if err := os.WriteFile(p, buf, 0o644); err != nil {
				return nil, err
			}
			env.uploads = append(env.uploads, p)
		}
		env.genTime += time.Since(t0)
		if err := env.srcStore.Put(name, buf); err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
	}
	srcSrv, err := env.serve(env.srcStore, srcRate)
	if err != nil {
		return nil, err
	}
	dstSrv, err := env.serve(env.dstStore, 0)
	if err != nil {
		return nil, err
	}
	if wl == wlClientRW {
		// Each user holds a session on each server: clients[2u] reads,
		// clients[2u+1] writes.
		for u := 0; u < users; u++ {
			for _, addr := range []string{srcSrv.Addr(), dstSrv.Addr()} {
				c, err := gridftp.Dial(addr, env.dialOpts()...)
				if err != nil {
					return nil, err
				}
				env.clients = append(env.clients, c)
				if err := c.Login("bench", "bench"); err != nil {
					return nil, err
				}
			}
		}
		return env, nil
	}
	env.src = xferman.Endpoint{Addr: srcSrv.Addr(), User: "bench", Pass: "bench"}
	env.dst = xferman.Endpoint{Addr: dstSrv.Addr(), User: "bench", Pass: "bench"}
	pc := connpool.Config{MaxIdlePerEndpoint: users}
	if tr != nil {
		pc.Opts = func(string) []gridftp.Option { return env.dialOpts() }
	}
	env.pool = connpool.New(pc)
	env.mgr, err = xferman.New(users, xferman.WithPool(env.pool))
	return env, err
}

// serve starts one server the way a deployed gftpd with -metrics-addr
// runs: its own telemetry hub attached.
func (env *liveEnv) serve(store gridftp.Store, aggregateBps int64) (*gridftp.Server, error) {
	hub := telemetry.NewHub()
	cfg := gridftp.Config{Addr: "127.0.0.1:0", Store: store, AggregateRateBps: aggregateBps, Telemetry: hub}
	if env.tr != nil {
		cfg.Store = decorateStore(store, env.tr.statsFor(store))
		cfg.DataListen = env.tr.conns.listenData
	}
	srv, err := gridftp.Serve(cfg)
	if err != nil {
		return nil, err
	}
	env.servers = append(env.servers, srv)
	env.hubs = append(env.hubs, hub)
	if env.tr != nil {
		env.tr.conns.addControlAddr(srv.Addr())
	}
	return srv, nil
}

func (env *liveEnv) dialOpts() []gridftp.Option {
	if env.tr == nil {
		return nil
	}
	return []gridftp.Option{gridftp.WithDialFunc(env.tr.conns.dial)}
}

func (env *liveEnv) close() {
	if env.mgr != nil {
		env.mgr.Close()
	}
	if env.pool != nil {
		env.pool.Close()
	}
	for _, c := range env.clients {
		c.Close()
	}
	for _, s := range env.servers {
		s.Close()
	}
	os.RemoveAll(env.dir)
}

// plan lists epoch e's jobs, one list per user. Each destination name
// is written once per epoch and receives a different source than in the
// epoch before, so a stale object never passes the check.
func (env *liveEnv) plan(e int) [][]job {
	lists := make([][]job, users)
	switch env.wl {
	case wlBulk:
		for j := 0; j < bulkSlots; j++ {
			src := (j + e) % bulkSources
			lists[j%users] = append(lists[j%users], job{src: src, dst: fmt.Sprintf("copy%d", j), put: src})
		}
	case wlSmall:
		for j := 0; j < smallSlots; j++ {
			src := (e*smallSlots + j) % smallObjects
			lists[j%users] = append(lists[j%users], job{src: src, dst: fmt.Sprintf("copy%02d", j), put: src})
		}
	case wlClientRW:
		for u := range lists {
			for k := 0; k < rwRounds; k++ {
				lists[u] = append(lists[u], job{
					src: (e*rwRounds + k + u) % rwSources,
					dst: fmt.Sprintf("up%d-%d", u, k),
					put: (e + 2*u + k) % rwSources,
				})
			}
		}
	}
	return lists
}

// runEpoch runs each user's list as a closed loop: a user starts its
// next job only when the previous one has returned.
func (env *liveEnv) runEpoch(lists [][]job) [][]jobOutcome {
	outs := make([][]jobOutcome, len(lists))
	var wg sync.WaitGroup
	for u, list := range lists {
		outs[u] = make([]jobOutcome, len(list))
		wg.Add(1)
		go func(u int, list []job) {
			defer wg.Done()
			for i, j := range list {
				if env.mgr != nil {
					outs[u][i] = env.managedJob(j)
				} else {
					outs[u][i] = env.clientJob(u, j)
				}
			}
		}(u, list)
	}
	wg.Wait()
	return outs
}

func (env *liveEnv) managedJob(j job) jobOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	out := jobOutcome{bytes: int64(env.in.sizes[j.src])}
	t0 := time.Now()
	id, err := env.mgr.Submit(ctx, xferman.Job{Src: env.src, Dst: env.dst, SrcName: env.in.names[j.src], DstName: j.dst})
	if err != nil {
		out.lat, out.err = time.Since(t0), err.Error()
		return out
	}
	res, err := env.mgr.Wait(ctx, id)
	out.lat = time.Since(t0)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.ok, out.err = res.Status == xferman.Succeeded, res.Err
	out.dispatch, out.attempts = out.lat-res.Duration, res.Attempts
	out.wire, out.moved = res.WireBytes, res.Bytes
	return out
}

func (env *liveEnv) clientJob(u int, j job) jobOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	size, upSize := env.in.sizes[j.src], env.in.sizes[j.put]
	out := jobOutcome{bytes: int64(size + upSize)}
	t0 := time.Now()
	h := crc32.New(castagnoli)
	st, err := env.clients[2*u].RetrTo(ctx, env.in.names[j.src], h, gridftp.WithParallel(rwStreams))
	if err == nil && (st.Bytes != int64(size) || h.Sum32() != env.in.crcs[j.src]) {
		err = fmt.Errorf("RETR %s: %d bytes, crc %08x; want %d bytes, crc %08x",
			env.in.names[j.src], st.Bytes, h.Sum32(), size, env.in.crcs[j.src])
	}
	if err == nil {
		err = env.upload(ctx, u, j.dst, j.put)
	}
	out.lat, out.ok = time.Since(t0), err == nil
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// upload STORs object src, read from its upload file, to dst.
func (env *liveEnv) upload(ctx context.Context, u int, dst string, src int) error {
	f, err := os.Open(env.uploads[src])
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = env.clients[2*u+1].StorFrom(ctx, dst, f, int64(env.in.sizes[src]), gridftp.WithParallel(rwStreams))
	return err
}

// verify reads every object the epoch wrote back through its store's
// public ReadObjectAt and compares it byte for byte with its source,
// regenerated chunk by chunk. Both go into reused buffers: Get would
// allocate a copy of every object, and that garbage would be collected
// inside the next timed epoch.
func (env *liveEnv) verify(lists [][]job, outs [][]jobOutcome) {
	for u, list := range lists {
		for i, j := range list {
			o := &outs[u][i]
			if !o.ok {
				continue
			}
			if err := env.readBackEqual(j.dst, j.put); err != nil {
				o.ok, o.err = false, fmt.Sprintf("%s (copy of %s): %v", j.dst, env.in.names[j.put], err)
			}
		}
	}
}

// readBackEqual checks that the destination store holds exactly object
// src under name.
func (env *liveEnv) readBackEqual(name string, src int) error {
	want := int64(env.in.sizes[src])
	size, err := env.dstStore.Size(name)
	if err != nil {
		return err
	}
	if size != want {
		return fmt.Errorf("holds %d bytes, want %d", size, want)
	}
	rs := env.dstStore.(gridftp.ReaderAtStore)
	for off := int64(0); off < want; {
		n := int(min(chunk, want-off))
		got, exp := env.readBuf[:n], env.wantBuf[:n]
		for k := 0; k < n; {
			m, err := rs.ReadObjectAt(name, got[k:], off+int64(k))
			if m == 0 && err != nil {
				return fmt.Errorf("read at %d: %w", off+int64(k), err)
			}
			k += m
		}
		fillPayloadAt(exp, env.in.seed, uint64(src), off)
		if !bytes.Equal(got, exp) {
			return fmt.Errorf("differs within [%d, %d)", off, off+int64(n))
		}
		off += int64(n)
	}
	return nil
}

// liveLayers is what the traced pass measured in its timed window.
type liveLayers struct {
	MB         float64   `json:"mb"` // useful MB
	Jobs       int       `json:"jobs"`
	DispatchMS []float64 `json:"dispatch_ms"`
	Attempts   int       `json:"attempts"`
	WireBytes  int64     `json:"wire_bytes"`
	JobBytes   int64     `json:"job_bytes"`

	PoolHits, PoolMisses, PoolEvictions int64
	CtlDials                            int64 // whole pass, set-ups included
	CtlDialNS                           int64
	Conn                                connCounts
	Mem, Dir                            storeCounts
	ThrottleWaitS                       float64
	AllocBytes                          uint64
	GCCycles                            uint32
	GoroutinesLeaked                    int
	Direct                              directStats
}

type connCounts struct {
	CtlCmds, CtlBytes, DataConns, DataReads, DataWrites, DataIONS int64
}

type storeCounts struct {
	PutRegionCalls, PutRegionNS, ReadCalls, ReadNS, FinishPutNS int64
}

func (t *tracer) connCounts() connCounts {
	c := &t.conns
	return connCounts{c.ctlCmds.Load(), c.ctlBytes.Load(), c.dataConns.Load(),
		c.dataReads.Load(), c.dataWrites.Load(), c.dataIONS.Load()}
}

func (s *storeStats) counts() storeCounts {
	return storeCounts{s.putRegionCalls.Load(), s.putRegionNS.Load(), s.readCalls.Load(),
		s.readNS.Load(), s.finishPutNS.Load()}
}

func (a connCounts) sub(b connCounts) connCounts {
	return connCounts{a.CtlCmds - b.CtlCmds, a.CtlBytes - b.CtlBytes, a.DataConns - b.DataConns,
		a.DataReads - b.DataReads, a.DataWrites - b.DataWrites, a.DataIONS - b.DataIONS}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{a.PutRegionCalls - b.PutRegionCalls, a.PutRegionNS - b.PutRegionNS,
		a.ReadCalls - b.ReadCalls, a.ReadNS - b.ReadNS, a.FinishPutNS - b.FinishPutNS}
}

// livePassOutput is what a live child reports to the parent.
type livePassOutput struct {
	Pass     passResult  `json:"pass"`
	Layers   *liveLayers `json:"layers,omitempty"`
	Attempts int64       `json:"attempted"`
	Problems []string    `json:"problems"`
	Epochs   int         `json:"epochs"` // timed epochs
	// WarmupFailed counts failed warm-up jobs, which Pass leaves out.
	WarmupFailed int
}

// livePass sets the workload up setupsPerPass times, keeping the last
// set-up, warms it up, then runs epochs until they cover the window. Only
// epochs are timed; outputs are checked between them.
func livePass(wl string, seed int64, window time.Duration, traced bool, workDir string) (*livePassOutput, error) {
	goroutines := runtime.NumGoroutine()
	in := newLiveInputs(wl, seed)
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	res := &livePassOutput{Pass: passResult{TailPct: 90}}
	if wl == wlSmall {
		res.Pass.TailPct = 99
	}
	var env *liveEnv
	for i := 0; i < setupsPerPass; i++ {
		if env != nil {
			env.close()
		}
		// Start every set-up from a collected heap, so a collection the
		// previous one left due does not land in this one's time.
		runtime.GC()
		t0 := time.Now()
		var err error
		env, err = setupLive(wl, in, tr, filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", wl, os.Getpid(), i)))
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl, err)
		}
		res.Pass.Setup = append(res.Pass.Setup, (time.Since(t0) - env.genTime).Seconds())
	}
	problem := func(what string, o jobOutcome) {
		if len(res.Problems) < 10 {
			res.Problems = append(res.Problems, what+": "+o.err)
		}
	}
	e := 0
	for t0 := time.Now(); time.Since(t0) < warmup; e++ {
		lists := env.plan(e)
		outs := env.runEpoch(lists)
		env.verify(lists, outs)
		for _, us := range outs {
			for _, o := range us {
				res.Attempts++
				if !o.ok {
					res.WarmupFailed++
					problem("warm-up job", o)
				}
			}
		}
	}

	var ly liveLayers
	var c0 connCounts
	var m0, d0 storeCounts
	var p0 connpool.Stats
	if tr != nil {
		c0, m0, d0 = tr.connCounts(), tr.mem.counts(), tr.dir.counts()
	}
	if env.pool != nil {
		p0 = env.pool.Stats()
	}
	// Mark the warm-up's transfer spans seen, so the throttle wait covers
	// the timed epochs only.
	seenSpans := map[uint64]bool{}
	newThrottleWait(env.hubs, seenSpans)
	var ms0, ms1 runtime.MemStats
	for ; res.Pass.Wall < window; e++ {
		lists := env.plan(e)
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := cpuTime(), time.Now()
		outs := env.runEpoch(lists)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms1)
		ly.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ly.GCCycles += ms1.NumGC - ms0.NumGC
		env.verify(lists, outs)
		for _, us := range outs {
			for _, o := range us {
				res.Attempts++
				res.Pass.addJob(o.lat, o.bytes, o.ok)
				if !o.ok {
					problem("job", o)
					continue
				}
				ly.Jobs++
				if env.mgr != nil {
					ly.DispatchMS = append(ly.DispatchMS, float64(o.dispatch)/float64(time.Millisecond))
					ly.Attempts += o.attempts
					ly.WireBytes += o.wire
					ly.JobBytes += o.moved
				}
			}
		}
		if tr != nil {
			ly.ThrottleWaitS += newThrottleWait(env.hubs, seenSpans)
		}
		res.Pass.Wall += wall
		res.Pass.CPU += cpu
		res.Epochs++
	}
	ly.MB = float64(res.Pass.Bytes) / 1e6
	if env.pool != nil {
		p1 := env.pool.Stats()
		ly.PoolHits, ly.PoolMisses, ly.PoolEvictions = p1.Hits-p0.Hits, p1.Misses-p0.Misses, p1.Evictions-p0.Evictions
	}
	if tr != nil {
		ly.Conn = tr.connCounts().sub(c0)
		ly.Mem, ly.Dir = tr.mem.counts().sub(m0), tr.dir.counts().sub(d0)
		ly.CtlDials, ly.CtlDialNS = tr.conns.ctlDials.Load(), tr.conns.ctlDialNS.Load()
	}
	env.close()
	res.Pass.RSS = []int64{peakRSSBytes()}
	ly.GoroutinesLeaked = leakedGoroutines(goroutines)
	if ly.GoroutinesLeaked > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d goroutines outlived the workload's teardown", ly.GoroutinesLeaked))
	}
	if traced {
		var err error
		if ly.Direct, err = directPass(seed, filepath.Join(workDir, fmt.Sprintf("direct-%d", os.Getpid()))); err != nil {
			return nil, err
		}
		res.Layers = &ly
	}
	return res, nil
}

// newThrottleWait sums the pacing throttle wait of the transfer spans
// the servers completed since the last call. Called once per epoch, so
// the hubs' completed-span rings never wrap between calls.
func newThrottleWait(hubs []*telemetry.Hub, seen map[uint64]bool) float64 {
	var s float64
	for _, h := range hubs {
		for _, sp := range h.Spans().Snapshot() {
			if seen[sp.ID] {
				continue
			}
			seen[sp.ID] = true
			s += sp.ThrottleWaitSec
		}
	}
	return s
}

// leakedGoroutines waits for goroutines started since base to exit and
// returns how many are still running after leakWait.
func leakedGoroutines(base int) int {
	deadline := time.Now().Add(leakWait)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runLiveChild serves `perfbench child live <workload> <seed> <window>
// <traced> <workdir>`: one pass in a fresh process, reported as one JSON
// line.
func runLiveChild(args []string, stdout io.Writer) error {
	if len(args) != 5 {
		return fmt.Errorf("usage: perfbench child live <workload> <seed> <window> <traced> <workdir>")
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	window, err := time.ParseDuration(args[2])
	if err != nil {
		return err
	}
	res, err := livePass(args[0], seed, window, args[3] == "1", args[4])
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runLive measures a live workload: an untraced run makes one untraced
// pass, a traced run one untraced and one traced pass. Every pass runs in
// its own process, so peak RSS belongs to that pass alone.
func runLive(cfg runConfig, out io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pass := func(traced bool, window time.Duration) (*livePassOutput, error) {
		flag := "0"
		if traced {
			flag = "1"
		}
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		var stdout bytes.Buffer
		cmd := execChild(ctx, exe, "live", cfg.workload, strconv.FormatInt(cfg.seed, 10), window.String(), flag, cfg.workDir)
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s pass: %w", cfg.workload, err)
		}
		var res livePassOutput
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s pass: bad report: %w", cfg.workload, err)
		}
		return &res, nil
	}
	rep := newReport()
	account := func(what string, r *livePassOutput) {
		rep.Attempted += r.Attempts
		rep.Failed += int64(r.Pass.Failed + r.WarmupFailed)
		for _, p := range r.Problems {
			rep.fail("%s: %s", what, p)
		}
		fmt.Fprintf(out, "%s %s: %d epochs, %d jobs in %.3f s timed\n",
			cfg.workload, what, r.Epochs, len(r.Pass.Lat)+r.Pass.Failed, r.Pass.Wall.Seconds())
	}
	plain, err := pass(false, cfg.window)
	if err != nil {
		return nil, err
	}
	account("untraced pass", plain)
	if !cfg.traced {
		plain.Pass.emit(rep)
		return rep, nil
	}
	traced, err := pass(true, cfg.window)
	if err != nil {
		return nil, err
	}
	account("traced pass", traced)
	emitOverhead(rep, plain.Pass, traced.Pass)
	emitExhibitLayers(rep, childStats{})
	emitLiveLayers(rep, traced.Layers)
	return rep, nil
}

// emitLiveLayers reports the live engine's per-layer metrics; nil (the
// exhibits workload) reports every one as 0, the work a bypassed layer
// does.
func emitLiveLayers(rep *report, ly *liveLayers) {
	if ly == nil {
		ly = &liveLayers{}
	}
	jobs, mb := float64(ly.Jobs), ly.MB
	gb := mb / 1e3
	set := func(name string, v float64, unit string) { rep.set(name, v, unit, "") }

	set("xferman.dispatch_ms", median(ly.DispatchMS), "ms")
	set("xferman.attempts_per_job", safeDiv(float64(ly.Attempts), jobs), "count")
	set("xferman.wire_over_bytes", safeDiv(float64(ly.WireBytes), float64(ly.JobBytes)), "ratio")

	set("connpool.hit_ratio", safeDiv(float64(ly.PoolHits), float64(ly.PoolHits+ly.PoolMisses)), "ratio")
	set("connpool.dials", float64(ly.PoolMisses), "count")
	set("connpool.dial_ms", safeDiv(float64(ly.CtlDialNS)/1e6, float64(ly.CtlDials)), "ms")
	set("connpool.evictions", float64(ly.PoolEvictions), "count")

	c := ly.Conn
	set("gridftp.control_cmds_per_job", safeDiv(float64(c.CtlCmds), jobs), "count")
	set("gridftp.control_bytes_per_job", safeDiv(float64(c.CtlBytes), jobs), "B")
	set("gridftp.data_conns_per_job", safeDiv(float64(c.DataConns), jobs), "count")
	set("gridftp.data_reads_per_mb", safeDiv(float64(c.DataReads), mb), "count/MB")
	set("gridftp.data_writes_per_mb", safeDiv(float64(c.DataWrites), mb), "count/MB")
	set("gridftp.data_io_s", float64(c.DataIONS)/1e9, "s")

	for _, s := range []struct {
		name string
		c    storeCounts
	}{{"mem", ly.Mem}, {"dir", ly.Dir}} {
		set("store."+s.name+".put_region_calls", float64(s.c.PutRegionCalls), "count")
		set("store."+s.name+".put_region_s", float64(s.c.PutRegionNS)/1e9, "s")
		set("store."+s.name+".read_calls", float64(s.c.ReadCalls), "count")
		set("store."+s.name+".read_s", float64(s.c.ReadNS)/1e9, "s")
		set("store."+s.name+".finish_put_s", float64(s.c.FinishPutNS)/1e9, "s")
	}

	d := ly.Direct
	set("modee.write_block_ns_per_mb", d.WriteBlockNSPerMB, "ns/MB")
	set("modee.read_block_into_ns_per_mb", d.ReadBlockIntoNSPerMB, "ns/MB")
	set("modee.alloc_bytes_per_mb", d.ModeEAllocPerMB, "B/MB")
	set("store.dir.put_ns_per_mb", d.DirPutNSPerMB, "ns/MB")
	set("store.dir.finish_put_ms", d.DirFinishPutMS, "ms")
	set("window.place_ns_per_mb.inorder", d.PlaceInOrderNSPerMB, "ns/MB")
	set("window.place_ns_per_mb.interleaved", d.PlaceInterleavedNSPerMB, "ns/MB")
	set("window.alloc_bytes_per_mb", d.WindowAllocPerMB, "B/MB")
	set("pacing.throttle_wait_s", ly.ThrottleWaitS, "s")
	set("pacing.waitn_ns_per_block", d.WaitNNSPerBlock, "ns")

	set("process.alloc_bytes_per_mb", safeDiv(float64(ly.AllocBytes), mb), "B/MB")
	set("process.gc_cycles_per_gb", safeDiv(float64(ly.GCCycles), gb), "count/GB")
	set("process.goroutines_leaked", float64(ly.GoroutinesLeaked), "count")
}
