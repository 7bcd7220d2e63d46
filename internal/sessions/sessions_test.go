package sessions

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"gftpvc/internal/usagestats"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

// rec builds a record starting at epoch+startSec lasting durSec seconds.
func rec(remote string, startSec, durSec float64, sizeBytes int64) usagestats.Record {
	return usagestats.Record{
		Type:        usagestats.Retrieve,
		SizeBytes:   sizeBytes,
		Start:       epoch.Add(time.Duration(startSec * float64(time.Second))),
		DurationSec: durSec,
		ServerHost:  "dtn.ncar.gov",
		RemoteHost:  remote,
		Streams:     1,
		Stripes:     1,
	}
}

func TestGroupBackToBack(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("nics", 15, 10, 1e9),  // 5s gap: same session under g=1min
		rec("nics", 200, 10, 1e9), // 175s gap: new session
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
	if ss[0].Count() != 2 || ss[1].Count() != 1 {
		t.Errorf("session sizes = %d, %d; want 2, 1", ss[0].Count(), ss[1].Count())
	}
}

func TestGroupZeroGap(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("nics", 10, 10, 1e9), // starts exactly at previous end
		rec("nics", 21, 10, 1e9), // 1s gap: new session under g=0
	}
	ss, err := Group(records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
}

func TestGroupNegativeGapConcurrentTransfers(t *testing.T) {
	// Concurrent transfers: the second starts before the first ends (the
	// "negative gap" case the paper calls out explicitly).
	records := []usagestats.Record{
		rec("nics", 0, 100, 1e9),
		rec("nics", 5, 10, 1e9),
		rec("nics", 30, 10, 1e9),
		// Starts 3s after the *first* transfer's end (t=100); still within
		// g=5s of the session horizon.
		rec("nics", 103, 10, 1e9),
	}
	ss, err := Group(records, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("got %d sessions, want 1 (horizon tracking)", len(ss))
	}
	if ss[0].Count() != 4 {
		t.Errorf("session has %d transfers, want 4", ss[0].Count())
	}
}

func TestGroupSeparatesEndpointPairs(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("ornl", 1, 10, 1e9),
		rec("nics", 12, 10, 1e9),
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2 (one per remote)", len(ss))
	}
}

func TestGroupAnonymizedFails(t *testing.T) {
	r := rec("", 0, 10, 1e9)
	_, err := Group([]usagestats.Record{r}, time.Minute)
	if !errors.Is(err, ErrNoRemote) {
		t.Errorf("err = %v, want ErrNoRemote (the NERSC case)", err)
	}
}

func TestGroupNegativeG(t *testing.T) {
	if _, err := Group(nil, -time.Second); err == nil {
		t.Error("negative g should fail")
	}
}

func TestGroupUnsortedInput(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 15, 10, 1e9),
		rec("nics", 0, 10, 1e9),
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("got %d sessions, want 1 (grouping sorts internally)", len(ss))
	}
	if !ss[0].Transfers[0].Start.Before(ss[0].Transfers[1].Start) {
		t.Error("session transfers not in start order")
	}
}

func TestSessionAggregates(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 100, 4e9),
		rec("nics", 50, 100, 6e9), // overlaps; ends at 150
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := ss[0]
	if s.SizeBytes() != 10e9 {
		t.Errorf("SizeBytes = %v, want 10e9", s.SizeBytes())
	}
	if got := s.DurationSec(); math.Abs(got-150) > 1e-9 {
		t.Errorf("DurationSec = %v, want 150", got)
	}
	want := 10e9 * 8 / 150
	if got := s.EffectiveThroughputBps(); math.Abs(got-want) > 1 {
		t.Errorf("EffectiveThroughputBps = %v, want %v", got, want)
	}
}

func TestSmallerGMeansMoreSessions(t *testing.T) {
	// Property from Table III: tightening g can only split sessions.
	var records []usagestats.Record
	for i := 0; i < 50; i++ {
		records = append(records, rec("nics", float64(i*40), 25, 1e9))
	}
	counts := map[time.Duration]int{}
	for _, g := range []time.Duration{0, time.Minute, 2 * time.Minute} {
		ss, err := Group(records, g)
		if err != nil {
			t.Fatal(err)
		}
		counts[g] = len(ss)
	}
	if !(counts[0] >= counts[time.Minute] && counts[time.Minute] >= counts[2*time.Minute]) {
		t.Errorf("session counts not monotone in g: %v", counts)
	}
}

func TestSummarize(t *testing.T) {
	mk := func(n int) *Session {
		s := &Session{}
		for i := 0; i < n; i++ {
			s.Transfers = append(s.Transfers, rec("x", float64(i), 1, 1))
		}
		return s
	}
	st := Summarize([]*Session{mk(1), mk(2), mk(3), mk(150)})
	if st.Sessions != 4 || st.SingleTransfer != 1 || st.MultiTransfer != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.PercentOneOrTwo != 50 {
		t.Errorf("PercentOneOrTwo = %v, want 50", st.PercentOneOrTwo)
	}
	if st.MaxTransfers != 150 || st.SessionsOver100Xfers != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Sessions != 0 || st.PercentOneOrTwo != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSizesDurationsThroughputs(t *testing.T) {
	records := []usagestats.Record{rec("nics", 0, 10, 1e9)}
	ss, _ := Group(records, 0)
	if got := Sizes(ss); len(got) != 1 || got[0] != 1000 {
		t.Errorf("Sizes = %v, want [1000] MB", got)
	}
	if got := Durations(ss); len(got) != 1 || got[0] != 10 {
		t.Errorf("Durations = %v, want [10]", got)
	}
	th := TransferThroughputsMbps(records)
	if len(th) != 1 || math.Abs(th[0]-800) > 1e-9 {
		t.Errorf("throughputs = %v, want [800] Mbps", th)
	}
}

// groupReference is the original Group: per-pair slices grown by append,
// each pair stable-sorted by start, sessions built by appending. Group
// must reproduce it session for session.
func groupReference(records []usagestats.Record, g time.Duration) ([]*Session, error) {
	if g < 0 {
		return nil, errors.New("sessions: negative gap")
	}
	type hostPair struct {
		server, remote string
	}
	byPair := make(map[hostPair][]usagestats.Record)
	for i, r := range records {
		if r.RemoteHost == "" {
			return nil, fmt.Errorf("%w (record %d)", ErrNoRemote, i)
		}
		byPair[hostPair{r.ServerHost, r.RemoteHost}] = append(byPair[hostPair{r.ServerHost, r.RemoteHost}], r)
	}
	keys := make([]hostPair, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].server != keys[j].server {
			return keys[i].server < keys[j].server
		}
		return keys[i].remote < keys[j].remote
	})
	out := make([]*Session, 0, len(byPair))
	for _, k := range keys {
		rs := byPair[k]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
		var cur *Session
		var horizon time.Time
		for _, r := range rs {
			if cur != nil && !r.Start.After(horizon.Add(g)) {
				cur.Transfers = append(cur.Transfers, r)
			} else {
				cur = &Session{
					ServerHost: r.ServerHost,
					RemoteHost: r.RemoteHost,
				}
				cur.Transfers = []usagestats.Record{r}
				horizon = time.Time{}
				out = append(out, cur)
			}
			if e := r.End(); e.After(horizon) {
				horizon = e
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Start().Before(out[j].Start())
	})
	return out, nil
}

// randomRecords draws n records over interleaved endpoint pairs (two
// servers, three remotes), in no particular start order, with starts on a
// coarse grid so equal starts are common, and durations that often
// overlap the next transfer. SizeBytes numbers the records so every
// record is distinct.
func randomRecords(rng *rand.Rand, n int) []usagestats.Record {
	servers := []string{"dtn.slac.stanford.edu", "dtn.ncar.gov"}
	remotes := []string{"dtn.bnl.gov", "nics", "ornl"}
	out := make([]usagestats.Record, n)
	for i := range out {
		r := rec(remotes[rng.Intn(len(remotes))], float64(rng.Intn(2*n)), float64(rng.Intn(8))/2, int64(i+1))
		r.ServerHost = servers[rng.Intn(len(servers))]
		out[i] = r
	}
	return out
}

func TestGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		records := randomRecords(rng, 1+rng.Intn(300))
		orig := slices.Clone(records)
		for _, g := range []time.Duration{0, time.Second, time.Minute} {
			got, err := Group(records, g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := groupReference(orig, g)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(records, orig) {
				t.Fatalf("trial %d g=%v: Group modified its input", trial, g)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d g=%v: %d sessions, reference %d", trial, g, len(got), len(want))
			}
			for i := range want {
				if got[i].ServerHost != want[i].ServerHost || got[i].RemoteHost != want[i].RemoteHost ||
					!slices.Equal(got[i].Transfers, want[i].Transfers) {
					t.Fatalf("trial %d g=%v: session %d differs from reference:\n got %+v\nwant %+v", trial, g, i, *got[i], *want[i])
				}
			}
		}
	}
}

// TestGroupSessionsIndependent pins the backing-array contract: sessions
// share one array, but appending to one session's Transfers cannot
// overwrite the next session's, and the sessions do not alias the input.
func TestGroupSessionsIndependent(t *testing.T) {
	records := randomRecords(rand.New(rand.NewSource(5)), 200)
	ss, err := Group(records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) < 2 {
		t.Fatalf("want several sessions, got %d", len(ss))
	}
	snapshot := make([][]usagestats.Record, len(ss))
	for i, s := range ss {
		snapshot[i] = slices.Clone(s.Transfers)
	}
	for i := range records {
		records[i].SizeBytes = -1
		records[i].Start = time.Time{}
	}
	for i, s := range ss {
		_ = append(s.Transfers, rec("clobber", 0, 1, -2))
		for j := range ss {
			if !slices.Equal(ss[j].Transfers, snapshot[j]) {
				t.Fatalf("after mutating the input and appending to session %d, session %d changed", i, j)
			}
		}
	}
}

// BenchmarkGroup groups 1<<18 records, interleaved over three endpoint
// pairs in start order as synthesized logs are, at the paper's g = 1 min.
func BenchmarkGroup(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	remotes := []string{"dtn.bnl.gov", "nics", "ornl"}
	records := make([]usagestats.Record, n)
	for i := range records {
		records[i] = rec(remotes[rng.Intn(len(remotes))], float64(20*i+rng.Intn(20)), float64(1+rng.Intn(30)), 1e9)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Group(records, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
