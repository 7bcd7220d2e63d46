// Package sessions groups GridFTP transfer records into sessions — runs of
// back-to-back transfers between the same two endpoints — using the
// paper's configurable gap parameter g: a transfer joins the current
// session when it starts no more than g after the session's latest
// transfer end. Gaps may be negative (scripts start transfers
// concurrently), which the grouping handles by tracking the maximum end
// time seen so far.
package sessions

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"gftpvc/internal/usagestats"
)

// Session is one batch of transfers between a server and one remote host.
//
// A Session built by Group does not own its Transfers: it is a
// capacity-clipped window of one array that the grouping's other sessions
// share, so appending to it copies, but writing through it changes the
// shared array. Callers must treat Transfers as read-only.
type Session struct {
	ServerHost string
	RemoteHost string
	Transfers  []usagestats.Record
}

// Count returns the number of transfers in the session.
func (s *Session) Count() int { return len(s.Transfers) }

// SizeBytes returns the total bytes moved by the session.
func (s *Session) SizeBytes() int64 {
	var n int64
	for _, t := range s.Transfers {
		n += t.SizeBytes
	}
	return n
}

// Start returns the start of the first transfer.
func (s *Session) Start() time.Time { return s.Transfers[0].Start }

// End returns the latest end time across the session's transfers (not the
// last transfer's end: with concurrent transfers an earlier-starting
// transfer may finish last).
func (s *Session) End() time.Time {
	var end time.Time
	for _, t := range s.Transfers {
		if e := t.End(); e.After(end) {
			end = e
		}
	}
	return end
}

// DurationSec returns the session's wall-clock duration in seconds.
func (s *Session) DurationSec() float64 {
	return s.End().Sub(s.Start()).Seconds()
}

// EffectiveThroughputBps returns total size over wall-clock duration, the
// quantity the paper quotes for its largest sessions (e.g. the 12 TB
// SLAC-BNL session at 1.06 Gbps effective).
func (s *Session) EffectiveThroughputBps() float64 {
	d := s.DurationSec()
	if d <= 0 {
		return 0
	}
	return float64(s.SizeBytes()) * 8 / d
}

// ErrNoRemote is returned when records lack remote-host information, as in
// the paper's NERSC dataset ("the remote IP address was anonymized for
// privacy reasons. Without knowledge of the remote end ... transfers could
// not be grouped into sessions").
var ErrNoRemote = errors.New("sessions: records lack remote host (anonymized log)")

// Group partitions records into sessions with gap parameter g. Records are
// grouped per (server, remote) endpoint pair, ordered by start time; a new
// session opens when a transfer starts more than g after the maximum end
// time seen so far in the current session. g = 0 demands strictly
// back-to-back (or overlapping) transfers; negative g is an error.
//
// Group copies each record once, into a single array laid out by endpoint
// pair in (server, remote) order, input order within a pair; a pair's run
// is then stable-sorted by start if it is not already. Every session's
// Transfers is a capacity-clipped window of that array. The caller's slice
// is neither modified nor aliased.
func Group(records []usagestats.Record, g time.Duration) ([]*Session, error) {
	if g < 0 {
		return nil, errors.New("sessions: negative gap")
	}
	type hostPair struct {
		server, remote string
	}
	// Counting pass: each record's pair, and the number of records per pair.
	pairOf := make(map[hostPair]int)
	var keys []hostPair
	var counts []int
	pairIdx := make([]int, len(records))
	for i := range records {
		r := &records[i]
		if r.RemoteHost == "" {
			return nil, fmt.Errorf("%w (record %d)", ErrNoRemote, i)
		}
		k := hostPair{r.ServerHost, r.RemoteHost}
		p, ok := pairOf[k]
		if !ok {
			p = len(keys)
			pairOf[k] = p
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		pairIdx[i] = p
		counts[p]++
	}
	order := make([]int, len(keys))
	for p := range order {
		order[p] = p
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(keys[a].server, keys[b].server), cmp.Compare(keys[a].remote, keys[b].remote))
	})
	// next[p] is where pair p's next record lands; runs[p] is its run.
	next := make([]int, len(keys))
	runs := make([][]usagestats.Record, len(keys))
	all := make([]usagestats.Record, len(records))
	off := 0
	for _, p := range order {
		next[p] = off
		runs[p] = all[off : off+counts[p] : off+counts[p]]
		off += counts[p]
	}
	for i, p := range pairIdx {
		all[next[p]] = records[i]
		next[p]++
	}

	var out []*Session
	for _, p := range order {
		run := runs[p]
		usagestats.SortByStart(run)
		a := 0
		var horizon time.Time // latest end time within the current session
		for b := range run {
			if b > a && run[b].Start.After(horizon.Add(g)) {
				out = append(out, newSession(run[a:b:b]))
				a = b
				horizon = time.Time{}
			}
			if e := run[b].End(); e.After(horizon) {
				horizon = e
			}
		}
		if len(run) > 0 {
			out = append(out, newSession(run[a:]))
		}
	}
	// Order sessions chronologically across endpoint pairs.
	slices.SortStableFunc(out, func(x, y *Session) int {
		return x.Start().Compare(y.Start())
	})
	return out, nil
}

func newSession(transfers []usagestats.Record) *Session {
	return &Session{
		ServerHost: transfers[0].ServerHost,
		RemoteHost: transfers[0].RemoteHost,
		Transfers:  transfers,
	}
}

// Stats summarizes a grouped dataset the way the paper's Table III rows
// do: single- vs multi-transfer session counts, the share of sessions with
// at most two transfers, and the extremes of session fan-out.
type Stats struct {
	Sessions             int
	SingleTransfer       int
	MultiTransfer        int
	PercentOneOrTwo      float64
	MaxTransfers         int
	SessionsOver100Xfers int
}

// Summarize computes Table III-style statistics over sessions.
func Summarize(sessions []*Session) Stats {
	st := Stats{Sessions: len(sessions)}
	oneOrTwo := 0
	for _, s := range sessions {
		n := s.Count()
		if n == 1 {
			st.SingleTransfer++
		} else {
			st.MultiTransfer++
		}
		if n <= 2 {
			oneOrTwo++
		}
		if n > st.MaxTransfers {
			st.MaxTransfers = n
		}
		if n >= 100 {
			st.SessionsOver100Xfers++
		}
	}
	if len(sessions) > 0 {
		st.PercentOneOrTwo = 100 * float64(oneOrTwo) / float64(len(sessions))
	}
	return st
}

// Sizes returns each session's total size in megabytes.
func Sizes(sessions []*Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.SizeBytes()) / 1e6
	}
	return out
}

// Durations returns each session's duration in seconds.
func Durations(sessions []*Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = s.DurationSec()
	}
	return out
}

// TransferThroughputsMbps returns the throughput of every individual
// transfer in Mbps (the paper characterizes transfer throughput, not
// session throughput, "because session throughputs could be lower if some
// of the individual transfers within a session had lower throughput").
func TransferThroughputsMbps(records []usagestats.Record) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.ThroughputMbps()
	}
	return out
}
