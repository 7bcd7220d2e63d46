// Package usagestats implements Globus-style GridFTP usage statistics: the
// per-transfer record that GridFTP servers emit at the end of each
// transfer, a text log format for local server logs, and the UDP
// collection channel that ships records to a central collector (the paper
// obtained its datasets from exactly these two sources).
package usagestats

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TransferType is the direction of a transfer relative to the server.
type TransferType string

const (
	// Store is a STOR: the file moved to the logging server.
	Store TransferType = "STOR"
	// Retrieve is a RETR: the file moved from the logging server.
	Retrieve TransferType = "RETR"
)

// Record is one GridFTP transfer log entry. The fields mirror what the
// Globus usage logger captures: transfer type, size in bytes, start time,
// duration, server identity, parallel TCP streams, stripes, TCP buffer
// size, and block size. RemoteHost is the other end of the transfer; the
// central Globus collector omits it for privacy, and some sites (NERSC in
// the paper) anonymize it even in local logs.
type Record struct {
	Type        TransferType
	SizeBytes   int64
	Start       time.Time
	DurationSec float64
	ServerHost  string
	RemoteHost  string // empty when anonymized
	Streams     int
	Stripes     int
	BufferBytes int64
	BlockBytes  int64
	// Code is the final FTP reply code of the transfer. Zero means a
	// completed transfer (the historical record shape; Globus loggers
	// omit the code on success). Codes >= 400 mark failed or aborted
	// transfers, which carry the partial byte count in SizeBytes — the
	// records the live failure-rate analysis needs and which success-only
	// loggers drop.
	Code int
	// WireBytes is the raw data-channel byte count when it differs from
	// SizeBytes: a resumed transfer that re-sent an overlap region moves
	// more bytes on the wire than it delivers. Zero means wire ==
	// delivered (the historical record shape; the WIRE= key is omitted),
	// which keeps old logs byte-identical.
	WireBytes int64
}

// Failed reports whether the record describes a failed or aborted
// transfer (final reply code >= 400).
func (r Record) Failed() bool { return r.Code >= 400 }

// ThroughputBps returns the transfer's average throughput in bits/second,
// or 0 when the duration is not positive.
func (r Record) ThroughputBps() float64 {
	if r.DurationSec <= 0 {
		return 0
	}
	return float64(r.SizeBytes) * 8 / r.DurationSec
}

// ThroughputMbps returns the throughput in megabits/second.
func (r Record) ThroughputMbps() float64 { return r.ThroughputBps() / 1e6 }

// End returns the completion time of the transfer.
func (r Record) End() time.Time {
	return r.Start.Add(time.Duration(r.DurationSec * float64(time.Second)))
}

// Validate reports whether the record is well formed.
func (r Record) Validate() error {
	switch {
	case r.Type != Store && r.Type != Retrieve:
		return fmt.Errorf("usagestats: unknown transfer type %q", r.Type)
	case r.Code < 0 || (r.Code > 0 && (r.Code < 100 || r.Code > 699)):
		return fmt.Errorf("usagestats: implausible reply code %d", r.Code)
	case r.Failed() && r.SizeBytes < 0:
		return errors.New("usagestats: negative partial size")
	case !r.Failed() && r.SizeBytes <= 0:
		return errors.New("usagestats: size must be positive")
	case r.DurationSec <= 0:
		return errors.New("usagestats: duration must be positive")
	case r.Start.IsZero():
		return errors.New("usagestats: start time unset")
	case r.ServerHost == "":
		return errors.New("usagestats: server host unset")
	case r.Streams < 1:
		return errors.New("usagestats: streams must be >= 1")
	case r.Stripes < 1:
		return errors.New("usagestats: stripes must be >= 1")
	case r.BufferBytes < 0 || r.BlockBytes < 0:
		return errors.New("usagestats: negative buffer or block size")
	case r.WireBytes < 0:
		return errors.New("usagestats: negative wire byte count")
	}
	return nil
}

// Anonymize returns a copy of the record with the remote endpoint removed,
// as the central collector and privacy-conscious sites do.
func (r Record) Anonymize() Record {
	r.RemoteHost = ""
	return r
}

// timeLayout is the wall-clock format in logs (UTC, microseconds).
const timeLayout = "2006-01-02T15:04:05.000000Z"

// Marshal renders the record as one key=value log line, the wire format of
// both the local server log and the UDP usage packet payload.
func (r Record) Marshal() string {
	kv := map[string]string{
		"TYPE":     string(r.Type),
		"NBYTES":   strconv.FormatInt(r.SizeBytes, 10),
		"START":    r.Start.UTC().Format(timeLayout),
		"DURATION": strconv.FormatFloat(r.DurationSec, 'f', 6, 64),
		"HOST":     r.ServerHost,
		"STREAMS":  strconv.Itoa(r.Streams),
		"STRIPES":  strconv.Itoa(r.Stripes),
		"BUFFER":   strconv.FormatInt(r.BufferBytes, 10),
		"BLOCK":    strconv.FormatInt(r.BlockBytes, 10),
	}
	if r.RemoteHost != "" {
		kv["DEST"] = r.RemoteHost
	}
	if r.Code != 0 {
		kv["CODE"] = strconv.Itoa(r.Code)
	}
	if r.WireBytes != 0 {
		kv["WIRE"] = strconv.FormatInt(r.WireBytes, 10)
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+kv[k])
	}
	return strings.Join(parts, " ")
}

// Unmarshal parses one log line produced by Marshal.
func Unmarshal(line string) (Record, error) {
	var r Record
	for _, field := range strings.Fields(line) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return r, fmt.Errorf("usagestats: malformed field %q", field)
		}
		var err error
		switch k {
		case "TYPE":
			r.Type = TransferType(v)
		case "NBYTES":
			r.SizeBytes, err = strconv.ParseInt(v, 10, 64)
		case "START":
			r.Start, err = time.Parse(timeLayout, v)
		case "DURATION":
			r.DurationSec, err = strconv.ParseFloat(v, 64)
		case "HOST":
			r.ServerHost = v
		case "DEST":
			r.RemoteHost = v
		case "STREAMS":
			r.Streams, err = strconv.Atoi(v)
		case "STRIPES":
			r.Stripes, err = strconv.Atoi(v)
		case "BUFFER":
			r.BufferBytes, err = strconv.ParseInt(v, 10, 64)
		case "BLOCK":
			r.BlockBytes, err = strconv.ParseInt(v, 10, 64)
		case "CODE":
			r.Code, err = strconv.Atoi(v)
		case "WIRE":
			r.WireBytes, err = strconv.ParseInt(v, 10, 64)
		default:
			// Ignore unknown keys: newer servers add fields.
		}
		if err != nil {
			return r, fmt.Errorf("usagestats: bad value for %s: %w", k, err)
		}
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// WriteLog writes records to w, one Marshal line each.
func WriteLog(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, err := bw.WriteString(r.Marshal() + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a log stream written by WriteLog. Blank lines and lines
// starting with '#' are skipped.
func ReadLog(rd io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := Unmarshal(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortByStart orders records by start time (stable), the order session
// grouping requires. Starts compare as wall-clock instants, so the same
// instant in different locations ties; ties keep their input order.
//
// Records are 136 bytes, so rather than swapping them through a generic
// sort it radix-sorts a compact (seconds, nanoseconds, index) key per
// record, then applies the permutation in place one cycle at a time:
// every record moves once. Already-sorted input is left untouched.
func SortByStart(records []Record) {
	if startsSorted(records) {
		return
	}
	keys := make([]startKey, len(records))
	for i := range records {
		keys[i] = keyOf(records[i].Start, i)
	}
	keys = radixSort(keys)
	// Position k receives the record at keys[k].idx. Follow each cycle of
	// that permutation, marking visited positions with idx = k.
	for k := range keys {
		if keys[k].idx == k {
			continue
		}
		tmp := records[k]
		j := k
		for {
			src := keys[j].idx
			keys[j].idx = j
			if src == k {
				records[j] = tmp
				break
			}
			records[j] = records[src]
			j = src
		}
	}
}

// startKey is a record's start instant plus its input index. sec is the
// Unix second with the sign bit flipped, so unsigned order is time order.
type startKey struct {
	sec  uint64
	nsec uint32
	idx  int
}

func keyOf(t time.Time, idx int) startKey {
	return startKey{sec: uint64(t.Unix()) ^ 1<<63, nsec: uint32(t.Nanosecond()), idx: idx}
}

// digit returns byte d of the key's instant, least significant first:
// bytes 0-3 of nsec, then bytes 0-7 of sec.
func (k startKey) digit(d int) byte {
	if d < 4 {
		return byte(k.nsec >> (8 * d))
	}
	return byte(k.sec >> (8 * (d - 4)))
}

// radixSort orders keys by instant with a least-significant-digit radix
// sort over bytes. Each pass is stable, so equal instants stay in index
// order, and a byte that every key shares costs no pass. It returns the
// sorted keys, which are in keys or in a scratch slice of the same length.
func radixSort(keys []startKey) []startKey {
	var counts [12][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][k.digit(d)]++
		}
	}
	var buf []startKey
	for d := range counts {
		c := &counts[d]
		if c[keys[0].digit(d)] == len(keys) {
			continue
		}
		if buf == nil {
			buf = make([]startKey, len(keys))
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, k := range keys {
			b := k.digit(d)
			buf[c[b]] = k
			c[b]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// startsSorted reports whether records are already in start order, by the
// same instant comparison the sort uses.
func startsSorted(records []Record) bool {
	for i := 1; i < len(records); i++ {
		a, b := keyOf(records[i-1].Start, i-1), keyOf(records[i].Start, i)
		if b.sec < a.sec || b.sec == a.sec && b.nsec < a.nsec {
			return false
		}
	}
	return true
}
