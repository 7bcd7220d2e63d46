package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; 0 for none. +Inf samples (failed jobs) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailNote states how many samples lie beyond a percentile, the figure
// that says whether the percentile is resolved (ten or more) or mostly
// one slow sample.
func tailNote(n int, p float64) string {
	beyond := n - int(math.Ceil(p/100*float64(n)))
	return fmt.Sprintf("p%g of n=%d, %d beyond", p, n, beyond)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size so far.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports kilobytes
}

// fillPayloadAt fills p with bytes [off, off+len(p)) of a deterministic
// pseudo-random byte stream identified by (seed, id): the same pair always
// yields the same bytes, different pairs yield unrelated bytes, so
// misplaced or stale regions never compare equal by accident. Any part of
// the stream can be regenerated alone, so the benchmark never needs to
// hold a reference copy of an object.
func fillPayloadAt(p []byte, seed int64, id uint64, off int64) {
	const gamma = 0x9e3779b97f4a7c15
	x := uint64(seed)*gamma ^ (id+1)*0xbf58476d1ce4e5b9
	x += uint64(off/8) * gamma
	skip := int(off % 8)
	var w [8]byte
	for i := 0; i < len(p); {
		// splitmix64
		x += gamma
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if skip == 0 && len(p)-i >= 8 {
			binary.LittleEndian.PutUint64(p[i:], z)
			i += 8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], z)
		i += copy(p[i:], w[skip:])
		skip = 0
	}
}

// payload returns a fresh n-byte payload for (seed, id).
func payload(n int, seed int64, id uint64) []byte {
	p := make([]byte, n)
	fillPayloadAt(p, seed, id, 0)
	return p
}

// mix derives an unrelated 64-bit value from a seed and a stream tag, for
// seeding independent draws from one --seed.
func mix(seed int64, tag uint64) uint64 {
	z := uint64(seed) + tag*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
