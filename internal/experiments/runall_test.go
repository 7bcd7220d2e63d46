package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// serialSeed42SHA256 is the SHA-256 of every exhibit rendered serially at
// seed 42 in paperrepro's output framing (`paperrepro -exp all -seed 42
// -parallel 1 | sha256sum`). A change that moves any byte of any table or
// figure must update it deliberately.
const serialSeed42SHA256 = "56c2841c153bc098691cbf8db46637038c9e8b8fbcc65916369d139192f27cfa"

// paperreproDigest hashes results exactly as paperrepro prints them: a
// row of '=' before each render, each followed by a newline.
func paperreproDigest(results []Result) string {
	h := sha256.New()
	for _, res := range results {
		h.Write([]byte(strings.Repeat("=", 80) + "\n" + res.Render() + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunAllMatchesSerial regenerates every exhibit serially and on a
// wide worker pool and requires byte-identical renders in identical
// order — the paperrepro -parallel guarantee.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit suite is slow")
	}
	ids := IDs()
	serial, err := RunAll(ids, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(ids, 42, 2*runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(serial))
	}
	for i, id := range ids {
		if serial[i].ID() != id || par[i].ID() != id {
			t.Fatalf("result %d: ids %q/%q, want %q (order must match input)", i, serial[i].ID(), par[i].ID(), id)
		}
		if par[i].Render() != serial[i].Render() {
			t.Errorf("exhibit %s: parallel render differs from serial", id)
		}
	}
	// Other architectures may fuse multiply-adds and move low float bits.
	if runtime.GOARCH != "amd64" {
		return
	}
	if got := paperreproDigest(serial); got != serialSeed42SHA256 {
		t.Errorf("seed-42 exhibit output changed: sha256 %s, want %s", got, serialSeed42SHA256)
	}
}

// TestRunAllFirstErrorInIDOrder checks that the reported error is the
// earliest failing id in the input order, not whichever worker failed
// first, and that successful results are still returned.
func TestRunAllFirstErrorInIDOrder(t *testing.T) {
	ids := []string{"no-such-exhibit-b", "table5", "no-such-exhibit-a"}
	results, err := RunAll(ids, 7, 3)
	if err == nil {
		t.Fatal("want error for unknown exhibits")
	}
	if !strings.Contains(err.Error(), "no-such-exhibit-b") {
		t.Errorf("err = %v, want the earliest failing id (no-such-exhibit-b)", err)
	}
	if results[1] == nil || results[1].ID() != "table5" {
		t.Errorf("successful exhibit not returned alongside the error")
	}
}

func TestRunAllClampsParallelism(t *testing.T) {
	for _, p := range []int{-1, 0, 1, 1000} {
		results, err := RunAll([]string{"table5"}, 7, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(results) != 1 || results[0].ID() != "table5" {
			t.Fatalf("parallelism %d: bad results %v", p, results)
		}
	}
	if res, err := RunAll(nil, 7, 4); err != nil || res != nil {
		t.Fatalf("empty ids: %v, %v", res, err)
	}
}
