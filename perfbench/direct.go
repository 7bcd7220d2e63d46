package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/pacing"
)

// The direct passes drive MODE E framing, window reassembly, the pacing
// limiter and DirStore's streaming write path through their public
// functions at the live workloads' geometry: 256 KiB blocks (the
// server's default block size and the client's upload chunk), 32 MiB
// objects, 64 KiB bufio buffers as the data connections use them.
const (
	directBlock  = 256 << 10
	directObject = 32 << 20
	directBytes  = 256 << 20 // per repetition
	directReps   = 5
	// serverWindow is the server's default STOR window, the in-order
	// receiver on bulk-3p; the interleaved pattern uses the client's
	// gridftp.DefaultWindowSize, as client-rw's RetrTo does.
	serverWindow = 8 << 20
	pacingBatch  = 400 // WaitN calls per fresh bucket: within its burst, so never throttled
	pacingCalls  = 200_000
	// dirObjects is how many objects the DirStore write pass stores. No
	// live workload writes to a DirStore: FinishPut's fsync on a shared
	// virtual disk made every such workload's figures drift with the
	// host's disk load.
	dirObjects = 4
)

// directStats is the direct passes' result.
type directStats struct {
	WriteBlockNSPerMB       float64
	ReadBlockIntoNSPerMB    float64
	ModeEAllocPerMB         float64
	PlaceInOrderNSPerMB     float64
	PlaceInterleavedNSPerMB float64
	WindowAllocPerMB        float64
	WaitNNSPerBlock         float64
	DirPutNSPerMB           float64 // BeginPut and PutRegion, median per object
	DirFinishPutMS          float64 // FinishPut of one object, fsync included; median
}

// timeReps runs f directReps times and returns the median ns per MB of
// directBytes, plus heap bytes allocated per MB over all repetitions.
func timeReps(f func() error) (nsPerMB, allocPerMB float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ns []float64
	for i := 0; i < directReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&ms1)
	mb := float64(directBytes) / 1e6
	return median(ns) / mb, float64(ms1.TotalAlloc-ms0.TotalAlloc) / (mb * directReps), nil
}

func directPass(seed int64, dir string) (directStats, error) {
	var d directStats
	data := payload(directBlock, seed, 1<<32)
	nBlocks := directBytes / directBlock

	// MODE E framing: encode into a 64 KiB bufio writer, decode from a
	// 64 KiB bufio reader over one pre-encoded object.
	var encoded bytes.Buffer
	for off := 0; off < directObject; off += directBlock {
		if err := gridftp.WriteBlock(&encoded, gridftp.Block{Offset: uint64(off), Data: data}); err != nil {
			return d, err
		}
	}
	var err error
	var writeAlloc, readAlloc float64
	d.WriteBlockNSPerMB, writeAlloc, err = timeReps(func() error {
		bw := bufio.NewWriterSize(io.Discard, 64<<10)
		for i := 0; i < nBlocks; i++ {
			if err := gridftp.WriteBlock(bw, gridftp.Block{Offset: uint64(i * directBlock), Data: data}); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	if err != nil {
		return d, err
	}
	d.ReadBlockIntoNSPerMB, readAlloc, err = timeReps(func() error {
		var scratch []byte
		src := bytes.NewReader(encoded.Bytes())
		br := bufio.NewReaderSize(src, 64<<10)
		for i := 0; i < nBlocks; i++ {
			if i%(directObject/directBlock) == 0 {
				src.Reset(encoded.Bytes())
				br.Reset(src)
			}
			var err error
			if _, scratch, err = gridftp.ReadBlockInto(br, scratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return d, err
	}
	d.ModeEAllocPerMB = writeAlloc + readAlloc

	// Window reassembly of whole objects: in order (one stream), and in
	// the 4-stream pattern, where every group of four consecutive blocks
	// arrives in a seeded order.
	perm := make([][]int, directObject/directBlock/rwStreams)
	for r := range perm {
		p := []int{0, 1, 2, 3}
		for i := len(p) - 1; i > 0; i-- {
			j := int(mix(seed, uint64(5000+r*4+i)) % uint64(i+1))
			p[i], p[j] = p[j], p[i]
		}
		perm[r] = p
	}
	assemble := func(window int, order func(i int) int) error {
		for done := 0; done < directBytes; done += directObject {
			a, err := gridftp.NewWindowAssembler(io.Discard, 0, directObject, window, 0)
			if err != nil {
				return err
			}
			for i := 0; i < directObject/directBlock; i++ {
				if err := a.Place(gridftp.Block{Offset: uint64(order(i) * directBlock), Data: data}); err != nil {
					return err
				}
			}
			if err := a.Finish(); err != nil {
				return err
			}
		}
		return nil
	}
	var inAlloc, ilAlloc float64
	d.PlaceInOrderNSPerMB, inAlloc, err = timeReps(func() error {
		return assemble(serverWindow, func(i int) int { return i })
	})
	if err != nil {
		return d, err
	}
	d.PlaceInterleavedNSPerMB, ilAlloc, err = timeReps(func() error {
		return assemble(gridftp.DefaultWindowSize, func(i int) int {
			return i - i%rwStreams + perm[i/rwStreams][i%rwStreams]
		})
	})
	if err != nil {
		return d, err
	}
	d.WindowAllocPerMB = (inAlloc + ilAlloc) / 2

	// Pacing: WaitN per block on a limiter over a bucket at bulk-3p's
	// aggregate rate, kept inside the bucket's burst so it never sleeps.
	ctx := context.Background()
	var waitNS time.Duration
	for done := 0; done < pacingCalls; done += pacingBatch {
		lim := pacing.NewLimiter(pacing.NewBucket(aggregateRate, 0))
		t0 := time.Now()
		for i := 0; i < pacingBatch; i++ {
			if err := lim.WaitN(ctx, directBlock); err != nil {
				return d, err
			}
		}
		waitNS += time.Since(t0)
		if lim.Waited() > 0 {
			return d, errors.New("pacing direct pass throttled; the batch exceeds the bucket's burst")
		}
	}
	d.WaitNNSPerBlock = float64(waitNS) / pacingCalls

	d.DirPutNSPerMB, d.DirFinishPutMS, err = dirWritePass(dir, data)
	return d, err
}

// dirWritePass stores dirObjects objects in a fresh DirStore the way the
// windowed STOR path does: BeginPut, PutRegion in ascending block-sized
// regions, FinishPut.
func dirWritePass(dir string, block []byte) (putNSPerMB, finishMS float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	ds, err := gridftp.NewDirStore(dir)
	if err != nil {
		return 0, 0, err
	}
	var put, finish []float64
	for i := 0; i < dirObjects; i++ {
		name := fmt.Sprintf("obj%d", i)
		t0 := time.Now()
		if err := ds.BeginPut(name, 0); err != nil {
			return 0, 0, err
		}
		for off := 0; off < directObject; off += len(block) {
			if err := ds.PutRegion(name, int64(off), block); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		if err := ds.FinishPut(name, directObject); err != nil {
			return 0, 0, err
		}
		put = append(put, float64(t1.Sub(t0))/(directObject/1e6))
		finish = append(finish, float64(time.Since(t1))/float64(time.Millisecond))
	}
	return median(put), median(finish), nil
}
