package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/wgather"
)

// writePathWindows is the gather-window sweep, in milliseconds (the X
// axis). 0 is the degenerate write-through configuration — the
// synchronous behaviour the server had before the gathering engine.
var writePathWindows = []int{0, 1, 4, 16}

// writePathSinks is the sink-speed sweep: the fixed per-flush cost of
// stable storage. Gathering's win grows with the cost it amortizes.
var writePathSinks = []struct {
	label   string
	latency time.Duration
}{
	{"fast", 100 * time.Microsecond},
	{"slow", 600 * time.Microsecond},
}

// writePathClients is how many concurrent writers drive each cell, one
// file each.
const writePathClients = 2

// writePathBytes is how much each client writes per run at Scale 1.
const writePathBytes = 1 << 20

// writePathChunk is the per-WRITE payload (the paper's 8 KB request
// size).
const writePathChunk = 8192

// writePathCommitEvery is how many unstable writes ride between
// COMMITs in the gathered workload.
const writePathCommitEvery = 32

// writeBehindWindow bounds the client's in-flight unstable writes.
const writeBehindWindow = 8

// writePathPattern fills buf with the deterministic payload for offset
// off of client file i.
func writePathPattern(buf []byte, i int, off uint64) {
	for j := range buf {
		buf[j] = byte((int(off) + j*7 + i) * 31)
	}
}

// writePathEnv is one cell's server: a fresh store with one file per
// client, served through a gathering engine with the given window and
// a throttled sink whose inner MemSink retains the stable image for
// integrity checks.
type writePathEnv struct {
	fs   *memfs.FS
	svc  *nfsd.Service
	mem  *wgather.MemSink
	addr string
	fhs  []nfsproto.FH
	stop func()
}

func newWritePathEnv(window time.Duration, sinkLatency time.Duration, perClient int) (*writePathEnv, error) {
	fs := memfs.NewFS()
	fhs := make([]nfsproto.FH, writePathClients)
	for i := range fhs {
		// Pre-size the files so the sweep measures the write pipeline,
		// not allocator regrowth.
		fhs[i], _ = fs.Create(memfs.RootFH, fmt.Sprintf("w%d", i), make([]byte, perClient))
	}
	mem := wgather.NewMemSink()
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{
		Window: window,
		Sink:   &wgather.ThrottledSink{Inner: mem, Latency: sinkLatency},
	}})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &writePathEnv{fs: fs, svc: svc, mem: mem, addr: srv.Addr(), fhs: fhs,
		stop: func() { srv.Close(); svc.Close() }}, nil
}

// latPct returns the p-th percentile of ds (sorted in place).
func latPct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(p*float64(len(ds)-1))]
}

// runFileSync drives the synchronous baseline: every client writes its
// file sequentially with FILE_SYNC, paying the sink's flush cost once
// per RPC. Returns achieved aggregate ops/s and per-WRITE reply
// latencies.
func runFileSync(env *writePathEnv, perClient int) (float64, []time.Duration, error) {
	type res struct {
		lats []time.Duration
		err  error
	}
	results := make(chan res, writePathClients)
	t0 := time.Now()
	for i := 0; i < writePathClients; i++ {
		go func(i int) {
			var r res
			r.err = func() error {
				c, err := memfs.DialClient("tcp", env.addr)
				if err != nil {
					return err
				}
				defer c.Close()
				buf := make([]byte, writePathChunk)
				for off := uint64(0); off < uint64(perClient); off += writePathChunk {
					writePathPattern(buf, i, off)
					issued := time.Now()
					if err := c.Write(env.fhs[i], off, buf); err != nil {
						return err
					}
					r.lats = append(r.lats, time.Since(issued))
				}
				return nil
			}()
			results <- r
		}(i)
	}
	var lats []time.Duration
	var firstErr error
	for i := 0; i < writePathClients; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		lats = append(lats, r.lats...)
	}
	elapsed := time.Since(t0)
	if firstErr != nil {
		return 0, nil, firstErr
	}
	ops := writePathClients * (perClient / writePathChunk)
	return float64(ops) / elapsed.Seconds(), lats, nil
}

// runUnstable drives the asynchronous pipeline: every client streams
// UNSTABLE writes through a write-behind window and COMMITs every
// writePathCommitEvery writes — the biod shape. Returns aggregate
// ops/s (WRITEs plus COMMITs) and per-WRITE issue-to-issue latencies
// (what the pipelined client observes per request slot).
func runUnstable(env *writePathEnv, perClient int) (float64, []time.Duration, error) {
	type res struct {
		lats []time.Duration
		err  error
	}
	results := make(chan res, writePathClients)
	t0 := time.Now()
	for i := 0; i < writePathClients; i++ {
		go func(i int) {
			var r res
			r.err = func() error {
				c, err := memfs.DialClient("tcp", env.addr)
				if err != nil {
					return err
				}
				defer c.Close()
				wb := c.NewWriteBehind(env.fhs[i], writeBehindWindow)
				buf := make([]byte, writePathChunk)
				n := 0
				for off := uint64(0); off < uint64(perClient); off += writePathChunk {
					writePathPattern(buf, i, off)
					issued := time.Now()
					if err := wb.Write(off, buf); err != nil {
						return err
					}
					r.lats = append(r.lats, time.Since(issued))
					if n++; n%writePathCommitEvery == 0 {
						if _, err := wb.Commit(); err != nil {
							return err
						}
					}
				}
				_, err = wb.Commit()
				return err
			}()
			results <- r
		}(i)
	}
	var lats []time.Duration
	var firstErr error
	for i := 0; i < writePathClients; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		lats = append(lats, r.lats...)
	}
	elapsed := time.Since(t0)
	if firstErr != nil {
		return 0, nil, firstErr
	}
	writes := perClient / writePathChunk
	commits := writes/writePathCommitEvery + 1
	return float64(writePathClients*(writes+commits)) / elapsed.Seconds(), lats, nil
}

// runHotspot rewrites one hot region UNSTABLE many times before a
// single COMMIT — the coalescing showcase: bytes gathered greatly
// exceed bytes flushed because overlapping dirty ranges absorb each
// other inside the window. The region is a small file of its own, so
// its rewrites start a fresh gather window rather than inheriting one
// from the streaming cell's files, and each copy-on-write overwrite
// copies 32 KB rather than a whole client file: the passes then fit
// inside a few-millisecond window on a slow host too, and the cell
// measures coalescing rather than host speed. Returns the
// flushed/gathered percentage (lower = more coalescing).
func runHotspot(env *writePathEnv) (float64, error) {
	c, err := memfs.DialClient("tcp", env.addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	const passes = 8
	const region = 4 * writePathChunk
	hot, err := env.fs.Create(memfs.RootFH, "hot", make([]byte, region))
	if err != nil {
		return 0, err
	}
	before := env.svc.WriteStats()
	buf := make([]byte, writePathChunk)
	for p := 0; p < passes; p++ {
		for off := uint64(0); off < region; off += writePathChunk {
			writePathPattern(buf, 0, off)
			if _, err := c.WriteUnstable(hot, off, buf); err != nil {
				return 0, err
			}
		}
	}
	if _, err := c.Commit(hot, 0, 0); err != nil {
		return 0, err
	}
	after := env.svc.WriteStats()
	gathered := after.GatheredBytes - before.GatheredBytes
	flushed := after.FlushedBytes - before.FlushedBytes
	if gathered == 0 {
		return 100, nil
	}
	return 100 * float64(flushed) / float64(gathered), nil
}

// verifyStable checks the sink's stable image of every client file
// against the expected pattern — the integrity floor under every cell.
func verifyStable(env *writePathEnv, perClient int) error {
	want := make([]byte, perClient)
	for i := 0; i < writePathClients; i++ {
		for off := 0; off < perClient; off += writePathChunk {
			writePathPattern(want[off:off+writePathChunk], i, uint64(off))
		}
		got := env.mem.Bytes(uint64(env.fhs[i]))
		if len(got) < perClient {
			return fmt.Errorf("write-path: stable image of file %d is %d bytes, want %d", i, len(got), perClient)
		}
		if !bytes.Equal(got[:perClient], want) {
			return fmt.Errorf("write-path: stable image of file %d differs from written data", i)
		}
	}
	return nil
}

// checkWriteThroughEquivalence asserts the acceptance property of the
// zero-width window: on the in-memory sink, UNSTABLE writes behave
// bit-for-bit like the old synchronous server — every write reaches
// the sink before its reply (flushes == writes), is advertised
// FILE_SYNC, and the stable image equals the written bytes exactly.
func checkWriteThroughEquivalence() error {
	fs := memfs.NewFS()
	fh, _ := fs.Create(memfs.RootFH, "sync", nil)
	mem := wgather.NewMemSink()
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: 0, Sink: mem}})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		svc.Close()
		return err
	}
	defer func() { srv.Close(); svc.Close() }()
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()

	const writes = 64
	want := make([]byte, writes*writePathChunk)
	buf := make([]byte, writePathChunk)
	for i := 0; i < writes; i++ {
		off := uint64(i * writePathChunk)
		writePathPattern(buf, 0, off)
		copy(want[off:], buf)
		res, err := c.WriteStable(fh, off, buf, nfsproto.WriteUnstable)
		if err != nil {
			return err
		}
		if res.Committed != nfsproto.WriteFileSync {
			return fmt.Errorf("write-path: zero window advertised stability %d, want FILE_SYNC", res.Committed)
		}
	}
	st := svc.WriteStats()
	if st.Flushes != writes {
		return fmt.Errorf("write-path: zero window made %d flushes for %d writes, want one per write", st.Flushes, writes)
	}
	if got := mem.Bytes(uint64(fh)); !bytes.Equal(got, want) {
		return fmt.Errorf("write-path: zero-window stable image differs from written data")
	}
	return nil
}

// WritePath is the asynchronous-write-pipeline experiment: it sweeps
// the server's gather window × the stable-storage sink's speed and
// compares the synchronous stability mix (FILE_SYNC, one sink flush
// per RPC) against the asynchronous one (UNSTABLE writes behind a
// biod-style write-behind window, COMMIT every 32 writes), reporting
// achieved ops/s per cell, per-WRITE p50/p99 reply latency on the slow
// sink, how many sink flushes 1000 client writes cost, and how much a
// hot-spot rewrite workload's flushed bytes shrink versus bytes
// gathered (coalescing). Every cell is integrity-checked against the
// sink's stable image, and the zero-width window is asserted to
// reproduce the old synchronous behaviour bit-for-bit on the in-memory
// sink.
func WritePath(p Params) (*Result, error) {
	p.fill()
	perClient := writePathBytes / p.Scale
	if perClient < 8*writePathChunk {
		perClient = 8 * writePathChunk
	}
	// Round to whole chunks.
	perClient -= perClient % writePathChunk

	if err := checkWriteThroughEquivalence(); err != nil {
		return nil, err
	}

	r := &Result{
		ID: "write-path", Title: "Asynchronous write pipeline: gather window x sink speed vs synchronous writes",
		XLabel: "window (ms)", YLabel: "ops/s, latency (µs), flushes per 1k writes, flushed/gathered (%)",
		X: writePathWindows,
	}
	series := map[string]*Series{}
	order := []string{}
	addSeries := func(label string, better string) *Series {
		s := &Series{Label: label, Better: better}
		series[label] = s
		order = append(order, label)
		return s
	}
	for _, sk := range writePathSinks {
		addSeries("filesync ops/s ("+sk.label+" sink)", BetterHigher)
		addSeries("unstable+commit ops/s ("+sk.label+" sink)", BetterHigher)
	}
	addSeries("filesync write p99 (µs, slow sink)", BetterLower)
	addSeries("unstable write p50 (µs, slow sink)", BetterLower)
	addSeries("unstable write p99 (µs, slow sink)", BetterLower)
	addSeries("sink flushes per 1k writes", BetterLower)
	addSeries("hotspot flushed/gathered (%)", BetterLower)

	for _, winMS := range writePathWindows {
		window := time.Duration(winMS) * time.Millisecond
		acc := map[string][]float64{}
		for run := 0; run < p.Runs; run++ {
			for _, sk := range writePathSinks {
				// Synchronous baseline.
				env, err := newWritePathEnv(window, sk.latency, perClient)
				if err != nil {
					return nil, fmt.Errorf("write-path: %w", err)
				}
				ops, lats, err := runFileSync(env, perClient)
				if err == nil {
					err = verifyStable(env, perClient)
				}
				env.stop()
				if err != nil {
					return nil, fmt.Errorf("write-path filesync window=%dms sink=%s: %w", winMS, sk.label, err)
				}
				acc["filesync ops/s ("+sk.label+" sink)"] = append(acc["filesync ops/s ("+sk.label+" sink)"], ops)
				if sk.label == "slow" {
					acc["filesync write p99 (µs, slow sink)"] = append(acc["filesync write p99 (µs, slow sink)"],
						float64(latPct(lats, 0.99).Microseconds()))
				}

				// Asynchronous pipeline on a fresh server.
				env, err = newWritePathEnv(window, sk.latency, perClient)
				if err != nil {
					return nil, fmt.Errorf("write-path: %w", err)
				}
				ops, lats, err = runUnstable(env, perClient)
				if err == nil {
					err = verifyStable(env, perClient)
				}
				if err == nil && sk.label == "slow" {
					st := env.svc.WriteStats()
					writes := st.WritesUnstable + st.WritesDataSync + st.WritesFileSync
					if writes > 0 {
						acc["sink flushes per 1k writes"] = append(acc["sink flushes per 1k writes"],
							1000*float64(st.Flushes)/float64(writes))
					}
					acc["unstable write p50 (µs, slow sink)"] = append(acc["unstable write p50 (µs, slow sink)"],
						float64(latPct(lats, 0.50).Microseconds()))
					acc["unstable write p99 (µs, slow sink)"] = append(acc["unstable write p99 (µs, slow sink)"],
						float64(latPct(lats, 0.99).Microseconds()))
					var pct float64
					pct, err = runHotspot(env)
					if err == nil {
						acc["hotspot flushed/gathered (%)"] = append(acc["hotspot flushed/gathered (%)"], pct)
					}
				}
				env.stop()
				if err != nil {
					return nil, fmt.Errorf("write-path unstable window=%dms sink=%s: %w", winMS, sk.label, err)
				}
				acc["unstable+commit ops/s ("+sk.label+" sink)"] = append(acc["unstable+commit ops/s ("+sk.label+" sink)"], ops)
			}
		}
		for _, label := range order {
			series[label].Samples = append(series[label].Samples, stats.Summarize(acc[label]))
		}
	}
	for _, label := range order {
		r.Series = append(r.Series, *series[label])
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d clients x %d KB in %d KB FILE_SYNC or UNSTABLE(+COMMIT every %d) writes over loopback TCP",
			writePathClients, perClient>>10, writePathChunk>>10, writePathCommitEvery),
		"sinks: throttled per-flush latency fast=100us slow=600us (MemSink inner); every cell integrity-checked against the stable image",
		"window 0 = write-through: verified bit-for-bit equal to the old synchronous server on the in-memory sink",
		"unstable write latency is the pipelined per-request slot time (write-behind window 8)",
	)
	return r, nil
}
