package bench

import (
	"fmt"
	"strings"
	"time"

	"nfstricks/internal/disk"
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/zonefs"
)

// zcavXferKB is the transfer-size sweep (the client's rsize).
var zcavXferKB = []int{8, 32}

// zcavFileMB is the working-set size at Scale 1.
const zcavFileMB = 16

// zcavColdCacheMB starves the buffer cache: the working set never
// fits, so every pass over the file pays the disk (an LRU cache
// scanned sequentially evicts each block just before its next use).
const zcavColdCacheMB = 1

// zcavWarmCacheMB holds the whole working set after one priming pass.
const zcavWarmCacheMB = 64

// zcavWarmMeasureBytes is the minimum bytes a warm measurement covers;
// warm reads run at memory speed, so one small file pass would be too
// short a window to time honestly.
const zcavWarmMeasureBytes = 64 << 20

// zcavCell runs one live READ throughput measurement: a zonefs store
// with the given placement and cache size, served over real TCP
// loopback through the nfsd dispatch layer, primed with one full
// sequential pass, then timed over at least one further pass. With reg
// non-nil the server records per-request stage spans — in particular
// the simulated disk service time zonefs sleeps out, which the cold
// cells' attribution note reports.
func zcavCell(placement zonefs.Placement, cacheMB, xferKB int, run int, p Params, reg *obs.Registry) (float64, error) {
	fileBytes := int64(zcavFileMB<<20) / int64(p.Scale)
	if fileBytes < 2<<20 {
		fileBytes = 2 << 20
	}
	backend := zonefs.New(zonefs.Config{
		Placement: placement,
		CacheMB:   cacheMB,
		Seed:      p.Seed + int64(run),
	})
	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err := backend.Create(memfs.RootFH, "data", payload); err != nil {
		return 0, fmt.Errorf("zcav-live: create failed (region full?)")
	}
	svc := nfsd.New(backend, nfsd.Config{Obs: reg})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{Spans: svc.SpanTable()})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()

	fh, size, err := c.Lookup(memfs.RootFH, "data")
	if err != nil {
		return 0, err
	}
	xfer := uint32(xferKB << 10)
	pass := func() error {
		for off := uint64(0); off < uint64(size); off += uint64(xfer) {
			if _, _, err := c.Read(fh, off, xfer); err != nil {
				return err
			}
		}
		return nil
	}

	// Priming pass: warms the cache when it fits, and brings the
	// heuristic/drive state to steady state either way.
	if err := pass(); err != nil {
		return 0, err
	}
	passes := 1
	if cacheMB >= zcavWarmCacheMB {
		if n := int(zcavWarmMeasureBytes / fileBytes); n > passes {
			passes = n
		}
	}
	start := time.Now()
	for i := 0; i < passes; i++ {
		if err := pass(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(fileBytes) * float64(passes) / 1e6 / elapsed.Seconds(), nil
}

// ZCAVLive is the paper's ZCAV and cache-warmth traps measured on the
// live server: files on a simulated zoned drive behind real RPC, zone
// placement (outer vs inner quarter) crossed with buffer cache size
// (a 1 MB cache the working set thrashes vs a 64 MB cache it fits
// in), swept over client transfer sizes.
//
// The shape under test: with a cold cache, outer-zone files read
// measurably faster than inner-zone ones — benchmarking two servers
// whose data merely sits at different disk positions "measures" a
// difference no code change made. With a warm cache both placements
// collapse to memory speed and the gap disappears — and a benchmark
// that does not control cache warmth can report either result.
func ZCAVLive(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "zcav-live", Title: "Live ZCAV trap: zone placement x cache size over real RPC",
		XLabel: "xferKB", YLabel: "READ throughput (MB/s)",
		X: zcavXferKB,
	}
	// One discarded warm cell first: the very first live measurement in
	// a process is depressed by cold TCP buffers, page faults and
	// allocator growth, and would bias whichever series ran first — a
	// benchmarking trap of our own the paper would appreciate.
	if _, err := zcavCell(zonefs.Outer, zcavWarmCacheMB, zcavXferKB[0], 0, p, nil); err != nil {
		return nil, fmt.Errorf("zcav-live warmup: %w", err)
	}
	cells := []struct {
		label   string
		place   zonefs.Placement
		cacheMB int
	}{
		{"outer/cold", zonefs.Outer, zcavColdCacheMB},
		{"inner/cold", zonefs.Inner, zcavColdCacheMB},
		{"outer/warm", zonefs.Outer, zcavWarmCacheMB},
		{"inner/warm", zonefs.Inner, zcavWarmCacheMB},
	}
	// Runs interleave the cells (outer and inner measured back to
	// back within each run) so slow machine drift lands on every
	// series equally instead of skewing whichever ran last — the
	// placement comparison is paired, not sequential.
	samples := make([][][]float64, len(cells))
	for i := range samples {
		samples[i] = make([][]float64, len(zcavXferKB))
	}
	// Per-cell stage spans: the cold cells' breakdown is the experiment's
	// attribution claim made quantitative — the throughput gap is
	// simulated disk time, and the disk stage's share of the request
	// total says exactly how much.
	breakdown := make(map[string]obs.ProcStats)
	for xi, xferKB := range zcavXferKB {
		for run := 0; run < p.Runs; run++ {
			for ci, cell := range cells {
				var stop func()
				if run == 0 {
					stop = p.startCellProfile(fmt.Sprintf("zcav-live_%s_x%dK",
						strings.ReplaceAll(cell.label, "/", "-"), xferKB))
				}
				reg := obs.NewRegistry()
				mbps, err := zcavCell(cell.place, cell.cacheMB, xferKB, run, p, reg)
				if stop != nil {
					stop()
				}
				if err != nil {
					return nil, fmt.Errorf("zcav-live %s xfer=%dK: %w", cell.label, xferKB, err)
				}
				samples[ci][xi] = append(samples[ci][xi], mbps)
				if run == 0 && xi == 0 {
					if ps, ok := reg.Spans("nfsd_op", nil).ProcSummary("READ"); ok {
						breakdown[cell.label] = ps
					}
				}
			}
		}
	}
	for ci, cell := range cells {
		s := Series{Label: cell.label}
		for xi := range zcavXferKB {
			s.Samples = append(s.Samples, stats.Summarize(samples[ci][xi]))
		}
		r.Series = append(r.Series, s)
	}
	// Only the cold cells get the note: their spans are pure
	// cache-missing traffic, and the dominant-stage share Note reports
	// is the attribution claim ("the gap IS simulated seek time"). Warm
	// cells' spans would be polluted by their priming pass.
	for _, cell := range cells {
		ps, ok := breakdown[cell.label]
		if !ok || ps.Count == 0 || cell.cacheMB != zcavColdCacheMB {
			continue
		}
		r.Notes = append(r.Notes, fmt.Sprintf("stage breakdown %s (x=%dK, run 0) READ: %s",
			cell.label, zcavXferKB[0], ps.Note()))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("zonefs on %s, file %d MB/scale; cold = %d MB cache (thrashes), warm = %d MB (fits)",
			disk.WD200BB().Name, zcavFileMB, zcavColdCacheMB, zcavWarmCacheMB),
		"simulated disk service time elapses for real on the RPC path; warm reads never touch it",
		"same protocol stack, same files, same client — only LBA placement and cache warmth differ")
	return r, nil
}
