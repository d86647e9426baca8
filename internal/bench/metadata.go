package bench

import (
	"fmt"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/vfs"
	"nfstricks/internal/zonefs"
)

// metaDirSizes is the directory-size sweep: a small directory and the
// 1000-entry directory the readdir paging contract is sized for.
var metaDirSizes = []int{100, 1000}

// metaFileBytes is the size of each created file — small enough that
// the data path never dominates a metadata measurement.
const metaFileBytes = 512

// metaReaddirBudget is the per-READDIR reply budget in bytes (the
// client pages a large directory through multiple replies).
const metaReaddirBudget = 8192

// metaRates is one cell's measurements, all in operations per second
// (readdir rates count entries scanned per second).
type metaRates struct {
	create, stat, rename     float64
	readdirCold, readdirWarm float64
}

// metaCell measures the metadata path end to end on one live server:
// create entries files in a fresh directory, GETATTR each, RENAME
// each, then page through the directory twice with READDIR — for the
// zone backend the first scan runs against dropped caches (the
// directory's entry blocks pay the simulated disk) and the second runs
// warm; the in-memory backend has no disk to be cold on, so both scans
// measure the same path.
func metaCell(backendKind string, entries, run int, p Params) (metaRates, error) {
	var r metaRates
	var backend vfs.Backend
	var zfs *zonefs.FS
	switch backendKind {
	case "mem":
		backend = memfs.NewFS()
	case "zone":
		zfs = zonefs.New(zonefs.Config{
			Placement: zonefs.Outer,
			CacheMB:   64,
			Seed:      p.Seed + int64(run),
		})
		backend = zfs
	default:
		return r, fmt.Errorf("metadata-path: unknown backend %q", backendKind)
	}
	svc := nfsd.New(backend, nfsd.Config{})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		return r, err
	}
	defer srv.Close()
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		return r, err
	}
	defer c.Close()

	dir, err := c.Mkdir(vfs.RootFH, "d")
	if err != nil {
		return r, err
	}
	names := make([]string, entries)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}

	fhs := make([]nfsproto.FH, entries)
	start := time.Now()
	for i, name := range names {
		if fhs[i], err = c.Create(dir, name, metaFileBytes); err != nil {
			return r, fmt.Errorf("create %s: %w", name, err)
		}
	}
	r.create = float64(entries) / time.Since(start).Seconds()

	start = time.Now()
	for _, fh := range fhs {
		if _, err := c.Getattr(fh); err != nil {
			return r, err
		}
	}
	r.stat = float64(entries) / time.Since(start).Seconds()

	start = time.Now()
	for _, name := range names {
		if err := c.Rename(dir, name, dir, name+"r"); err != nil {
			return r, fmt.Errorf("rename %s: %w", name, err)
		}
	}
	r.rename = float64(entries) / time.Since(start).Seconds()

	scan := func() (float64, error) {
		start := time.Now()
		got, err := c.ReaddirAll(dir, metaReaddirBudget)
		if err != nil {
			return 0, err
		}
		if len(got) != entries {
			return 0, fmt.Errorf("readdir scanned %d entries, want %d", len(got), entries)
		}
		return float64(entries) / time.Since(start).Seconds(), nil
	}
	// Cold scan: for the zone backend the directory's entry blocks were
	// installed by the creates/renames, so they must be explicitly
	// evicted for the scan to pay the disk.
	if zfs != nil {
		zfs.DropCaches()
	}
	if r.readdirCold, err = scan(); err != nil {
		return r, err
	}
	if r.readdirWarm, err = scan(); err != nil {
		return r, err
	}
	return r, nil
}

// MetadataPath is the metadata-path experiment: create/stat/rename
// throughput and READDIR paging rate over live TCP, swept over
// directory size, on the in-memory backend and the ZCAV disk stack.
//
// The shape under test: namespace operations and warm directory scans
// run at memory speed on both backends — the disk model only charges
// for block fetches, and the creates themselves install the
// directory's entry blocks as resident pages — but a cold READDIR of a
// large directory on the zone backend pays a real (simulated) disk
// fetch for every entry block, so the cold/warm gap opens with
// directory size. A benchmark that measures directory scans without
// controlling cache warmth reports whichever number it happened to
// measure — the paper's cache-warmth trap, on the metadata path.
func MetadataPath(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "metadata-path", Title: "Metadata path: create/stat/rename/readdir over live TCP",
		XLabel: "dirsize", YLabel: "ops/s (readdir: entries/s)",
		X: metaDirSizes,
	}
	entriesFor := func(size int) int {
		n := size / p.Scale
		if n < 20 {
			n = 20
		}
		return n
	}
	// One discarded warmup cell: the first live measurement in a
	// process pays cold TCP buffers and allocator growth (see zcav.go).
	if _, err := metaCell("mem", entriesFor(metaDirSizes[0]), 0, p); err != nil {
		return nil, fmt.Errorf("metadata-path warmup: %w", err)
	}
	type series struct {
		label string
		pick  func(metaRates) float64
	}
	byBackend := map[string][]series{
		"mem": {
			{"mem/create", func(m metaRates) float64 { return m.create }},
			{"mem/stat", func(m metaRates) float64 { return m.stat }},
			{"mem/rename", func(m metaRates) float64 { return m.rename }},
			{"mem/readdir", func(m metaRates) float64 { return m.readdirWarm }},
		},
		"zone": {
			{"zone/create", func(m metaRates) float64 { return m.create }},
			{"zone/stat", func(m metaRates) float64 { return m.stat }},
			{"zone/rename", func(m metaRates) float64 { return m.rename }},
			{"zone/readdir-cold", func(m metaRates) float64 { return m.readdirCold }},
			{"zone/readdir-warm", func(m metaRates) float64 { return m.readdirWarm }},
		},
	}
	backends := []string{"mem", "zone"}
	samples := make(map[string][][]float64)
	for _, b := range backends {
		for _, s := range byBackend[b] {
			samples[s.label] = make([][]float64, len(metaDirSizes))
		}
	}
	// Runs interleave the backends (mem and zone measured back to back
	// within each run) so machine drift lands on both series equally.
	for xi, size := range metaDirSizes {
		for run := 0; run < p.Runs; run++ {
			for _, b := range backends {
				m, err := metaCell(b, entriesFor(size), run, p)
				if err != nil {
					return nil, fmt.Errorf("metadata-path %s dirsize=%d: %w", b, size, err)
				}
				for _, s := range byBackend[b] {
					samples[s.label][xi] = append(samples[s.label][xi], s.pick(m))
				}
			}
		}
	}
	for _, b := range backends {
		for _, s := range byBackend[b] {
			out := Series{Label: s.label}
			for xi := range metaDirSizes {
				out.Samples = append(out.Samples, stats.Summarize(samples[s.label][xi]))
			}
			r.Series = append(r.Series, out)
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("each cell: fresh live server over TCP loopback; files are %d B; readdir pages %d-byte replies", metaFileBytes, metaReaddirBudget),
		"zone/readdir-cold runs after DropCaches: every directory entry block pays the simulated disk",
		"creates/renames install directory blocks as resident pages, so only the cold scan touches the disk model")
	return r, nil
}
