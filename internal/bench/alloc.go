package bench

import (
	"fmt"
	"runtime"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
)

// allocSizes are the READ/WRITE transfer sizes profiled (bytes).
var allocSizes = []int{512, 8192, 32768}

// allocOpsPerSample is how many RPCs one allocator sample averages
// over.
const allocOpsPerSample = 512

// allocMeasure runs op repeatedly and returns the mean allocator cost
// per operation — objects allocated and bytes allocated — across the
// whole process: client marshalling, both transport endpoints, and the
// server. Go's allocation counters are exact and monotonic, so the
// delta over a quiesced loop is the true per-request allocator traffic,
// which is precisely the hidden data-touching overhead the paper warns
// benchmarks not to bury.
func allocMeasure(ops int, op func() error) (allocsPerOp, bytesPerOp float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops), nil
}

// allocProfileEnv is one live loopback server + TCP client pair.
type allocProfileEnv struct {
	fs  *memfs.FS
	srv *rpcnet.Server
	c   *memfs.Client
	rc  *rpcnet.Client
	fh  nfsproto.FH
}

func newAllocProfileEnv() (*allocProfileEnv, error) {
	fs := memfs.NewFS()
	payload := make([]byte, nfsproto.MaxData)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	fs.Create(memfs.RootFH, "data", payload)
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		return nil, err
	}
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	rc, err := rpcnet.Dial("tcp", srv.Addr(), nfsproto.Program, nfsproto.Version3)
	if err != nil {
		c.Close()
		srv.Close()
		return nil, err
	}
	fh, _, err := c.Lookup(memfs.RootFH, "data")
	if err != nil {
		rc.Close()
		c.Close()
		srv.Close()
		return nil, err
	}
	return &allocProfileEnv{fs: fs, srv: srv, c: c, rc: rc, fh: fh}, nil
}

func (e *allocProfileEnv) close() {
	e.rc.Close()
	e.c.Close()
	e.srv.Close()
}

// AllocProfile measures allocator traffic per live RPC — allocs/op and
// B/op, end to end over loopback TCP — for READ and WRITE at several
// transfer sizes, with the fixed-size procedures reported in the notes.
// This is the repository's instrument against the paper's central trap:
// when per-request allocation and copying dominate, a "server
// throughput" benchmark is really measuring the harness. The READ reply
// pipeline is pooled and append-marshalled (one payload copy between
// storage and socket), so B/op should sit near the one client-side
// reply copy rather than at a multiple of the transfer size.
func AllocProfile(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "alloc-profile", Title: "Allocator traffic per live RPC (loopback TCP)",
		XLabel: "bytes", YLabel: "allocs/op and KB/op",
		X: allocSizes,
	}
	type metric struct {
		label  string
		sample func(env *allocProfileEnv, size int) (float64, float64, error)
	}
	read := func(env *allocProfileEnv, size int) (float64, float64, error) {
		return allocMeasure(allocOpsPerSample, func() error {
			_, _, err := env.c.Read(env.fh, 0, uint32(size))
			return err
		})
	}
	write := func(env *allocProfileEnv, size int) (float64, float64, error) {
		block := make([]byte, size)
		var off uint64
		return allocMeasure(allocOpsPerSample, func() error {
			// Appends, so the store's copy-on-write arm (whole-segment
			// copy on overlap) does not drown the wire-path signal.
			err := env.c.Write(env.fh, uint64(nfsproto.MaxData)+off, block)
			off += uint64(size)
			return err
		})
	}
	for _, m := range []metric{{"READ", read}, {"WRITE", write}} {
		allocsSeries := Series{Label: m.label + " allocs/op", Better: BetterLower}
		bytesSeries := Series{Label: m.label + " KB/op", Better: BetterLower}
		for _, size := range allocSizes {
			var allocsRuns, bytesRuns []float64
			for run := 0; run < p.Runs; run++ {
				env, err := newAllocProfileEnv()
				if err != nil {
					return nil, fmt.Errorf("alloc-profile: %w", err)
				}
				a, b, err := m.sample(env, size)
				env.close()
				if err != nil {
					return nil, fmt.Errorf("alloc-profile %s size=%d: %w", m.label, size, err)
				}
				allocsRuns = append(allocsRuns, a)
				bytesRuns = append(bytesRuns, b/1024)
			}
			allocsSeries.Samples = append(allocsSeries.Samples, stats.Summarize(allocsRuns))
			bytesSeries.Samples = append(bytesSeries.Samples, stats.Summarize(bytesRuns))
		}
		r.Series = append(r.Series, allocsSeries, bytesSeries)
	}

	// Fixed-size procedures, one line each in the notes.
	env, err := newAllocProfileEnv()
	if err != nil {
		return nil, fmt.Errorf("alloc-profile: %w", err)
	}
	defer env.close()
	for _, fixed := range []struct {
		name string
		op   func() error
	}{
		{"NULL", func() error {
			_, err := env.rc.Call(nfsproto.ProcNull, nil)
			return err
		}},
		{"GETATTR", func() error {
			_, err := env.rc.Call(nfsproto.ProcGetattr,
				(&nfsproto.GetattrArgs{FH: env.fh}).Marshal())
			return err
		}},
		{"LOOKUP", func() error {
			_, _, err := env.c.Lookup(memfs.RootFH, "data")
			return err
		}},
	} {
		a, b, err := allocMeasure(allocOpsPerSample, fixed.op)
		if err != nil {
			return nil, fmt.Errorf("alloc-profile %s: %w", fixed.name, err)
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("%s: %.1f allocs/op, %.0f B/op", fixed.name, a, b))
	}
	r.Notes = append(r.Notes,
		"whole-process allocator deltas (client+server share the process); READ B/op ≈ one reply-body copy",
		"WRITE uses appends; overlapping writes add a copy-on-write segment copy by design")
	return r, nil
}
