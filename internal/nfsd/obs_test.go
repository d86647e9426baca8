package nfsd_test

import (
	"bytes"
	"net/netip"
	"testing"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
)

// readAllocsPerOp measures steady-state allocations per served 8 KB
// READ through the InfoHandler, with the span lifecycle the RPC layer
// would drive (acquire → handler → reply mark → finish). reg == nil is
// the metrics-off baseline: the span table is nil, every span nil.
func readAllocsPerOp(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	fs := memfs.NewFS()
	payload := bytes.Repeat([]byte{0x7e}, 8<<10)
	if _, err := fs.Create(vfs.RootFH, "f", payload); err != nil {
		t.Fatal(err)
	}
	svc := nfsd.New(fs, nfsd.Config{Obs: reg})
	defer svc.Close()
	ih := svc.InfoHandler()
	table := svc.SpanTable()
	fh, _, err := fs.Lookup(vfs.RootFH, "f")
	if err != nil {
		t.Fatal(err)
	}
	body := (&nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 8 << 10}).Marshal()
	reply := make([]byte, 0, 64*1024)
	client := netip.MustParseAddrPort("127.0.0.1:1053")

	var stat uint32
	op := func() {
		sp := table.Acquire()
		info := rpcnet.CallInfo{Client: client, Span: sp}
		_, stat = ih(info, nfsproto.ProcRead, body, reply)
		sp.Mark(obs.StageReply)
		table.Finish(sp)
	}
	// Warm the span pool and heuristic table out of first-use growth.
	for i := 0; i < 100; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(500, op)
	if stat != sunrpc.AcceptSuccess {
		t.Fatalf("READ stat = %d", stat)
	}
	return allocs
}

// TestReadObsZeroExtraAllocs is the hot-path cost bound from the issue:
// the live 8 KB READ path with metrics enabled (span acquire, stage
// marks, per-proc histograms, finish) must allocate exactly as much as
// with metrics off — zero additional allocs/op.
func TestReadObsZeroExtraAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	off := readAllocsPerOp(t, nil)
	on := readAllocsPerOp(t, obs.NewRegistry())
	if on > off {
		t.Fatalf("metrics-on READ allocates %.2f/op vs %.2f/op off — observability leaked onto the hot path", on, off)
	}
}

// TestLiveSpanStageSums serves real READs over TCP with spans on and
// checks the recorded decomposition: every served call recorded, stage
// sums adding up (within tolerance) to the end-to-end total — the
// additive-attribution property the carve arithmetic guarantees.
func TestLiveSpanStageSums(t *testing.T) {
	reg := obs.NewRegistry()
	fs := memfs.NewFS()
	payload := bytes.Repeat([]byte{0x3c}, 256<<10)
	if _, err := fs.Create(vfs.RootFH, "f", payload); err != nil {
		t.Fatal(err)
	}
	svc := nfsd.New(fs, nfsd.Config{Obs: reg})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc,
		rpcnet.ServerOptions{Spans: svc.SpanTable()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	fh, _, err := c.Lookup(vfs.RootFH, "f")
	if err != nil {
		t.Fatal(err)
	}
	const reads = 64
	for i := 0; i < reads; i++ {
		off := uint64(i%32) * (8 << 10)
		if _, _, err := c.Read(fh, off, 8<<10); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close() // drains in-flight spans

	ps, ok := svc.SpanTable().ProcSummary("READ")
	if !ok {
		t.Fatal("no READ spans recorded")
	}
	if ps.Count != reads {
		t.Fatalf("recorded %d READ spans, want %d", ps.Count, reads)
	}
	for _, stage := range []string{"exec", "backend", "reply"} {
		hs, ok := ps.Stages[stage]
		if !ok || hs.Count != reads {
			t.Fatalf("stage %q: recorded %d of %d reads (%+v)", stage, hs.Count, reads, ps.Stages)
		}
	}
	var stageSum float64
	for _, hs := range ps.Stages {
		stageSum += hs.SumMS
	}
	diff := stageSum - ps.Total.SumMS
	if diff < 0 {
		diff = -diff
	}
	tol := 0.05 * ps.Total.SumMS
	if tol < 0.2 {
		tol = 0.2 // clock-resolution slack for very fast runs
	}
	if diff > tol {
		t.Fatalf("stage sum %.3fms vs total %.3fms (diff %.3fms > tol %.3fms) — stages must decompose the end-to-end latency",
			stageSum, ps.Total.SumMS, diff, tol)
	}

	// The registry views carry the same service: executed counter per
	// proc and the span table itself.
	snap := reg.Dump()
	if got := snap.Counters[`nfsd_executed_total{proc="READ"}`]; got != reads+0 {
		// +0: Lookup is a separate proc; READ count must match exactly.
		t.Fatalf("nfsd_executed_total READ = %d, want %d", got, reads)
	}
	if snap.Spans["nfsd_op"].Procs["READ"].Count != reads {
		t.Fatalf("registry span snapshot disagrees: %+v", snap.Spans["nfsd_op"].Procs["READ"])
	}
}
