package nfstricks

import (
	"testing"
)

func TestFacadeTestbed(t *testing.T) {
	tb, err := NewTestbed(Options{Seed: 5, Disk: IDE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FS.Create("data", 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSReaders(tb, []string{"data"})
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4<<20 || res.ThroughputMBps() <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestFacadeHeuristics(t *testing.T) {
	var s HeurState
	s.Reset()
	heuristics := []Heuristic{Default{}, SlowDown{}, Always{}, &CursorHeuristic{}}
	for _, h := range heuristics {
		s.Reset()
		got := h.Update(&s, 0, 8192)
		if got < 1 || got > SeqMax {
			t.Fatalf("%s: count %d out of range", h.Name(), got)
		}
	}
}

func TestFacadeNfsheur(t *testing.T) {
	tbl := NewNfsheurTable(ImprovedNfsheur())
	if _, found := tbl.Lookup(9); found {
		t.Fatal("fresh table found a handle")
	}
	if DefaultNfsheur().Slots >= ImprovedNfsheur().Slots {
		t.Fatal("improved table not larger than the 4.x table")
	}
}

func TestFacadeDiskModels(t *testing.T) {
	if SCSIModel().MediaRateAt(0) <= 0 || IDEModel().MediaRateAt(0) <= 0 {
		t.Fatal("disk models broken")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("registry has %d entries", len(Experiments()))
	}
	e, ok := LookupExperiment("fig1")
	if !ok || e.ID != "fig1" {
		t.Fatal("LookupExperiment failed")
	}
}

func TestFacadeLiveMode(t *testing.T) {
	fs := NewLiveFS()
	fs.Create(LiveRootFH, "f", []byte("hello live mode"))
	svc := NewLiveService(fs, LiveConfig{Heuristic: SlowDown{}})
	srv, err := ServeLive("127.0.0.1:0", svc, LiveServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialLive("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(LiveRootFH, "f")
	if err != nil || size != 15 {
		t.Fatalf("lookup: size=%d err=%v", size, err)
	}
	data, eof, err := c.Read(fh, 6, 4)
	if err != nil || string(data) != "live" || eof {
		t.Fatalf("read %q eof=%v err=%v", data, eof, err)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	if len(ReaderCounts) != 6 || ReaderCounts[5] != 32 {
		t.Fatalf("ReaderCounts = %v", ReaderCounts)
	}
	if names := FilesFor(4); len(names) != 4 {
		t.Fatalf("FilesFor(4) = %v", names)
	}
}

func TestTracerEndToEnd(t *testing.T) {
	var tr Tracer
	tb, err := NewTestbed(Options{Seed: 9, Disk: IDE,
		Server: nfsserverConfigWithTracer(&tr)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FS.Create("data", 2<<20); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNFSReaders(tb, []string{"data"}); err != nil {
		t.Fatal(err)
	}
	tb.K.Shutdown()
	a := AnalyzeTrace(tr.Records())
	if a.Reads < 200 || a.Files != 1 {
		t.Fatalf("trace analysis: %+v", a)
	}
	if a.SequentialFrac < 0.5 {
		t.Fatalf("sequential workload traced as %.0f%% sequential", 100*a.SequentialFrac)
	}
	if a.ReorderFrac < 0 || a.ReorderFrac > 0.2 {
		t.Fatalf("reorder fraction %.2f implausible for one reader", a.ReorderFrac)
	}
}
