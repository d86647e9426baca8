package memfs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
)

// TestWriteSemantics pins down Write's observable behaviour across the
// in-place-append and copy-on-write arms: overlap, extension, and
// zero-filled gaps.
func TestWriteSemantics(t *testing.T) {
	fs := NewFS()
	fh, _ := fs.Create(RootFH, "f", []byte("abcdef"))

	// Overlapping overwrite.
	if err := fs.Write(fh, 2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := fs.Read(fh, 0, 64)
	if !bytes.Equal(got, []byte("abXYef")) {
		t.Fatalf("after overwrite: %q", got)
	}

	// Append with a gap: the gap must read as zeros.
	if err := fs.Write(fh, 10, []byte("ZZ")); err != nil {
		t.Fatal(err)
	}
	got, eof, _ := fs.Read(fh, 0, 64)
	want := append([]byte("abXYef"), 0, 0, 0, 0, 'Z', 'Z')
	if !bytes.Equal(got, want) || !eof {
		t.Fatalf("after gap append: %q (eof=%v)", got, eof)
	}

	// Straddling write: overlaps the tail and extends.
	if err := fs.Write(fh, 11, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = fs.Read(fh, 0, 64)
	want = append(want[:11], 'a', 'b')
	if !bytes.Equal(got, want) {
		t.Fatalf("after straddling write: %q", got)
	}
}

// TestWriteAppendAmortized asserts extension uses capacity doubling:
// 256 sequential 1 KB appends must regrow the segment ~log2(256) times,
// not once per write. The exact-size regrow this replaces would cost at
// least one segment allocation per append (≥256 here).
func TestWriteAppendAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	block := make([]byte, 1024)
	allocs := testing.AllocsPerRun(5, func() {
		fs := NewFS()
		fh, _ := fs.Create(RootFH, "f", nil)
		for i := 0; i < 256; i++ {
			if err := fs.Write(fh, uint64(i)*1024, block); err != nil {
				panic(err)
			}
		}
	})
	if allocs > 100 {
		t.Errorf("256 appends cost %.0f allocations, want amortized (~log n, well under 100)", allocs)
	}
}

// TestWriteHugeOffsetRejected guards the wire boundary: a crafted WRITE
// whose offset overflows offset+len arithmetic (or simply demands an
// absurd file) must come back as ErrFBig, not panic the serving
// goroutine or attempt the allocation.
func TestWriteHugeOffsetRejected(t *testing.T) {
	fs := NewFS()
	fs.Create(RootFH, "f", []byte("data"))
	svc := nfsd.New(fs, nfsd.Config{})
	h := svc.InfoHandler()
	fh, _, _ := fs.Lookup(RootFH, "f")
	for _, off := range []uint64{^uint64(0), ^uint64(0) - 2, 1 << 40, vfs.MaxFileSize + 1} {
		body := (&nfsproto.WriteArgs{FH: fh, Offset: off, Count: 4, Data: []byte("boom")}).Marshal()
		out, stat := h(rpcnet.CallInfo{}, nfsproto.ProcWrite, body, nil)
		if stat != sunrpc.AcceptSuccess {
			t.Fatalf("off=%d: accept stat %d", off, stat)
		}
		res, err := nfsproto.UnmarshalWriteRes(out)
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if res.Status != nfsproto.ErrFBig {
			t.Fatalf("off=%d: status %d, want ErrFBig", off, res.Status)
		}
	}
	// The direct API must refuse too.
	if err := fs.Write(fh, ^uint64(0), []byte("x")); err == nil {
		t.Fatal("FS.Write accepted an overflowing offset")
	}
	if got, _, _ := fs.Read(fh, 0, 64); !bytes.Equal(got, []byte("data")) {
		t.Fatalf("file damaged by rejected writes: %q", got)
	}
}

// TestReadViewStableUnderWrite proves the copy-on-write invariant the
// pooled reply pipeline depends on: a slice returned by Read is never
// mutated by a later Write. Overlapping writes swap in a fresh segment
// and appends only touch indices past every view, so the view's bytes
// stay exactly as read. Run under -race: an in-place mutation would
// also be a data race between the verifying reads below and the writer
// goroutine.
func TestReadViewStableUnderWrite(t *testing.T) {
	fs := NewFS()
	const size = 8192
	fh, _ := fs.Create(RootFH, "f", bytes.Repeat([]byte{0xAA}, size))
	view, eof, err := fs.Read(fh, 0, size)
	if err != nil || !eof || len(view) != size {
		t.Fatalf("Read: len=%d eof=%v err=%v", len(view), eof, err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		block := bytes.Repeat([]byte{0xBB}, 1024)
		for i := 0; i < 300; i++ {
			// Overwrites inside the viewed range, straddling writes, and
			// extensions — none may disturb the view.
			fs.Write(fh, uint64(i*37%size), block)
			fs.Write(fh, uint64(size+i*512), block)
		}
	}()
	for i := 0; i < 300; i++ {
		for j, b := range view {
			if b != 0xAA {
				t.Errorf("view[%d] = %#x after concurrent write, want 0xAA", j, b)
				wg.Wait()
				return
			}
		}
	}
	wg.Wait()
}

// TestLiveReadsConsistentUnderWrites drives a live server with
// concurrent readers and writers over both transports. Each write
// replaces the whole region in one call, so with copy-on-write every
// READ reply must be uniform — a torn reply would mean a pooled reply
// buffer (or the view appended into it) was written after release.
// Run under -race.
func TestLiveReadsConsistentUnderWrites(t *testing.T) {
	const size = 8192
	fs := NewFS()
	fs.Create(RootFH, "f", bytes.Repeat([]byte{0x11}, size))
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, network := range []string{"udp", "tcp"} {
		writer, err := DialClient(network, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer writer.Close()
		reader, err := DialClient(network, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Close()
		fh, _, err := reader.Lookup(RootFH, "f")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(c *Client) {
			defer wg.Done()
			fill := byte(0x22)
			for i := 0; i < 100; i++ {
				if err := c.Write(fh, 0, bytes.Repeat([]byte{fill}, size)); err != nil {
					errs <- err
					return
				}
				fill ^= 0x33
			}
		}(writer)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				data, _, err := c.Read(fh, 0, size)
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j < len(data); j++ {
					if data[j] != data[0] {
						errs <- fmt.Errorf("torn READ reply: data[0]=%#x data[%d]=%#x", data[0], j, data[j])
						return
					}
				}
			}
		}(reader)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadReplySingleCopy is the allocation-counting proof of the
// zero-copy reply path: serving a 32 KB READ into a presized reply
// buffer must perform exactly one copy of the payload — the append from
// the file segment into the wire buffer. A second copy anywhere in the
// handler would surface as a payload-sized allocation; the measured
// bytes-per-op bound (a small fraction of the payload) rules that out,
// and the allocs-per-op bound keeps the path free of hidden per-request
// buffers.
func TestReadReplySingleCopy(t *testing.T) {
	fs := NewFS()
	payload := bytes.Repeat([]byte{0x5a}, nfsproto.MaxData)
	fs.Create(RootFH, "f", payload)
	svc := nfsd.New(fs, nfsd.Config{})
	h := svc.InfoHandler()
	fh, _, err := fs.Lookup(RootFH, "f")
	if err != nil {
		t.Fatal(err)
	}
	body := (&nfsproto.ReadArgs{FH: fh, Offset: 0, Count: nfsproto.MaxData}).Marshal()
	reply := make([]byte, 0, 64*1024)

	var out []byte
	var stat uint32
	allocs := testing.AllocsPerRun(200, func() {
		out, stat = h(rpcnet.CallInfo{}, nfsproto.ProcRead, body, reply)
	})
	if stat != sunrpc.AcceptSuccess {
		t.Fatalf("stat = %d", stat)
	}
	res, err := nfsproto.UnmarshalReadRes(out)
	if err != nil || !bytes.Equal(res.Data, payload) {
		t.Fatalf("reply does not carry the payload (err=%v)", err)
	}
	if raceEnabled {
		// The race detector inflates allocator counters; the content
		// check above is the meaningful part under it.
		return
	}
	if allocs > 6 {
		t.Errorf("READ handler allocates %.1f objects/op, want ≤6 (args/result structs only)", allocs)
	}

	// Byte-level bound: total allocation per op must be a small fraction
	// of the 32 KB payload, proving no payload-sized copy remains.
	const ops = 512
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		h(rpcnet.CallInfo{}, nfsproto.ProcRead, body, reply)
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	if perOp > float64(nfsproto.MaxData)/8 {
		t.Errorf("READ handler allocates %.0f B/op for a %d B payload — a hidden payload copy", perOp, nfsproto.MaxData)
	}
}
