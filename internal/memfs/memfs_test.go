package memfs

import (
	"bytes"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
)

func TestFSCreateLookupRead(t *testing.T) {
	fs := NewFS()
	data := []byte("the quick brown fox")
	fs.Create(RootFH, "f", data)
	fh, attr, err := fs.Lookup(RootFH, "f")
	if err != nil || attr.Size != int64(len(data)) {
		t.Fatalf("lookup: err=%v size=%d", err, attr.Size)
	}
	got, eof, err := fs.Read(fh, 4, 5)
	if err != nil || string(got) != "quick" || eof {
		t.Fatalf("read = %q eof=%v err=%v", got, eof, err)
	}
	got, eof, _ = fs.Read(fh, 10, 100)
	if string(got) != "brown fox" || !eof {
		t.Fatalf("tail read = %q eof=%v", got, eof)
	}
	if _, eof, _ := fs.Read(fh, 1000, 10); !eof {
		t.Fatal("read past EOF not flagged")
	}
}

func TestFSWriteExtends(t *testing.T) {
	fs := NewFS()
	fh, _ := fs.Create(RootFH, "f", []byte("abc"))
	if err := fs.Write(fh, 5, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := fs.Read(fh, 0, 100)
	want := []byte{'a', 'b', 'c', 0, 0, 'x', 'y', 'z'}
	if !bytes.Equal(got, want) {
		t.Fatalf("after write: %v", got)
	}
}

func TestFSStaleHandle(t *testing.T) {
	fs := NewFS()
	if _, _, err := fs.Read(999, 0, 1); err == nil {
		t.Fatal("stale read succeeded")
	}
	if err := fs.Write(999, 0, []byte("x")); err == nil {
		t.Fatal("stale write succeeded")
	}
}

// startLive spins up a real loopback server and returns its address.
func startLive(t *testing.T) (*nfsd.Service, string) {
	t.Helper()
	fs := NewFS()
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	fs.Create(RootFH, "big", payload)
	fs.Create(RootFH, "hello", []byte("hello, world"))
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv.Addr()
}

func TestLiveServerOverUDPAndTCP(t *testing.T) {
	svc, addr := startLive(t)
	for _, network := range []string{"udp", "tcp"} {
		c, err := DialClient(network, addr)
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		fh, size, err := c.Lookup(RootFH, "hello")
		if err != nil || size != 12 {
			t.Fatalf("%s lookup: size=%d err=%v", network, size, err)
		}
		data, eof, err := c.Read(fh, 0, 64)
		if err != nil || string(data) != "hello, world" || !eof {
			t.Fatalf("%s read = %q eof=%v err=%v", network, data, eof, err)
		}
		c.Close()
	}
	if svc.Stats().Reads != 2 {
		t.Fatalf("service reads = %d", svc.Stats().Reads)
	}
}

func TestLiveSequentialReadBuildsSeqcount(t *testing.T) {
	svc, addr := startLive(t)
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(RootFH, "big")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	const chunk = 8192
	for off := uint64(0); off < uint64(size); off += chunk {
		data, _, err := c.Read(fh, off, chunk)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	}
	if len(got) != int(size) {
		t.Fatalf("read %d of %d bytes", len(got), size)
	}
	for i := 0; i < len(got); i += 1013 {
		if got[i] != byte(i*31) {
			t.Fatalf("data corruption at %d", i)
		}
	}
	// A 32-block sequential read must drive the heuristic's confidence up.
	if svc.Stats().MaxSeqCount < 16 {
		t.Fatalf("max seqcount = %d after sequential read", svc.Stats().MaxSeqCount)
	}
}

func TestLiveWriteReadBack(t *testing.T) {
	_, addr := startLive(t)
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Lookup(RootFH, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(fh, 7, []byte("gopher")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Read(fh, 0, 64)
	if err != nil || string(data) != "hello, gopher" {
		t.Fatalf("read back %q err=%v", data, err)
	}
}

func TestLiveLookupMissing(t *testing.T) {
	_, addr := startLive(t)
	c, _ := DialClient("udp", addr)
	defer c.Close()
	if _, _, err := c.Lookup(RootFH, "nope"); err == nil {
		t.Fatal("missing lookup succeeded")
	}
}

// TestLiveZeroHandleRead: a crafted READ with file handle 0 (which the
// nfsheur table panics on) must draw a stale-handle error, not crash
// the server — the server must keep serving afterwards.
func TestLiveZeroHandleRead(t *testing.T) {
	_, addr := startLive(t)
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Read(0, 0, 8); err == nil {
		t.Fatal("zero-handle read succeeded")
	}
	// The server must still be alive and serving.
	if _, size, err := c.Lookup(RootFH, "hello"); err != nil || size != 12 {
		t.Fatalf("server dead after zero-handle read: size=%d err=%v", size, err)
	}
}

func TestLiveConcurrentClients(t *testing.T) {
	_, addr := startLive(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		network := "tcp"
		if i%2 == 0 {
			network = "udp"
		}
		go func(network string) {
			c, err := DialClient(network, addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			fh, size, err := c.Lookup(RootFH, "big")
			if err != nil {
				done <- err
				return
			}
			total := 0
			for off := uint64(0); off < uint64(size); off += 8192 {
				data, _, err := c.Read(fh, off, 8192)
				if err != nil {
					done <- err
					return
				}
				total += len(data)
			}
			if total != int(size) {
				done <- errShort{total, int(size)}
				return
			}
			done <- nil
		}(network)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errShort struct{ got, want int }

func (e errShort) Error() string { return "short transfer" }

func TestServiceStrideDetectedByCursor(t *testing.T) {
	fs := NewFS()
	payload := make([]byte, 512*1024)
	fs.Create(RootFH, "s", payload)
	svc := nfsd.New(fs, nfsd.Config{Heuristic: &readahead.CursorHeuristic{}})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(RootFH, "s")
	if err != nil {
		t.Fatal(err)
	}
	// 2-stride read: 0, N/2, 1, N/2+1, ...
	half := uint64(size) / 2
	for i := uint64(0); i < half/8192; i++ {
		if _, _, err := c.Read(fh, i*8192, 8192); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Read(fh, half+i*8192, 8192); err != nil {
			t.Fatal(err)
		}
	}
	// The cursor heuristic must have built confidence despite the stride.
	if svc.Stats().MaxSeqCount < 16 {
		t.Fatalf("cursor max seqcount = %d on stride read", svc.Stats().MaxSeqCount)
	}
}

// TestCreateAtAllocatorRanges: placing a cluster-range handle must not
// drag the local allocator into the reserved range (or later local
// Creates would mint handles the cluster-wide allocator also hands
// out), while placing a low handle must still bump the counter past it
// so local Creates never collide with migrated-in files.
func TestCreateAtAllocatorRanges(t *testing.T) {
	fs := NewFS()
	if err := fs.CreateAt(RootFH, "placed", LocalFHBound+7, []byte("p")); err != nil {
		t.Fatal(err)
	}
	fh, err := fs.Create(RootFH, "local", []byte("l"))
	if err != nil {
		t.Fatal(err)
	}
	if fh >= LocalFHBound {
		t.Fatalf("local create minted fh %d inside the placed range (>= %d)", fh, LocalFHBound)
	}

	low := fh + 10
	if err := fs.CreateAt(RootFH, "migrated", low, []byte("m")); err != nil {
		t.Fatal(err)
	}
	next, err := fs.Create(RootFH, "after", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if next != low+1 {
		t.Fatalf("local allocator at %d after placing low handle %d; want %d", next, low, low+1)
	}
}
