package nfsd_test

import (
	"bytes"
	"testing"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
)

// startLive serves an in-memory backend over real loopback sockets.
func startLive(t *testing.T) (*memfs.FS, *nfsd.Service, string) {
	t.Helper()
	fs := memfs.NewFS()
	fs.Create(vfs.RootFH, "hello", []byte("hello, world"))
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return fs, svc, srv.Addr()
}

// TestLiveAccess: clients probe ACCESS before first I/O; the dispatch
// layer must answer for the root and for files instead of
// PROC_UNAVAIL.
func TestLiveAccess(t *testing.T) {
	_, svc, addr := startLive(t)
	for _, network := range []string{"udp", "tcp"} {
		c, err := memfs.DialClient(network, addr)
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		defer c.Close()

		mask := uint32(nfsproto.AccessRead | nfsproto.AccessLookup |
			nfsproto.AccessModify | nfsproto.AccessDelete)
		granted, err := c.Access(vfs.RootFH, mask)
		if err != nil {
			t.Fatalf("%s root access: %v", network, err)
		}
		if granted&nfsproto.AccessLookup == 0 || granted&nfsproto.AccessDelete == 0 {
			t.Fatalf("%s root granted %#x, want lookup and delete (REMOVE is served)", network, granted)
		}

		fh, _, err := c.Lookup(vfs.RootFH, "hello")
		if err != nil {
			t.Fatal(err)
		}
		granted, err = c.Access(fh, mask)
		if err != nil {
			t.Fatalf("%s file access: %v", network, err)
		}
		if granted&nfsproto.AccessRead == 0 || granted&nfsproto.AccessModify == 0 {
			t.Fatalf("%s file granted %#x, want read|modify", network, granted)
		}
		if _, err := c.Access(fh+12345, mask); err == nil {
			t.Fatalf("%s: ACCESS on a stale handle succeeded", network)
		}
	}
	// 3 probes per transport; the stale one is an NFS-level error but
	// still a served RPC.
	counts := svc.ProcCounts()
	if counts[nfsproto.ProcAccess] != 6 {
		t.Fatalf("ACCESS proc count = %d, want 6", counts[nfsproto.ProcAccess])
	}
}

// TestLiveFsstat: FSSTAT must report capacity and shrink free space as
// files appear.
func TestLiveFsstat(t *testing.T) {
	fs, svc, addr := startLive(t)
	c, err := memfs.DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	total, free, err := c.Fsstat(vfs.RootFH)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || free == 0 || free > total {
		t.Fatalf("fsstat = (%d, %d)", total, free)
	}
	fs.Create(vfs.RootFH, "big", make([]byte, 1<<20))
	_, free2, err := c.Fsstat(vfs.RootFH)
	if err != nil {
		t.Fatal(err)
	}
	if free2 >= free {
		t.Fatalf("free space did not shrink: %d -> %d", free, free2)
	}
	if _, _, err := c.Fsstat(nfsproto.FH(9999)); err == nil {
		t.Fatal("FSSTAT on a stale handle succeeded")
	}
	if got := svc.ProcCounts()[nfsproto.ProcFsstat]; got != 3 {
		t.Fatalf("FSSTAT proc count = %d, want 3", got)
	}
}

// TestLiveCreateWriteReadBack exercises the CREATE procedure the
// backend interface carries: create over the wire, write, read back.
func TestLiveCreateWriteReadBack(t *testing.T) {
	_, _, addr := startLive(t)
	c, err := memfs.DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, err := c.Create(vfs.RootFH, "fresh", 16)
	if err != nil {
		t.Fatal(err)
	}
	data, eof, err := c.Read(fh, 0, 64)
	if err != nil || !eof || !bytes.Equal(data, make([]byte, 16)) {
		t.Fatalf("fresh file read = %v eof=%v err=%v, want 16 zeros", data, eof, err)
	}
	if err := c.Write(fh, 4, []byte("mark")); err != nil {
		t.Fatal(err)
	}
	data, _, err = c.Read(fh, 0, 64)
	want := []byte{0, 0, 0, 0, 'm', 'a', 'r', 'k', 0, 0, 0, 0, 0, 0, 0, 0}
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("read back %v err=%v", data, err)
	}
	// Absurd sizes must be refused, not allocated.
	if _, err := c.Create(vfs.RootFH, "bomb", vfs.MaxCreateSize+1); err == nil {
		t.Fatal("oversized CREATE succeeded")
	}
}

// TestCreateReplaceDoesNotPoisonGather: replacing a file that still
// has dirty gathered extents must not leave the engine flushing a
// stale handle — which would latch a permanent asynchronous error and
// fail every later COMMIT with ErrIO.
func TestCreateReplaceDoesNotPoisonGather(t *testing.T) {
	fs := memfs.NewFS()
	fs.Create(vfs.RootFH, "victim", make([]byte, 8192))
	fs.Create(vfs.RootFH, "other", make([]byte, 8192))
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: 50 * time.Millisecond}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Lookup(vfs.RootFH, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteUnstable(fh, 0, []byte("doomed dirty bytes")); err != nil {
		t.Fatal(err)
	}
	// Replace the file while its write is still inside the gather
	// window, then wait for the window to expire so the background
	// flusher runs against the replaced handle.
	if _, err := c.Create(vfs.RootFH, "victim", 16); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	otherFH, _, err := c.Lookup(vfs.RootFH, "other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteUnstable(otherFH, 0, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(otherFH, 0, 0); err != nil {
		t.Fatalf("COMMIT after replacing a dirty file: %v", err)
	}
}

// TestRemoveRenameDoesNotPoisonGather: REMOVE and RENAME-over of
// files that still hold dirty gathered extents must Forget them from
// the engine. Otherwise the background flusher's deadline queue runs
// against a dead handle, latches a permanent asynchronous error, and
// every later COMMIT on unrelated files fails with ErrIO — and the
// removed file's extents leak in the dirty accounting forever.
func TestRemoveRenameDoesNotPoisonGather(t *testing.T) {
	fs := memfs.NewFS()
	fs.Create(vfs.RootFH, "removed", make([]byte, 8192))
	fs.Create(vfs.RootFH, "renamed-over", make([]byte, 8192))
	fs.Create(vfs.RootFH, "renamed-away", make([]byte, 8192))
	fs.Create(vfs.RootFH, "other", make([]byte, 8192))
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: 50 * time.Millisecond}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Dirty three victims inside the gather window, then unlink each a
	// different way: plain REMOVE, RENAME onto it (replacement), and
	// RENAME it away over another dirty file.
	for _, name := range []string{"removed", "renamed-over", "renamed-away"} {
		fh, _, err := c.Lookup(vfs.RootFH, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteUnstable(fh, 0, []byte("doomed dirty bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove(vfs.RootFH, "removed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(vfs.RootFH, "renamed-away", vfs.RootFH, "renamed-over"); err != nil {
		t.Fatal(err)
	}
	// "renamed-away" (now living at "renamed-over") is still a live
	// file with dirty bytes — only the two unlinked inodes must be
	// forgotten. Wait out the window so the flusher drains.
	time.Sleep(150 * time.Millisecond)

	otherFH, _, err := c.Lookup(vfs.RootFH, "other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteUnstable(otherFH, 0, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(otherFH, 0, 0); err != nil {
		t.Fatalf("COMMIT after removing/renaming dirty files: %v", err)
	}
	if _, err := c.Commit(otherFH, 0, 0); err != nil {
		t.Fatalf("second COMMIT (no latched async error): %v", err)
	}
	if st := svc.WriteStats(); st.DirtyBytes != 0 {
		t.Fatalf("dirty = %d after flush, want 0 (forgotten extents must not leak)", st.DirtyBytes)
	}
}

// TestDispatchUnknownProcStillUnavail pins the dispatch boundary:
// procedures outside the served subset keep answering PROC_UNAVAIL.
func TestDispatchUnknownProcStillUnavail(t *testing.T) {
	fs := memfs.NewFS()
	svc := nfsd.New(fs, nfsd.Config{})
	defer svc.Close()
	h := svc.InfoHandler()
	for _, proc := range []uint32{5 /* READLINK */, 10 /* SYMLINK */, 13 /* RMDIR */, 99} {
		if _, stat := h(rpcnet.CallInfo{}, proc, nil, nil); stat != sunrpc.AcceptProcUnavail {
			t.Fatalf("proc %d: stat %d, want PROC_UNAVAIL", proc, stat)
		}
	}
}

// TestDispatchSetattrKeepSize pins SETATTR's set_size union: a call
// with set_it=false is legal, changes nothing and answers with the
// post-op attributes — even when bytes trail the discriminant, which
// must not be read as a size. A set_it=true call still truncates.
func TestDispatchSetattrKeepSize(t *testing.T) {
	fs := memfs.NewFS()
	fh, _ := fs.Create(vfs.RootFH, "f", []byte("0123456789"))
	svc := nfsd.New(fs, nfsd.Config{})
	defer svc.Close()
	h := svc.InfoHandler()
	setattr := func(body []byte) *nfsproto.SetattrRes {
		t.Helper()
		out, stat := h(rpcnet.CallInfo{}, nfsproto.ProcSetattr, body, nil)
		if stat != sunrpc.AcceptSuccess {
			t.Fatalf("accept stat %d, want SUCCESS", stat)
		}
		res, err := nfsproto.UnmarshalSetattrRes(out)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	keep := (&nfsproto.SetattrArgs{FH: fh, KeepSize: true}).Marshal()
	for _, body := range [][]byte{keep, append(keep, 0, 0, 0, 0, 0, 0, 0, 3)} {
		res := setattr(body)
		if res.Status != nfsproto.OK || res.Attrs == nil || res.Attrs.Size != 10 {
			t.Fatalf("set_it=false: %+v, want OK with size 10", res)
		}
		if a, _ := fs.Getattr(fh); a.Size != 10 {
			t.Fatalf("set_it=false changed the file: size %d", a.Size)
		}
	}
	res := setattr((&nfsproto.SetattrArgs{FH: fh, Size: 4}).Marshal())
	if res.Status != nfsproto.OK || res.Attrs == nil || res.Attrs.Size != 4 {
		t.Fatalf("set_it=true: %+v, want OK with size 4", res)
	}
	if res := setattr((&nfsproto.SetattrArgs{FH: fh + 999, KeepSize: true}).Marshal()); res.Status != nfsproto.ErrStale {
		t.Fatalf("set_it=false on a stale handle: status %d, want STALE", res.Status)
	}
	if got := svc.ProcCounts()[nfsproto.ProcSetattr]; got != 4 {
		t.Fatalf("ProcCounts[SETATTR] = %d, want 4", got)
	}
}
