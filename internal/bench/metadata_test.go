package bench

import (
	"errors"
	"fmt"
	"testing"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// TestMetadataPathSmoke runs the experiment end to end at tiny scale
// and checks every series carries positive rates and the result shape
// is complete.
func TestMetadataPathSmoke(t *testing.T) {
	r, err := MetadataPath(Params{Runs: 1, Scale: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 9 {
		t.Fatalf("series = %d, want 9 (4 mem + 5 zone)", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Samples) != len(r.X) {
			t.Fatalf("%s: %d samples for %d X values", s.Label, len(s.Samples), len(r.X))
		}
		for i, sm := range s.Samples {
			if !(sm.Mean > 0) {
				t.Errorf("%s[x=%d]: mean %v, want > 0", s.Label, r.X[i], sm.Mean)
			}
		}
	}
	for _, label := range []string{"mem/create", "mem/readdir", "zone/readdir-cold", "zone/readdir-warm"} {
		if _, ok := r.SeriesByLabel(label); !ok {
			t.Errorf("missing series %q", label)
		}
	}
}

// TestLiveReaddirPagingMidMutation is the acceptance property over
// real TCP: a client pages a 1000-entry directory in small replies
// while a second client removes an entry mid-scan. The resumed page
// must draw NFS3ERR_BAD_COOKIE (the verifier changed), and the
// restart-from-zero recovery in ReaddirAll must then deliver a
// complete, duplicate-free scan of the surviving entries.
func TestLiveReaddirPagingMidMutation(t *testing.T) {
	const entries = 1000
	fs := memfs.NewFS()
	svc := nfsd.New(fs, nfsd.Config{})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scanner, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer scanner.Close()
	mutator, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mutator.Close()

	dir, err := scanner.Mkdir(memfs.RootFH, "big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		if _, err := mutator.Create(dir, fmt.Sprintf("e%04d", i), 16); err != nil {
			t.Fatal(err)
		}
	}

	// Page a few small replies in, then mutate: the remove bumps the
	// directory's cookie verifier, so resuming with the old verifier
	// must be rejected rather than silently skipping or repeating
	// entries around the removed one.
	page, err := scanner.Readdir(dir, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) == 0 || page.EOF {
		t.Fatalf("first page: %d entries eof=%v, want a partial page", len(page.Entries), page.EOF)
	}
	last := page.Entries[len(page.Entries)-1]
	if err := mutator.Remove(dir, "e0900"); err != nil {
		t.Fatal(err)
	}
	if _, err := scanner.Readdir(dir, last.Cookie, page.Cookieverf, 512); !errors.Is(err, vfs.ErrBadCookie) {
		t.Fatalf("resume after remove: err=%v, want ErrBadCookie", err)
	}

	// ReaddirAll hides the restart: one call, a full consistent scan.
	got, err := scanner.ReaddirAll(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != entries-1 {
		t.Fatalf("scanned %d entries, want %d", len(got), entries-1)
	}
	seen := make(map[string]bool, len(got))
	for _, e := range got {
		if seen[e.Name] {
			t.Fatalf("duplicate entry %q in restarted scan", e.Name)
		}
		seen[e.Name] = true
	}
	if seen["e0900"] {
		t.Fatal("removed entry still listed")
	}
	if !seen["e0000"] || !seen["e0999"] {
		t.Fatal("scan missing boundary entries")
	}
}

// TestLiveReaddirCreateDoesNotInvalidate pins the other half of the
// verifier contract over the wire: creates never invalidate an
// in-flight scan (only unlinks do), and the resumed scan picks up
// exactly the entries past the cookie.
func TestLiveReaddirCreateDoesNotInvalidate(t *testing.T) {
	fs := memfs.NewFS()
	svc := nfsd.New(fs, nfsd.Config{})
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

	dir, err := c.Mkdir(memfs.RootFH, "d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Create(dir, fmt.Sprintf("f%02d", i), 8); err != nil {
			t.Fatal(err)
		}
	}
	page, err := c.Readdir(dir, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if page.EOF {
		t.Fatal("want a partial first page")
	}
	if _, err := c.Create(dir, "late-arrival", 8); err != nil {
		t.Fatal(err)
	}
	last := page.Entries[len(page.Entries)-1].Cookie
	total := len(page.Entries)
	sawLate := false
	verf := page.Cookieverf
	for cookie := last; ; {
		next, err := c.Readdir(dir, cookie, verf, 512)
		if err != nil {
			t.Fatalf("resume after create: %v", err)
		}
		for _, e := range next.Entries {
			total++
			cookie = e.Cookie
			if e.Name == "late-arrival" {
				sawLate = true
			}
		}
		verf = next.Cookieverf
		if next.EOF {
			break
		}
	}
	if total != 41 || !sawLate {
		t.Fatalf("resumed scan saw %d entries (late=%v), want 41 with the new entry", total, sawLate)
	}
}
