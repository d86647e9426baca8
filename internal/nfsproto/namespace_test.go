package nfsproto

import (
	"testing"
	"testing/quick"
)

// TestSetattrRoundTrip covers both arms of the size-only SETATTR args
// (set_it true and false) and both result arms.
func TestSetattrRoundTrip(t *testing.T) {
	a := &SetattrArgs{FH: 9, Size: 1 << 33}
	got, err := UnmarshalSetattrArgs(a.Marshal())
	if err != nil || *got != *a {
		t.Fatalf("args round trip: %+v err=%v", got, err)
	}
	keep := &SetattrArgs{FH: 9, KeepSize: true}
	got, err = UnmarshalSetattrArgs(keep.Marshal())
	if err != nil || *got != *keep {
		t.Fatalf("set_it=false round trip: %+v err=%v", got, err)
	}
	if n := len(keep.Marshal()); n != keep.WireSize() || n != a.WireSize()-8 {
		t.Fatalf("set_it=false encodes %d bytes (WireSize %d), want no size field", n, keep.WireSize())
	}
	// Bytes after a set_it=false arm are not a size: they must not
	// turn a "change nothing" call into a truncation.
	trailing := append(keep.Marshal(), 0, 0, 0, 0, 0, 0, 0x10, 0)
	got, err = UnmarshalSetattrArgs(trailing)
	if err != nil || !got.KeepSize || got.Size != 0 {
		t.Fatalf("set_it=false with trailing bytes: %+v err=%v", got, err)
	}
	res := &SetattrRes{Status: OK, Attrs: sampleAttrs()}
	gr, err := UnmarshalSetattrRes(res.Marshal())
	if err != nil || gr.Status != OK || gr.Attrs == nil || gr.Attrs.Size != res.Attrs.Size {
		t.Fatalf("res round trip: %+v err=%v", gr, err)
	}
	gr, err = UnmarshalSetattrRes((&SetattrRes{Status: ErrIsDir}).Marshal())
	if err != nil || gr.Status != ErrIsDir || gr.Attrs != nil {
		t.Fatalf("error res round trip: %+v err=%v", gr, err)
	}
}

// TestMkdirRoundTrip covers MKDIR args and the OK-gated result body.
func TestMkdirRoundTrip(t *testing.T) {
	a := &MkdirArgs{Dir: 1, Name: "sub"}
	got, err := UnmarshalMkdirArgs(a.Marshal())
	if err != nil || *got != *a {
		t.Fatalf("args round trip: %+v err=%v", got, err)
	}
	res := &MkdirRes{Status: OK, FH: 77, Attrs: sampleAttrs()}
	gr, err := UnmarshalMkdirRes(res.Marshal())
	if err != nil || gr.FH != 77 || gr.Attrs == nil {
		t.Fatalf("res round trip: %+v err=%v", gr, err)
	}
	gr, err = UnmarshalMkdirRes((&MkdirRes{Status: ErrExist}).Marshal())
	if err != nil || gr.Status != ErrExist || gr.FH != 0 {
		t.Fatalf("error res round trip: %+v err=%v", gr, err)
	}
}

// TestRemoveRenameRoundTrip covers the two name-mutating procedures.
func TestRemoveRenameRoundTrip(t *testing.T) {
	ra := &RemoveArgs{Dir: 1, Name: "victim"}
	gotR, err := UnmarshalRemoveArgs(ra.Marshal())
	if err != nil || *gotR != *ra {
		t.Fatalf("RemoveArgs round trip: %+v err=%v", gotR, err)
	}
	rr, err := UnmarshalRemoveRes((&RemoveRes{Status: ErrNotEmpty}).Marshal())
	if err != nil || rr.Status != ErrNotEmpty {
		t.Fatalf("RemoveRes round trip: %+v err=%v", rr, err)
	}

	na := &RenameArgs{FromDir: 1, FromName: "a", ToDir: 9, ToName: "longer-name"}
	gotN, err := UnmarshalRenameArgs(na.Marshal())
	if err != nil || *gotN != *na {
		t.Fatalf("RenameArgs round trip: %+v err=%v", gotN, err)
	}
	nr := &RenameRes{Status: OK, FromAttrs: sampleAttrs()}
	gotNR, err := UnmarshalRenameRes(nr.Marshal())
	if err != nil || gotNR.FromAttrs == nil || gotNR.ToAttrs != nil {
		t.Fatalf("RenameRes one-sided round trip: %+v err=%v", gotNR, err)
	}
}

// TestReaddirRoundTrip covers the entry-list reply: paging fields,
// multiple entries, the empty page and the error arm.
func TestReaddirRoundTrip(t *testing.T) {
	a := &ReaddirArgs{Dir: 3, Cookie: 41, Cookieverf: 6, Count: 4096}
	got, err := UnmarshalReaddirArgs(a.Marshal())
	if err != nil || *got != *a {
		t.Fatalf("args round trip: %+v err=%v", got, err)
	}
	res := &ReaddirRes{Status: OK, Attrs: sampleAttrs(), Cookieverf: 6, EOF: true,
		Entries: []DirEntry{
			{FileID: 4, Name: "a", Cookie: 1},
			{FileID: 5, Name: "bb", Cookie: 2},
			{FileID: 6, Name: "cc" + string(make([]byte, 61)), Cookie: 9},
		}}
	gr, err := UnmarshalReaddirRes(res.Marshal())
	if err != nil || gr.Cookieverf != 6 || !gr.EOF || len(gr.Entries) != 3 {
		t.Fatalf("res round trip: %+v err=%v", gr, err)
	}
	for i := range res.Entries {
		if gr.Entries[i] != res.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, gr.Entries[i], res.Entries[i])
		}
	}
	gr, err = UnmarshalReaddirRes((&ReaddirRes{Status: OK, Cookieverf: 1}).Marshal())
	if err != nil || len(gr.Entries) != 0 || gr.EOF {
		t.Fatalf("empty page round trip: %+v err=%v", gr, err)
	}
	gr, err = UnmarshalReaddirRes((&ReaddirRes{Status: ErrBadCookie}).Marshal())
	if err != nil || gr.Status != ErrBadCookie {
		t.Fatalf("error res round trip: %+v err=%v", gr, err)
	}
}

// TestReaddirplusRoundTrip covers entryplus3 with and without the
// optional per-entry handle and attributes.
func TestReaddirplusRoundTrip(t *testing.T) {
	a := &ReaddirplusArgs{Dir: 3, Cookie: 1, Cookieverf: 2, DirCount: 512, MaxCount: 8192}
	got, err := UnmarshalReaddirplusArgs(a.Marshal())
	if err != nil || *got != *a {
		t.Fatalf("args round trip: %+v err=%v", got, err)
	}
	res := &ReaddirplusRes{Status: OK, Cookieverf: 2,
		Entries: []DirEntryPlus{
			{FileID: 4, Name: "full", Cookie: 1, Attrs: sampleAttrs(), FH: 4},
			{FileID: 5, Name: "bare", Cookie: 2},
		}}
	gr, err := UnmarshalReaddirplusRes(res.Marshal())
	if err != nil || len(gr.Entries) != 2 {
		t.Fatalf("res round trip: %+v err=%v", gr, err)
	}
	if gr.Entries[0].FH != 4 || gr.Entries[0].Attrs == nil {
		t.Fatalf("full entry lost fields: %+v", gr.Entries[0])
	}
	if gr.Entries[1].FH != 0 || gr.Entries[1].Attrs != nil {
		t.Fatalf("bare entry grew fields: %+v", gr.Entries[1])
	}
}

// TestNamespaceWireSizeProperty extends the WireSize==len(Marshal)
// property to every namespace shape under arbitrary field values.
func TestNamespaceWireSizeProperty(t *testing.T) {
	f := func(fh uint64, cookie uint64, n uint16, name string, ok bool, withAttrs bool) bool {
		if len(name) > MaxName {
			return true
		}
		status := uint32(OK)
		if !ok {
			status = ErrNotEmpty
		}
		var attrs *Fattr
		if withAttrs {
			attrs = sampleAttrs()
		}
		entries := []DirEntry{{FileID: fh, Name: name, Cookie: cookie}}
		entriesPlus := []DirEntryPlus{{FileID: fh, Name: name, Cookie: cookie, Attrs: attrs, FH: FH(fh)}}
		msgs := []interface {
			Marshal() []byte
			WireSize() int
		}{
			&SetattrArgs{FH: FH(fh), Size: cookie},
			&SetattrRes{Status: status, Attrs: attrs},
			&MkdirArgs{Dir: FH(fh), Name: name},
			&MkdirRes{Status: status, FH: FH(fh), Attrs: attrs},
			&RemoveArgs{Dir: FH(fh), Name: name},
			&RemoveRes{Status: status, Attrs: attrs},
			&RenameArgs{FromDir: FH(fh), FromName: name, ToDir: FH(cookie), ToName: name},
			&RenameRes{Status: status, FromAttrs: attrs, ToAttrs: attrs},
			&ReaddirArgs{Dir: FH(fh), Cookie: cookie, Cookieverf: cookie ^ 1, Count: uint32(n)},
			&ReaddirRes{Status: status, Attrs: attrs, Cookieverf: cookie, Entries: entries, EOF: ok},
			&ReaddirplusArgs{Dir: FH(fh), Cookie: cookie, DirCount: uint32(n), MaxCount: uint32(n)},
			&ReaddirplusRes{Status: status, Attrs: attrs, Cookieverf: cookie, Entries: entriesPlus},
		}
		for _, m := range msgs {
			if len(m.Marshal()) != m.WireSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
