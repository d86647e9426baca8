package nfsproto

import (
	"bytes"
	"testing"
)

// appender is the dual encode interface every nfsproto message
// supports: Marshal allocates, AppendTo extends a caller-owned buffer.
type appender interface {
	AppendTo([]byte) []byte
	Marshal() []byte
	WireSize() int
}

// appendCases covers every message type, including error-status arms,
// nil-versus-present attributes and the zero-fill payload paths.
func appendCases() []struct {
	name string
	msg  appender
} {
	attrs := &Fattr{
		Type: TypeReg, Mode: 0644, Nlink: 1, UID: 10, GID: 20,
		Size: 4096, Used: 4096, Rdev: 1, FSID: 2, FileID: 3,
		Atime: 4, Mtime: 5, Ctime: 6,
	}
	return []struct {
		name string
		msg  appender
	}{
		{"ReadArgs", &ReadArgs{FH: 7, Offset: 65536, Count: 8192}},
		{"ReadRes", &ReadRes{Status: OK, Attrs: attrs, Count: 5, EOF: true, Data: []byte("hello")}},
		{"ReadRes/no-attrs", &ReadRes{Status: OK, Count: 3, Data: []byte("abc")}},
		{"ReadRes/zero-fill", &ReadRes{Status: OK, Count: 9, DataLen: 9}},
		{"ReadRes/err", &ReadRes{Status: ErrStale}},
		{"WriteArgs", &WriteArgs{FH: 7, Offset: 8192, Count: 6, Stable: WriteFileSync, Data: []byte("payload")}},
		{"WriteArgs/zero-fill", &WriteArgs{FH: 7, Count: 11, DataLen: 11}},
		{"WriteArgs/unstable", &WriteArgs{FH: 7, Offset: 0, Count: 4, Stable: WriteUnstable, Data: []byte("asyn")}},
		{"WriteRes", &WriteRes{Status: OK, Attrs: attrs, Count: 6, Committed: WriteDataSync}},
		{"WriteRes/verifier", &WriteRes{Status: OK, Attrs: attrs, Count: 6,
			Committed: WriteUnstable, Verf: 0xdeadbeefcafef00d}},
		{"WriteRes/err", &WriteRes{Status: ErrNoSpc}},
		{"CommitArgs", &CommitArgs{FH: 7, Offset: 1 << 20, Count: 65536}},
		{"CommitArgs/whole-file", &CommitArgs{FH: 8}},
		{"CommitRes", &CommitRes{Status: OK, Attrs: attrs, Verf: 0x0123456789abcdef}},
		{"CommitRes/err", &CommitRes{Status: ErrIO}},
		{"LookupArgs", &LookupArgs{Dir: 1, Name: "file.dat"}},
		{"LookupRes", &LookupRes{Status: OK, FH: 9, Attrs: attrs}},
		{"LookupRes/err", &LookupRes{Status: ErrNoEnt}},
		{"GetattrArgs", &GetattrArgs{FH: 12}},
		{"GetattrRes", &GetattrRes{Status: OK, Attrs: *attrs}},
		{"GetattrRes/err", &GetattrRes{Status: ErrStale}},
		{"AccessArgs", &AccessArgs{FH: 3, Access: 0x1f}},
		{"AccessRes", &AccessRes{Status: OK, Attrs: attrs, Access: 0x0d}},
		{"AccessRes/err", &AccessRes{Status: ErrPerm}},
		{"CreateArgs", &CreateArgs{Dir: 1, Name: "new", Size: 1 << 20}},
		{"CreateRes", &CreateRes{Status: OK, FH: 44, Attrs: attrs}},
		{"CreateRes/err", &CreateRes{Status: ErrExist}},
		{"FsstatArgs", &FsstatArgs{FH: 1}},
		{"FsstatRes", &FsstatRes{Status: OK, Tbytes: 1 << 30, Fbytes: 1 << 29}},
		{"FsstatRes/err", &FsstatRes{Status: ErrIO}},
		{"SetattrArgs", &SetattrArgs{FH: 7, Size: 1 << 16}},
		{"SetattrArgs/truncate-to-zero", &SetattrArgs{FH: 7}},
		{"SetattrArgs/keep-size", &SetattrArgs{FH: 7, KeepSize: true}},
		{"SetattrRes", &SetattrRes{Status: OK, Attrs: attrs}},
		{"SetattrRes/no-attrs", &SetattrRes{Status: OK}},
		{"SetattrRes/err", &SetattrRes{Status: ErrIsDir}},
		{"MkdirArgs", &MkdirArgs{Dir: 1, Name: "subdir"}},
		{"MkdirRes", &MkdirRes{Status: OK, FH: 31, Attrs: attrs}},
		{"MkdirRes/err", &MkdirRes{Status: ErrExist}},
		{"RemoveArgs", &RemoveArgs{Dir: 1, Name: "victim"}},
		{"RemoveRes", &RemoveRes{Status: OK, Attrs: attrs}},
		{"RemoveRes/err", &RemoveRes{Status: ErrNotEmpty}},
		{"RenameArgs", &RenameArgs{FromDir: 1, FromName: "a", ToDir: 2, ToName: "bb"}},
		{"RenameRes", &RenameRes{Status: OK, FromAttrs: attrs, ToAttrs: attrs}},
		{"RenameRes/one-sided", &RenameRes{Status: OK, FromAttrs: attrs}},
		{"RenameRes/err", &RenameRes{Status: ErrInval}},
		{"ReaddirArgs", &ReaddirArgs{Dir: 1, Cookie: 42, Cookieverf: 7, Count: 4096}},
		{"ReaddirArgs/fresh", &ReaddirArgs{Dir: 1, Count: 8192}},
		{"ReaddirRes", &ReaddirRes{Status: OK, Attrs: attrs, Cookieverf: 7, EOF: true,
			Entries: []DirEntry{{FileID: 2, Name: "a", Cookie: 1}, {FileID: 3, Name: "bcd", Cookie: 2}}}},
		{"ReaddirRes/empty", &ReaddirRes{Status: OK, Cookieverf: 1, EOF: true}},
		{"ReaddirRes/err", &ReaddirRes{Status: ErrBadCookie}},
		{"ReaddirplusArgs", &ReaddirplusArgs{Dir: 1, Cookie: 9, Cookieverf: 3, DirCount: 1024, MaxCount: 8192}},
		{"ReaddirplusRes", &ReaddirplusRes{Status: OK, Attrs: attrs, Cookieverf: 3, EOF: false,
			Entries: []DirEntryPlus{{FileID: 2, Name: "x", Cookie: 1, Attrs: attrs, FH: 2},
				{FileID: 4, Name: "no-fh", Cookie: 2}}}},
		{"ReaddirplusRes/err", &ReaddirplusRes{Status: ErrNotDir}},
	}
}

// TestAppendToMatchesMarshal asserts the two encode forms are
// byte-identical for every message, that AppendTo really appends (a
// non-empty prefix survives untouched), and that both agree with
// WireSize.
func TestAppendToMatchesMarshal(t *testing.T) {
	prefix := []byte("prefix≠xdr")
	for _, tc := range appendCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.msg.Marshal()
			if len(want) != tc.msg.WireSize() {
				t.Fatalf("Marshal len = %d, WireSize = %d", len(want), tc.msg.WireSize())
			}
			if got := tc.msg.AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendTo(nil) = %x, Marshal = %x", got, want)
			}
			got := tc.msg.AppendTo(append([]byte(nil), prefix...))
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("AppendTo clobbered the prefix: %x", got[:len(prefix)])
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendTo after prefix = %x, Marshal = %x", got[len(prefix):], want)
			}
		})
	}
}

// TestZeroFillMatchesExplicitZeros pins the scratch-free zero-fill
// paths to the wire form of an explicit zero payload.
func TestZeroFillMatchesExplicitZeros(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 9, 8192} {
		implicit := (&ReadRes{Status: OK, Count: uint32(n), DataLen: uint32(n)}).Marshal()
		explicit := (&ReadRes{Status: OK, Count: uint32(n), Data: make([]byte, n)}).Marshal()
		if !bytes.Equal(implicit, explicit) {
			t.Fatalf("n=%d: zero-fill ReadRes differs from explicit zeros", n)
		}
		wImplicit := (&WriteArgs{FH: 1, Count: uint32(n), DataLen: uint32(n)}).Marshal()
		wExplicit := (&WriteArgs{FH: 1, Count: uint32(n), Data: make([]byte, n)}).Marshal()
		if !bytes.Equal(wImplicit, wExplicit) {
			t.Fatalf("n=%d: zero-fill WriteArgs differs from explicit zeros", n)
		}
	}
}

// TestZeroFillMarshalNoScratch asserts the DataLen path allocates no
// payload-sized scratch: a 32 KB zero-fill must cost only the output
// buffer, roughly one allocation.
func TestZeroFillMarshalNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts are unreliable under the race detector")
	}
	res := &ReadRes{Status: OK, Count: MaxData, DataLen: MaxData}
	buf := make([]byte, 0, res.WireSize())
	allocs := testing.AllocsPerRun(100, func() {
		res.AppendTo(buf)
	})
	if allocs > 0 {
		t.Errorf("zero-fill AppendTo into sized buffer allocates %v times, want 0", allocs)
	}
}

// BenchmarkReadResAppendTo measures the encode hot path: one 8 KB READ
// reply appended into a recycled buffer.
func BenchmarkReadResAppendTo(b *testing.B) {
	attrs := &Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 8192, Used: 8192, FileID: 7}
	data := make([]byte, 8192)
	res := &ReadRes{Status: OK, Attrs: attrs, Count: 8192, Data: data}
	buf := make([]byte, 0, res.WireSize())
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.AppendTo(buf)
	}
}

// BenchmarkReadResMarshal is the allocating form, for comparison.
func BenchmarkReadResMarshal(b *testing.B) {
	attrs := &Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 8192, Used: 8192, FileID: 7}
	data := make([]byte, 8192)
	res := &ReadRes{Status: OK, Attrs: attrs, Count: 8192, Data: data}
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Marshal()
	}
}
