// The NFSv3 namespace procedures: SETATTR, MKDIR, REMOVE, RENAME,
// READDIR and READDIRPLUS. Same reduced-but-real XDR treatment as the
// data-path messages in nfsproto.go: every message supports
// AppendTo/Marshal/WireSize, args carry only the fields the
// reproduction serves (SETATTR sets size only; MKDIR takes no initial
// attributes), and results reduce wcc_data to post-op attributes.
//
// READDIR's entry list is the one variable-shape reply in the protocol
// subset: entries encode as the RFC 1813 linked list (a follows-bool
// before each entry, a final false, then the EOF flag), and the
// cookie/cookieverf pair carries the paging contract — each entry's
// cookie resumes the scan just past it, and the verifier names the
// directory's cookie epoch so a server can reject cookies that a
// mutation may have invalidated (NFS3ERR_BAD_COOKIE).
package nfsproto

import "nfstricks/internal/xdr"

// SetattrArgs is a reduced SETATTR3args: the size attribute only
// (truncate or extend), which is the one attribute the flat-attribute
// backends honour. On the wire the size is sattr3's set_size union:
// a set_it discriminant, then the size only when set_it is true.
type SetattrArgs struct {
	FH FH
	// KeepSize encodes set_it=false: the call changes nothing and
	// carries no size. The zero value sets the size to Size.
	KeepSize bool
	Size     uint64
}

// AppendTo appends the encoded arguments to buf.
func (s *SetattrArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, s.FH)
	buf = xdr.AppendBool(buf, !s.KeepSize)
	if s.KeepSize {
		return buf
	}
	return xdr.AppendUint64(buf, s.Size)
}

// Marshal encodes the arguments.
func (s *SetattrArgs) Marshal() []byte {
	return s.AppendTo(make([]byte, 0, s.WireSize()))
}

// WireSize reports the exact encoded size.
func (s *SetattrArgs) WireSize() int {
	if s.KeepSize {
		return fhWireSize + 4
	}
	return fhWireSize + 4 + 8
}

// UnmarshalSetattrArgs decodes SetattrArgs. A set_it=false arm reads no
// size: bytes after it are not taken for one.
func UnmarshalSetattrArgs(b []byte) (*SetattrArgs, error) {
	d := xdr.NewDecoder(b)
	s := &SetattrArgs{FH: decodeFH(d)}
	if d.Bool() {
		s.Size = d.Uint64()
	} else {
		s.KeepSize = true
	}
	return s, d.Err()
}

// SetattrRes is a reduced SETATTR3res (wcc_data reduced to post-op
// attributes).
type SetattrRes struct {
	Status uint32
	Attrs  *Fattr
}

// AppendTo appends the encoded result to buf.
func (s *SetattrRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, s.Status)
	return appendPostOpAttr(buf, s.Attrs)
}

// Marshal encodes the result.
func (s *SetattrRes) Marshal() []byte {
	return s.AppendTo(make([]byte, 0, s.WireSize()))
}

// WireSize reports the exact encoded size.
func (s *SetattrRes) WireSize() int { return 4 + postOpAttrSize(s.Attrs) }

// UnmarshalSetattrRes decodes SetattrRes.
func UnmarshalSetattrRes(b []byte) (*SetattrRes, error) {
	d := xdr.NewDecoder(b)
	s := &SetattrRes{Status: d.Uint32(), Attrs: decodePostOpAttr(d)}
	return s, d.Err()
}

// MkdirArgs is a reduced MKDIR3args (no initial attributes).
type MkdirArgs struct {
	Dir  FH
	Name string
}

// AppendTo appends the encoded arguments to buf.
func (m *MkdirArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, m.Dir)
	return xdr.AppendString(buf, m.Name)
}

// Marshal encodes the arguments.
func (m *MkdirArgs) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, m.WireSize()))
}

// WireSize reports the exact encoded size.
func (m *MkdirArgs) WireSize() int { return fhWireSize + 4 + pad4(len(m.Name)) }

// UnmarshalMkdirArgs decodes MkdirArgs.
func UnmarshalMkdirArgs(b []byte) (*MkdirArgs, error) {
	d := xdr.NewDecoder(b)
	m := &MkdirArgs{Dir: decodeFH(d), Name: d.String(MaxName)}
	return m, d.Err()
}

// MkdirRes is a reduced MKDIR3res: the new directory's post-op handle
// and attributes on success.
type MkdirRes struct {
	Status uint32
	FH     FH
	Attrs  *Fattr
}

// AppendTo appends the encoded result to buf.
func (m *MkdirRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, m.Status)
	if m.Status == OK {
		buf = xdr.AppendBool(buf, true)
		buf = appendFH(buf, m.FH)
		buf = appendPostOpAttr(buf, m.Attrs)
	}
	return buf
}

// Marshal encodes the result.
func (m *MkdirRes) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, m.WireSize()))
}

// WireSize reports the exact encoded size.
func (m *MkdirRes) WireSize() int {
	if m.Status == OK {
		return 4 + 4 + fhWireSize + postOpAttrSize(m.Attrs)
	}
	return 4
}

// UnmarshalMkdirRes decodes MkdirRes.
func UnmarshalMkdirRes(b []byte) (*MkdirRes, error) {
	d := xdr.NewDecoder(b)
	m := &MkdirRes{Status: d.Uint32()}
	if m.Status == OK {
		d.Bool()
		m.FH = decodeFH(d)
		m.Attrs = decodePostOpAttr(d)
	}
	return m, d.Err()
}

// RemoveArgs is REMOVE3args. The one REMOVE serves files and empty
// directories both (RMDIR is folded in; a non-empty directory answers
// NFS3ERR_NOTEMPTY).
type RemoveArgs struct {
	Dir  FH
	Name string
}

// AppendTo appends the encoded arguments to buf.
func (r *RemoveArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, r.Dir)
	return xdr.AppendString(buf, r.Name)
}

// Marshal encodes the arguments.
func (r *RemoveArgs) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *RemoveArgs) WireSize() int { return fhWireSize + 4 + pad4(len(r.Name)) }

// UnmarshalRemoveArgs decodes RemoveArgs.
func UnmarshalRemoveArgs(b []byte) (*RemoveArgs, error) {
	d := xdr.NewDecoder(b)
	r := &RemoveArgs{Dir: decodeFH(d), Name: d.String(MaxName)}
	return r, d.Err()
}

// RemoveRes is a reduced REMOVE3res (dir wcc_data reduced to post-op
// attributes).
type RemoveRes struct {
	Status uint32
	Attrs  *Fattr
}

// AppendTo appends the encoded result to buf.
func (r *RemoveRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, r.Status)
	return appendPostOpAttr(buf, r.Attrs)
}

// Marshal encodes the result.
func (r *RemoveRes) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *RemoveRes) WireSize() int { return 4 + postOpAttrSize(r.Attrs) }

// UnmarshalRemoveRes decodes RemoveRes.
func UnmarshalRemoveRes(b []byte) (*RemoveRes, error) {
	d := xdr.NewDecoder(b)
	r := &RemoveRes{Status: d.Uint32(), Attrs: decodePostOpAttr(d)}
	return r, d.Err()
}

// RenameArgs is RENAME3args.
type RenameArgs struct {
	FromDir  FH
	FromName string
	ToDir    FH
	ToName   string
}

// AppendTo appends the encoded arguments to buf.
func (r *RenameArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, r.FromDir)
	buf = xdr.AppendString(buf, r.FromName)
	buf = appendFH(buf, r.ToDir)
	return xdr.AppendString(buf, r.ToName)
}

// Marshal encodes the arguments.
func (r *RenameArgs) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *RenameArgs) WireSize() int {
	return 2*fhWireSize + 4 + pad4(len(r.FromName)) + 4 + pad4(len(r.ToName))
}

// UnmarshalRenameArgs decodes RenameArgs.
func UnmarshalRenameArgs(b []byte) (*RenameArgs, error) {
	d := xdr.NewDecoder(b)
	r := &RenameArgs{FromDir: decodeFH(d), FromName: d.String(MaxName),
		ToDir: decodeFH(d), ToName: d.String(MaxName)}
	return r, d.Err()
}

// RenameRes is a reduced RENAME3res (both directories' wcc_data reduced
// to post-op attributes).
type RenameRes struct {
	Status    uint32
	FromAttrs *Fattr
	ToAttrs   *Fattr
}

// AppendTo appends the encoded result to buf.
func (r *RenameRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, r.Status)
	buf = appendPostOpAttr(buf, r.FromAttrs)
	return appendPostOpAttr(buf, r.ToAttrs)
}

// Marshal encodes the result.
func (r *RenameRes) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *RenameRes) WireSize() int {
	return 4 + postOpAttrSize(r.FromAttrs) + postOpAttrSize(r.ToAttrs)
}

// UnmarshalRenameRes decodes RenameRes.
func UnmarshalRenameRes(b []byte) (*RenameRes, error) {
	d := xdr.NewDecoder(b)
	r := &RenameRes{Status: d.Uint32(),
		FromAttrs: decodePostOpAttr(d), ToAttrs: decodePostOpAttr(d)}
	return r, d.Err()
}

// ReaddirArgs is READDIR3args. Cookie resumes a scan just past the
// entry that carried it (0 starts from the beginning); Cookieverf must
// be 0 on a fresh scan and otherwise echo the verifier of the reply the
// cookie came from. Count is the reply-size budget in bytes.
type ReaddirArgs struct {
	Dir        FH
	Cookie     uint64
	Cookieverf uint64
	Count      uint32
}

// AppendTo appends the encoded arguments to buf.
func (r *ReaddirArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, r.Dir)
	buf = xdr.AppendUint64(buf, r.Cookie)
	buf = xdr.AppendUint64(buf, r.Cookieverf)
	return xdr.AppendUint32(buf, r.Count)
}

// Marshal encodes the arguments.
func (r *ReaddirArgs) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *ReaddirArgs) WireSize() int { return fhWireSize + 8 + 8 + 4 }

// UnmarshalReaddirArgs decodes ReaddirArgs.
func UnmarshalReaddirArgs(b []byte) (*ReaddirArgs, error) {
	d := xdr.NewDecoder(b)
	r := &ReaddirArgs{Dir: decodeFH(d), Cookie: d.Uint64(),
		Cookieverf: d.Uint64(), Count: d.Uint32()}
	return r, d.Err()
}

// DirEntry is entry3: one READDIR list entry.
type DirEntry struct {
	FileID uint64
	Name   string
	Cookie uint64
}

// wireSize is the entry's encoded size including its follows-bool.
func (e *DirEntry) wireSize() int { return 4 + 8 + 4 + pad4(len(e.Name)) + 8 }

func (e *DirEntry) appendTo(buf []byte) []byte {
	buf = xdr.AppendBool(buf, true)
	buf = xdr.AppendUint64(buf, e.FileID)
	buf = xdr.AppendString(buf, e.Name)
	return xdr.AppendUint64(buf, e.Cookie)
}

// ReaddirRes is READDIR3res: the directory's post-op attributes, the
// cookie verifier the entries' cookies are valid under, the entry list
// and the EOF flag.
type ReaddirRes struct {
	Status     uint32
	Attrs      *Fattr
	Cookieverf uint64
	Entries    []DirEntry
	EOF        bool
}

// AppendTo appends the encoded result to buf.
func (r *ReaddirRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, r.Status)
	buf = appendPostOpAttr(buf, r.Attrs)
	if r.Status == OK {
		buf = xdr.AppendUint64(buf, r.Cookieverf)
		for i := range r.Entries {
			buf = r.Entries[i].appendTo(buf)
		}
		buf = xdr.AppendBool(buf, false)
		buf = xdr.AppendBool(buf, r.EOF)
	}
	return buf
}

// Marshal encodes the result.
func (r *ReaddirRes) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *ReaddirRes) WireSize() int {
	n := 4 + postOpAttrSize(r.Attrs)
	if r.Status == OK {
		n += 8
		for i := range r.Entries {
			n += r.Entries[i].wireSize()
		}
		n += 4 + 4
	}
	return n
}

// UnmarshalReaddirRes decodes ReaddirRes. Entry names are copied out of
// b (a directory page outlives the receive buffer it arrived in).
func UnmarshalReaddirRes(b []byte) (*ReaddirRes, error) {
	d := xdr.NewDecoder(b)
	r := &ReaddirRes{Status: d.Uint32(), Attrs: decodePostOpAttr(d)}
	if r.Status == OK {
		r.Cookieverf = d.Uint64()
		for d.Bool() {
			e := DirEntry{FileID: d.Uint64(), Name: d.String(MaxName), Cookie: d.Uint64()}
			if d.Err() != nil {
				break
			}
			r.Entries = append(r.Entries, e)
		}
		r.EOF = d.Bool()
	}
	return r, d.Err()
}

// ReaddirplusArgs is READDIRPLUS3args: DirCount budgets the directory
// fields (names + cookies), MaxCount the whole reply.
type ReaddirplusArgs struct {
	Dir        FH
	Cookie     uint64
	Cookieverf uint64
	DirCount   uint32
	MaxCount   uint32
}

// AppendTo appends the encoded arguments to buf.
func (r *ReaddirplusArgs) AppendTo(buf []byte) []byte {
	buf = appendFH(buf, r.Dir)
	buf = xdr.AppendUint64(buf, r.Cookie)
	buf = xdr.AppendUint64(buf, r.Cookieverf)
	buf = xdr.AppendUint32(buf, r.DirCount)
	return xdr.AppendUint32(buf, r.MaxCount)
}

// Marshal encodes the arguments.
func (r *ReaddirplusArgs) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *ReaddirplusArgs) WireSize() int { return fhWireSize + 8 + 8 + 4 + 4 }

// UnmarshalReaddirplusArgs decodes ReaddirplusArgs.
func UnmarshalReaddirplusArgs(b []byte) (*ReaddirplusArgs, error) {
	d := xdr.NewDecoder(b)
	r := &ReaddirplusArgs{Dir: decodeFH(d), Cookie: d.Uint64(),
		Cookieverf: d.Uint64(), DirCount: d.Uint32(), MaxCount: d.Uint32()}
	return r, d.Err()
}

// DirEntryPlus is entryplus3: a DirEntry plus the entry's post-op
// attributes and handle. A zero FH encodes as "no handle follows"
// (RFC 1813 allows a server to omit either).
type DirEntryPlus struct {
	FileID uint64
	Name   string
	Cookie uint64
	Attrs  *Fattr
	FH     FH
}

// wireSize is the entry's encoded size including its follows-bool.
func (e *DirEntryPlus) wireSize() int {
	n := 4 + 8 + 4 + pad4(len(e.Name)) + 8 + postOpAttrSize(e.Attrs) + 4
	if e.FH != 0 {
		n += fhWireSize
	}
	return n
}

func (e *DirEntryPlus) appendTo(buf []byte) []byte {
	buf = xdr.AppendBool(buf, true)
	buf = xdr.AppendUint64(buf, e.FileID)
	buf = xdr.AppendString(buf, e.Name)
	buf = xdr.AppendUint64(buf, e.Cookie)
	buf = appendPostOpAttr(buf, e.Attrs)
	if e.FH != 0 {
		buf = xdr.AppendBool(buf, true)
		return appendFH(buf, e.FH)
	}
	return xdr.AppendBool(buf, false)
}

// ReaddirplusRes is READDIRPLUS3res.
type ReaddirplusRes struct {
	Status     uint32
	Attrs      *Fattr
	Cookieverf uint64
	Entries    []DirEntryPlus
	EOF        bool
}

// AppendTo appends the encoded result to buf.
func (r *ReaddirplusRes) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, r.Status)
	buf = appendPostOpAttr(buf, r.Attrs)
	if r.Status == OK {
		buf = xdr.AppendUint64(buf, r.Cookieverf)
		for i := range r.Entries {
			buf = r.Entries[i].appendTo(buf)
		}
		buf = xdr.AppendBool(buf, false)
		buf = xdr.AppendBool(buf, r.EOF)
	}
	return buf
}

// Marshal encodes the result.
func (r *ReaddirplusRes) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.WireSize()))
}

// WireSize reports the exact encoded size.
func (r *ReaddirplusRes) WireSize() int {
	n := 4 + postOpAttrSize(r.Attrs)
	if r.Status == OK {
		n += 8
		for i := range r.Entries {
			n += r.Entries[i].wireSize()
		}
		n += 4 + 4
	}
	return n
}

// UnmarshalReaddirplusRes decodes ReaddirplusRes. Entry names are
// copied out of b (see UnmarshalReaddirRes).
func UnmarshalReaddirplusRes(b []byte) (*ReaddirplusRes, error) {
	d := xdr.NewDecoder(b)
	r := &ReaddirplusRes{Status: d.Uint32(), Attrs: decodePostOpAttr(d)}
	if r.Status == OK {
		r.Cookieverf = d.Uint64()
		for d.Bool() {
			e := DirEntryPlus{FileID: d.Uint64(), Name: d.String(MaxName), Cookie: d.Uint64()}
			e.Attrs = decodePostOpAttr(d)
			if d.Bool() {
				e.FH = decodeFH(d)
			}
			if d.Err() != nil {
				break
			}
			r.Entries = append(r.Entries, e)
		}
		r.EOF = d.Bool()
	}
	return r, d.Err()
}
