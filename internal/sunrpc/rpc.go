// Package sunrpc implements the ONC RPC v2 message layer (RFC 5531):
// call and reply headers with AUTH_NONE/AUTH_UNIX credentials, plus the
// record-marking framing RPC uses over TCP (RFC 5531 §11). The same
// marshalled bytes travel over the simulated network and over real
// sockets in the live server, so simulated message sizes are exact.
package sunrpc

import (
	"errors"
	"fmt"
	"io"

	"nfstricks/internal/xdr"
)

// RPCVersion is the only supported RPC protocol version.
const RPCVersion = 2

// Message types.
const (
	MsgCall  = 0
	MsgReply = 1
)

// Reply statuses.
const (
	ReplyAccepted = 0
	ReplyDenied   = 1
)

// Accept statuses.
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// Auth flavors.
const (
	AuthNone = 0
	AuthUnix = 1
)

// maxAuthBody bounds credential bodies (RFC 5531: 400 bytes).
const maxAuthBody = 400

// Auth is an RPC authenticator: a flavor and opaque body.
type Auth struct {
	Flavor uint32
	Body   []byte
}

// AuthNoneCred is the empty credential.
func AuthNoneCred() Auth { return Auth{Flavor: AuthNone} }

// AuthUnixCred builds an AUTH_UNIX credential body.
func AuthUnixCred(machine string, uid, gid uint32) Auth {
	e := xdr.NewEncoder(nil)
	e.Uint32(0) // stamp
	e.String(machine)
	e.Uint32(uid)
	e.Uint32(gid)
	e.Uint32(0) // no auxiliary gids
	return Auth{Flavor: AuthUnix, Body: e.Bytes()}
}

// Call is an RPC call message.
type Call struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred Auth
	Verf Auth
	// Body is the procedure-specific argument payload (already XDR).
	Body []byte
}

// Reply is an accepted RPC reply message. (Denied replies are folded
// into Unmarshal errors; NFS servers in this codebase always accept.)
type Reply struct {
	XID  uint32
	Stat uint32 // accept_stat
	Verf Auth
	Body []byte
}

func decodeAuth(d *xdr.Decoder) Auth {
	// The body is a view into the decode buffer (see UnmarshalCall's
	// aliasing contract) — neither side of this codebase retains
	// authenticator bodies past the message they arrived in.
	return Auth{Flavor: d.Uint32(), Body: d.OpaqueView(maxAuthBody)}
}

func appendAuth(buf []byte, a Auth) []byte {
	buf = xdr.AppendUint32(buf, a.Flavor)
	return xdr.AppendOpaque(buf, a.Body)
}

// AppendTo appends the encoded call to buf and returns the extended
// slice. Header and body land in one buffer, so a client can marshal
// record mark (TCP), RPC header and procedure arguments in a single
// pooled allocation.
func (c *Call) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, c.XID)
	buf = xdr.AppendUint32(buf, MsgCall)
	buf = xdr.AppendUint32(buf, RPCVersion)
	buf = xdr.AppendUint32(buf, c.Prog)
	buf = xdr.AppendUint32(buf, c.Vers)
	buf = xdr.AppendUint32(buf, c.Proc)
	buf = appendAuth(buf, c.Cred)
	buf = appendAuth(buf, c.Verf)
	return append(buf, c.Body...)
}

// MarshalCall encodes a call message.
func MarshalCall(c *Call) []byte {
	return c.AppendTo(make([]byte, 0, 64+len(c.Body)))
}

// UnmarshalCall decodes a call message.
func UnmarshalCall(b []byte) (*Call, error) {
	d := xdr.NewDecoder(b)
	c := &Call{XID: d.Uint32()}
	if mt := d.Uint32(); d.Err() == nil && mt != MsgCall {
		return nil, fmt.Errorf("sunrpc: message type %d is not a call", mt)
	}
	if rv := d.Uint32(); d.Err() == nil && rv != RPCVersion {
		return nil, fmt.Errorf("sunrpc: RPC version %d unsupported", rv)
	}
	c.Prog = d.Uint32()
	c.Vers = d.Uint32()
	c.Proc = d.Uint32()
	c.Cred = decodeAuth(d)
	c.Verf = decodeAuth(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Body aliases b rather than copying it: the payload-bearing WRITE
	// path must not duplicate its data just to cross this layer. Callers
	// that recycle b (pooled receive buffers) must finish with the call —
	// including anything decoded from Body as a view — before reusing it.
	c.Body = b[len(b)-d.Remaining():]
	return c, nil
}

// AppendTo appends the encoded reply to buf and returns the extended
// slice. With a nil Body it emits just the accepted-reply header, after
// which the caller appends the procedure result directly — the shape the
// zero-copy server uses to build record mark, RPC header and NFS result
// in one buffer.
func (r *Reply) AppendTo(buf []byte) []byte {
	buf = xdr.AppendUint32(buf, r.XID)
	buf = xdr.AppendUint32(buf, MsgReply)
	buf = xdr.AppendUint32(buf, ReplyAccepted)
	buf = appendAuth(buf, r.Verf)
	buf = xdr.AppendUint32(buf, r.Stat)
	return append(buf, r.Body...)
}

// MarshalReply encodes an accepted reply.
func MarshalReply(r *Reply) []byte {
	return r.AppendTo(make([]byte, 0, 32+len(r.Body)))
}

// UnmarshalReply decodes a reply, returning an error for denied replies.
func UnmarshalReply(b []byte) (*Reply, error) {
	d := xdr.NewDecoder(b)
	r := &Reply{XID: d.Uint32()}
	if mt := d.Uint32(); d.Err() == nil && mt != MsgReply {
		return nil, fmt.Errorf("sunrpc: message type %d is not a reply", mt)
	}
	if rs := d.Uint32(); d.Err() == nil && rs != ReplyAccepted {
		return nil, fmt.Errorf("sunrpc: reply denied (stat %d)", rs)
	}
	r.Verf = decodeAuth(d)
	r.Stat = d.Uint32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	r.Body = append([]byte(nil), b[len(b)-d.Remaining():]...)
	return r, nil
}

// Record marking (TCP framing): each record is sent as fragments with a
// 4-byte header whose high bit marks the final fragment.

const lastFragmentBit = 0x80000000

// MaxRecord bounds a whole record, summed over its fragments (1 MiB is
// far beyond any NFS3 message this codebase produces). Bounding the
// total, not each fragment, is what stops a peer that never sets the
// last-fragment bit from growing the receive buffer without limit.
const MaxRecord = 1 << 20

// MarkSize is the size of the record-marking header BeginRecord
// reserves.
const MarkSize = 4

// BeginRecord reserves space for a record mark at the end of buf and
// returns the extended slice. The caller appends the record's bytes,
// then seals it with FinishRecord; the mark, RPC header and payload all
// land in one buffer, so the record needs no re-framing copy and a
// batch of records goes to the socket as one gather write.
func BeginRecord(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0)
}

// FinishRecord fills in the record mark reserved by BeginRecord at
// offset start, framing everything appended after it as one final
// fragment.
func FinishRecord(buf []byte, start int) {
	n := uint32(len(buf)-start-MarkSize) | lastFragmentBit
	buf[start] = byte(n >> 24)
	buf[start+1] = byte(n >> 16)
	buf[start+2] = byte(n >> 8)
	buf[start+3] = byte(n)
}

// WriteRecord frames b as a single final fragment on w.
func WriteRecord(w io.Writer, b []byte) error {
	hdr := [4]byte{
		byte((uint32(len(b)) | lastFragmentBit) >> 24),
		byte(uint32(len(b)) >> 16),
		byte(uint32(len(b)) >> 8),
		byte(uint32(len(b))),
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadRecord reads one complete record (possibly multiple fragments)
// from r.
func ReadRecord(r io.Reader) ([]byte, error) {
	return ReadRecordInto(r, nil)
}

// ReadRecordInto reads one complete record from r into buf's storage
// (appending from length zero, growing if needed) and returns the
// record. Callers that recycle buffers pass the previous return value —
// or a pooled buffer — back in, making steady-state record reads
// allocation-free. A record longer than MaxRecord is an error.
//
// Each record costs two reads (mark, then body), so a connection's read
// loop should hand in a *bufio.Reader: records already in its buffer are
// then framed without a syscall.
func ReadRecordInto(r io.Reader, buf []byte) ([]byte, error) {
	out := buf[:0]
	for {
		// The mark is read into the tail of out, where the fragment's
		// body then lands over it: a local array would escape through
		// the io.Reader call and cost an allocation per fragment.
		start := len(out)
		out = append(out, 0, 0, 0, 0)
		hdr := out[start:]
		if _, err := io.ReadFull(r, hdr); err != nil {
			return nil, err
		}
		n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		last := n&lastFragmentBit != 0
		n &^= lastFragmentBit
		out = out[:start]
		if n > uint32(MaxRecord-start) {
			return nil, errors.New("sunrpc: record too large")
		}
		if need := start + int(n); need <= cap(out) {
			out = out[:need]
		} else {
			out = xdr.AppendZero(out, int(n))
		}
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
		if last {
			return out, nil
		}
	}
}
