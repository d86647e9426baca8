// Package tracefile defines the .nft on-disk format for captured NFS
// request traces: a compact, versioned binary stream of per-request
// records (arrival time, stream, procedure, file handle, offset, count,
// status, service latency) with a streaming Writer and Reader. It is
// the persistence layer of the live trace subsystem — the capture tap
// (internal/nfstrace) writes it, the analyzers and the replay engine
// (internal/replay) read it — so real request streams become on-disk
// artifacts that can be inspected and replayed as first-class benchmark
// workloads.
//
// # File format (version 2)
//
// A trace file is a fixed 16-byte header followed by records until EOF:
//
//	offset 0:  4-byte magic "NFT2"
//	offset 4:  4-byte reserved (zero)
//	offset 8:  8-byte big-endian capture start time (Unix nanoseconds)
//
// Each record is a sequence of varints (encoding/binary uvarint; the
// timestamp delta is zigzag-signed because records are written in
// completion order, so arrival times may regress by up to a service
// latency):
//
//	dt      zigzag varint, nanoseconds since the previous record's When
//	stream  uvarint, per-connection (TCP) / per-peer (UDP) stream id
//	proc    uvarint, NFS procedure number
//	fh      uvarint, file handle
//	offset  uvarint, byte offset (READ/WRITE/COMMIT; 0 otherwise)
//	count   uvarint, byte count (READ/WRITE/COMMIT; 0 otherwise)
//	stable  uvarint, requested write stability (WRITE; 0 otherwise)
//	status  uvarint, NFS status, or StatusRPCError|accept_stat for
//	        calls rejected at the RPC layer
//	latency uvarint, nanoseconds of server-side service time
//
// Varint-delta timestamps make the format compact: a steady request
// stream costs ~10-15 bytes per record instead of the ~48 bytes of a
// fixed-width layout.
//
// # Version 1
//
// Version-1 files (magic "NFT1") predate the asynchronous write path
// and lack the stable field. The Reader auto-detects them by magic and
// decodes their records with Stable set to V1Stable (FILE_SYNC — the
// only stability the version-1-era live client ever sent). The Writer
// always emits version 2.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Version is the current format version (encoded in the magic).
const Version = 2

// V1Stable is the Stable value synthesized for records read from
// version-1 files: FILE_SYNC, the only stability the version-1-era
// live client ever requested (and the only one its server honoured).
const V1Stable = 2

// magicV1 and magicV2 identify trace-file versions; the Writer emits
// magicV2, the Reader accepts both.
var (
	magicV1 = [4]byte{'N', 'F', 'T', '1'}
	magicV2 = [4]byte{'N', 'F', 'T', '2'}
)

// headerSize is the fixed encoded size of the file header.
const headerSize = 16

// StatusRPCError is OR-ed into a record's Status when the call never
// reached the NFS handler: the low bits then hold the RPC accept_stat
// (prog unavailable, garbage args, ...) instead of an NFS status.
const StatusRPCError = 1 << 31

// StatusRetransmit is OR-ed into a record's Status when the capture
// recognized the call as a retransmission: the same stream recently
// carried the same XID. Distinguishing retransmissions from fresh
// requests is what lets a trace of a lossy run be analyzed for offered
// load versus goodput instead of conflating the two. (Status is an
// uvarint on the wire, so a new flag bit needs no format bump; readers
// of older tools see a large status value only on traces that actually
// captured retransmissions.)
const StatusRetransmit = 1 << 30

// StatusFlags masks the flag bits off a Status, leaving the NFS status
// or accept_stat value.
const StatusFlags = StatusRPCError | StatusRetransmit

// SetattrKeepSize in a SETATTR record's Count marks a call whose
// set_size arm was off (set_it=false): it changed no size and Offset
// holds none. A SETATTR with Count 0 set the size to Offset, which is
// also how every trace written before the marker reads.
const SetattrKeepSize = 1

// ErrBadMagic is returned by NewReader for streams that are not
// trace files of a known version.
var ErrBadMagic = errors.New("tracefile: bad magic (not a .nft version 1 or 2 trace)")

// Record is one traced request. When is relative to the capture start
// recorded in the header, so traces are position-independent.
type Record struct {
	When    time.Duration // arrival time since capture start
	Stream  uint32        // client connection (TCP) / peer (UDP) id
	Proc    uint32        // NFS procedure number
	FH      uint64        // file handle (dir handle for LOOKUP/CREATE)
	Offset  uint64        // byte offset (READ/WRITE/COMMIT); requested size (SETATTR)
	Count   uint32        // byte count (READ/WRITE/COMMIT); SetattrKeepSize or 0 (SETATTR)
	Stable  uint32        // requested write stability (WRITE; V1Stable for v1 files)
	Status  uint32        // NFS status, or StatusRPCError|accept_stat
	Latency time.Duration // server-side service time
}

// Header is the decoded file header.
type Header struct {
	Version int
	Start   time.Time // capture wall-clock start
}

// recBufs recycles Writer staging buffers (the PR 2 pooled-buffer
// idiom): a Writer takes one for its whole life and returns it on
// Close, so appends allocate nothing and short-lived capture sessions
// do not churn 64 KB buffers.
var recBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// maxRecordSize bounds one encoded record (9 varints of at most 10
// bytes each); the staging buffer is flushed when less than this much
// headroom remains, so Append never grows it.
const maxRecordSize = 9 * binary.MaxVarintLen64

// Writer encodes records onto an io.Writer. Append is allocation-free:
// each record is varint-encoded into a pooled staging buffer that is
// flushed to the underlying writer as it fills. Writer is not safe for
// concurrent use; the capture tap serializes callers.
type Writer struct {
	w      io.Writer
	buf    *[]byte
	start  time.Time     // wall-clock origin written to the header
	prev   time.Duration // previous record's When, for delta encoding
	n      int64         // records appended
	closer io.Closer     // set by Create: closes the backing file
	err    error         // first write error; sticky
}

// NewWriter starts a trace on w, writing the header immediately. start
// is the capture's wall-clock origin (records carry offsets from it).
func NewWriter(w io.Writer, start time.Time) (*Writer, error) {
	tw := &Writer{w: w, buf: recBufs.Get().(*[]byte), start: start}
	hdr := make([]byte, headerSize)
	copy(hdr, magicV2[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(start.UnixNano()))
	if _, err := w.Write(hdr); err != nil {
		tw.release()
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return tw, nil
}

// Create opens path (truncating) and starts a trace on it; Close
// flushes and closes the file.
func Create(path string, start time.Time) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	w, err := NewWriter(f, start)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// release returns the staging buffer to the pool.
func (w *Writer) release() {
	if w.buf != nil {
		*w.buf = (*w.buf)[:0]
		recBufs.Put(w.buf)
		w.buf = nil
	}
}

// Append encodes one record. It buffers internally; call Flush (or
// Close) to push buffered records to the underlying writer. After a
// write error every Append returns that error and drops the record.
func (w *Writer) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	buf := *w.buf
	if cap(buf)-len(buf) < maxRecordSize {
		if err := w.Flush(); err != nil {
			return err
		}
		buf = *w.buf
	}
	// Zigzag-encode the timestamp delta: completion-order writes mean
	// When can step backwards by up to a service latency.
	dt := int64(r.When - w.prev)
	buf = binary.AppendUvarint(buf, uint64(dt)<<1^uint64(dt>>63))
	buf = binary.AppendUvarint(buf, uint64(r.Stream))
	buf = binary.AppendUvarint(buf, uint64(r.Proc))
	buf = binary.AppendUvarint(buf, r.FH)
	buf = binary.AppendUvarint(buf, r.Offset)
	buf = binary.AppendUvarint(buf, uint64(r.Count))
	buf = binary.AppendUvarint(buf, uint64(r.Stable))
	buf = binary.AppendUvarint(buf, uint64(r.Status))
	buf = binary.AppendUvarint(buf, uint64(r.Latency))
	*w.buf = buf
	w.prev = r.When
	w.n++
	return nil
}

// Total reports how many records were appended.
func (w *Writer) Total() int64 { return w.n }

// Start returns the wall-clock origin written to the header. Record
// producers should timestamp relative to it (nfstrace.NewCapture does),
// so header and offsets share one exact origin.
func (w *Writer) Start() time.Time { return w.start }

// Flush writes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	buf := *w.buf
	if len(buf) == 0 {
		return nil
	}
	if _, err := w.w.Write(buf); err != nil {
		w.err = fmt.Errorf("tracefile: %w", err)
		return w.err
	}
	*w.buf = buf[:0]
	return nil
}

// Close flushes, recycles the staging buffer and, for Create-backed
// writers, closes the file. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	err := w.Flush()
	w.release()
	if w.err == nil {
		// Poison further appends without masking the flush result.
		w.err = errors.New("tracefile: writer closed")
	}
	if w.closer != nil {
		cerr := w.closer.Close()
		w.closer = nil
		if err == nil && cerr != nil {
			err = fmt.Errorf("tracefile: %w", cerr)
		}
	}
	return err
}

// Reader decodes a trace stream, auto-detecting version 1 and 2 files
// by magic (Header().Version reports which was found).
type Reader struct {
	br     *bufio.Reader
	hdr    Header
	prev   time.Duration
	closer io.Closer
}

// NewReader parses the header and prepares to stream records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	var version int
	switch [4]byte(hdr[:4]) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return nil, ErrBadMagic
	}
	return &Reader{
		br: br,
		hdr: Header{
			Version: version,
			Start:   time.Unix(0, int64(binary.BigEndian.Uint64(hdr[8:]))),
		},
	}, nil
}

// Open opens a trace file for streaming reads; Close releases it.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// Next decodes the next record into rec. It returns io.EOF at a clean
// end of stream and io.ErrUnexpectedEOF for a record cut mid-encode
// (e.g. a capture killed before its final flush).
func (r *Reader) Next(rec *Record) error {
	zz, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("tracefile: %w", err)
	}
	dt := int64(zz>>1) ^ -int64(zz&1)
	// Version 1 records have no stable field; one fewer varint.
	nFields := 8
	if r.hdr.Version == 1 {
		nFields = 7
	}
	fields := [8]uint64{}
	for i := 0; i < nFields; i++ {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("tracefile: truncated record: %w", err)
		}
		fields[i] = v
	}
	r.prev += time.Duration(dt)
	*rec = Record{
		When:   r.prev,
		Stream: uint32(fields[0]),
		Proc:   uint32(fields[1]),
		FH:     fields[2],
		Offset: fields[3],
		Count:  uint32(fields[4]),
	}
	if r.hdr.Version == 1 {
		rec.Stable = V1Stable
		rec.Status = uint32(fields[5])
		rec.Latency = time.Duration(fields[6])
	} else {
		rec.Stable = uint32(fields[5])
		rec.Status = uint32(fields[6])
		rec.Latency = time.Duration(fields[7])
	}
	return nil
}

// Close releases the backing file of an Open-backed reader (no-op for
// NewReader).
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	err := r.closer.Close()
	r.closer = nil
	return err
}

// ReadAll decodes every record from r.
func ReadAll(r io.Reader) (Header, []Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var recs []Record
	var rec Record
	for {
		if err := tr.Next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return tr.Header(), recs, nil
			}
			return tr.Header(), recs, err
		}
		recs = append(recs, rec)
	}
}

// ReadFile decodes a whole trace file.
func ReadFile(path string) (Header, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	return ReadAll(f)
}

// WriteAll writes a header plus all records to w (convenience for
// tests and trace rewriting; capture uses the streaming Writer).
func WriteAll(w io.Writer, start time.Time, recs []Record) error {
	tw, err := NewWriter(w, start)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := tw.Append(r); err != nil {
			tw.Close()
			return err
		}
	}
	return tw.Close()
}
