package nfstrace

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/tracefile"
	"nfstricks/internal/xdr"
)

// Capture turns a live server's rpcnet tap events into tracefile
// records: it decodes the NFS-level fields (file handle, offset, count)
// from each request body, reads the NFS status off the reply, and
// appends one record per served RPC to a tracefile.Writer. Install it
// with nfsd.NewServer (or rpcnet.ServerOptions.Tap on any rpcnet server):
//
//	w, _ := tracefile.Create("out.nft", time.Now())
//	cap := nfstrace.NewCapture(w)
//	srv, _ := nfsd.NewServer(addr, svc, rpcnet.ServerOptions{Tap: cap.Tap})
//	...
//	cap.Close() // flush; then close w's file via w or cap
//
// Capture is safe for concurrent use: tap events arrive from every
// serving goroutine and are serialized onto the writer under one lock.
type Capture struct {
	mu    sync.Mutex
	w     *tracefile.Writer
	start time.Time
	err   error
	total int64
	// streams tracks each stream's recently seen XIDs so a
	// retransmission (same stream, same XID again) is recorded
	// distinctly (tracefile.StatusRetransmit) instead of posing as
	// fresh offered load.
	streams map[uint32]*xidWindow
	retrans int64
}

// captureXIDWindow is how many recent XIDs per stream a capture
// remembers for retransmission detection. A retransmit interval spans
// at most a few hundred in-flight calls; an XID falling out of the
// window just means a (very) late retransmission records as fresh.
const captureXIDWindow = 256

// captureMaxStreams bounds the stream map on a long-running capture
// facing UDP peer churn (same policy as rpcnet's stream-id map: reset,
// never grow forever).
const captureMaxStreams = 4096

// xidWindow is one stream's recent-XID set with FIFO eviction.
type xidWindow struct {
	seen map[uint32]struct{}
	fifo [captureXIDWindow]uint32
	n    int // total inserted; fifo slot = n % captureXIDWindow
}

// observe reports whether xid was recently seen on the stream,
// inserting it if not.
func (w *xidWindow) observe(xid uint32) bool {
	if _, ok := w.seen[xid]; ok {
		return true
	}
	if w.n >= captureXIDWindow {
		delete(w.seen, w.fifo[w.n%captureXIDWindow])
	}
	w.fifo[w.n%captureXIDWindow] = xid
	w.seen[xid] = struct{}{}
	w.n++
	return false
}

// NewCapture wraps w, timestamping records relative to the writer's
// own header origin (w.Start()), so file header and record offsets
// always agree. NewCaptureAt overrides the origin for tests or trace
// rewriting.
func NewCapture(w *tracefile.Writer) *Capture {
	return NewCaptureAt(w, w.Start())
}

// NewCaptureAt is NewCapture with an explicit time origin (records
// store arrival time minus start).
func NewCaptureAt(w *tracefile.Writer, start time.Time) *Capture {
	return &Capture{w: w, start: start, streams: make(map[uint32]*xidWindow)}
}

// Tap is the rpcnet.Tap. It parses the event and appends a record; the
// event's buffers are consumed before returning, per the tap contract.
func (c *Capture) Tap(ev rpcnet.TapEvent) {
	rec := tracefile.Record{
		When:    ev.When.Sub(c.start),
		Stream:  ev.Stream,
		Proc:    ev.Proc,
		Latency: ev.Latency,
	}
	rec.FH, rec.Offset, rec.Count, rec.Stable = parseArgs(ev.Proc, ev.Body)
	if ev.Stat != sunrpc.AcceptSuccess {
		rec.Status = tracefile.StatusRPCError | ev.Stat
	} else if ev.Proc != nfsproto.ProcNull && len(ev.Result) >= 4 {
		// Every non-NULL NFS3 result opens with its nfsstat3.
		rec.Status = binary.BigEndian.Uint32(ev.Result)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	win := c.streams[ev.Stream]
	if win == nil {
		if len(c.streams) >= captureMaxStreams {
			c.streams = make(map[uint32]*xidWindow)
		}
		win = &xidWindow{seen: make(map[uint32]struct{})}
		c.streams[ev.Stream] = win
	}
	if win.observe(ev.XID) {
		rec.Status |= tracefile.StatusRetransmit
		c.retrans++
	}
	c.err = c.w.Append(rec)
	if c.err == nil {
		c.total++
	}
}

// parseArgs decodes the handle/offset/count (and, for WRITE, the
// requested stability) a procedure's arguments carry (zero for
// procedures without the field). The decode mirrors nfsproto's
// Unmarshal*Args but stops at the traced fields, so capture never
// copies a WRITE payload.
func parseArgs(proc uint32, body []byte) (fh uint64, offset uint64, count uint32, stable uint32) {
	d := xdr.NewDecoder(body)
	readFH := func() uint64 {
		b := d.OpaqueView(64)
		if len(b) != 8 {
			return 0
		}
		return binary.BigEndian.Uint64(b)
	}
	switch proc {
	case nfsproto.ProcGetattr, nfsproto.ProcLookup, nfsproto.ProcAccess,
		nfsproto.ProcCreate, nfsproto.ProcFsstat,
		nfsproto.ProcMkdir, nfsproto.ProcRemove, nfsproto.ProcRename:
		// First field is the (directory) handle; names and access bits
		// are not traced. RENAME records its from-directory.
		fh = readFH()
	case nfsproto.ProcSetattr:
		// The requested size rides in Offset so analyze/replay can see
		// truncations without a new record field; a call that sets no
		// size is marked in Count instead.
		fh = readFH()
		if d.Bool() { // set_size.set_it: a size follows
			offset = d.Uint64()
		} else {
			count = tracefile.SetattrKeepSize
		}
	case nfsproto.ProcRead, nfsproto.ProcCommit:
		fh = readFH()
		offset = d.Uint64()
		count = d.Uint32()
	case nfsproto.ProcWrite:
		fh = readFH()
		offset = d.Uint64()
		count = d.Uint32()
		stable = d.Uint32()
	case nfsproto.ProcReaddir:
		// Cookie rides in Offset; the verifier is not traced (replay
		// starts scans fresh anyway).
		fh = readFH()
		offset = d.Uint64()
		d.Uint64() // cookieverf
		count = d.Uint32()
	case nfsproto.ProcReaddirplus:
		fh = readFH()
		offset = d.Uint64()
		d.Uint64()         // cookieverf
		d.Uint32()         // dircount
		count = d.Uint32() // maxcount
	}
	if d.Err() != nil {
		return 0, 0, 0, 0
	}
	return fh, offset, count, stable
}

// Total reports how many records were captured.
func (c *Capture) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Retransmits reports how many captured records were recognized as
// retransmissions (tagged tracefile.StatusRetransmit).
func (c *Capture) Retransmits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retrans
}

// Err reports the first writer error, if any; records after it were
// dropped.
func (c *Capture) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes and closes the underlying writer. The server should be
// closed (or the tap quiesced) first; late events after Close are
// dropped.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.w.Close()
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// FromTracefile converts captured on-disk records to analyzer records,
// so Analyze, OpMix and InterarrivalStats run identically on live
// traces and on simulator traces. The file stores records in completion
// order; the analyzers measure the server-observed arrival order, so
// the records are stable-sorted by arrival time first (without this, a
// pipelined capture would charge its own completion jitter as request
// reordering).
func FromTracefile(recs []tracefile.Record) []Record {
	byArrival := append([]tracefile.Record(nil), recs...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].When < byArrival[j].When })
	out := make([]Record, len(byArrival))
	for i, r := range byArrival {
		out[i] = Record{
			When:   r.When,
			Proc:   r.Proc,
			FH:     r.FH,
			Offset: r.Offset,
			Count:  r.Count,
			Stable: r.Stable,
		}
	}
	return out
}

// WriteStabilityMix tallies a capture's WRITE records by requested
// stability level (index by nfsproto.WriteUnstable/DataSync/FileSync).
// Stability levels beyond FILE_SYNC — impossible from a conforming
// client — count as FILE_SYNC, matching how the server clamps them.
func WriteStabilityMix(recs []tracefile.Record) (mix [3]int64) {
	for _, r := range recs {
		if r.Proc != nfsproto.ProcWrite {
			continue
		}
		s := r.Stable
		if s > nfsproto.WriteFileSync {
			s = nfsproto.WriteFileSync
		}
		mix[s]++
	}
	return mix
}

// FormatWriteStabilityMix renders a stability mix compactly.
func FormatWriteStabilityMix(mix [3]int64) string {
	return fmt.Sprintf("%s:%d %s:%d %s:%d",
		nfsproto.StableName(nfsproto.WriteUnstable), mix[nfsproto.WriteUnstable],
		nfsproto.StableName(nfsproto.WriteDataSync), mix[nfsproto.WriteDataSync],
		nfsproto.StableName(nfsproto.WriteFileSync), mix[nfsproto.WriteFileSync])
}

// CommitDistanceStats summarizes how far WRITEs sit from the COMMIT
// that makes them stable — the client-side shape of the asynchronous
// write pipeline. Distance is measured in requests: how many of the
// same stream's subsequent requests arrive before a COMMIT on the same
// file handle (0 = the very next request is the COMMIT). WRITEs never
// followed by a COMMIT on their handle are Uncommitted — for UNSTABLE
// writes that is data the server was still free to lose when the
// capture ended.
type CommitDistanceStats struct {
	Writes      int64
	Committed   int64
	Uncommitted int64
	MeanOps     float64
	P50Ops      int
	MaxOps      int
}

// String renders the stats on one line.
func (s CommitDistanceStats) String() string {
	return fmt.Sprintf("writes=%d committed=%d uncommitted=%d distance mean=%.1f p50=%d max=%d",
		s.Writes, s.Committed, s.Uncommitted, s.MeanOps, s.P50Ops, s.MaxOps)
}

// CommitDistances computes the WRITE→COMMIT distance distribution over
// a capture. Records are processed per stream in arrival order, so a
// pipelined capture's completion jitter does not distort distances.
func CommitDistances(recs []tracefile.Record) CommitDistanceStats {
	byArrival := append([]tracefile.Record(nil), recs...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].When < byArrival[j].When })

	// Per-stream request index and, per (stream, fh), the indices of
	// writes awaiting a commit.
	type key struct {
		stream uint32
		fh     uint64
	}
	idx := make(map[uint32]int)
	pending := make(map[key][]int)
	var st CommitDistanceStats
	var dists []int
	for _, r := range byArrival {
		i := idx[r.Stream]
		idx[r.Stream] = i + 1
		switch r.Proc {
		case nfsproto.ProcWrite:
			st.Writes++
			k := key{r.Stream, r.FH}
			pending[k] = append(pending[k], i)
		case nfsproto.ProcCommit:
			k := key{r.Stream, r.FH}
			for _, wi := range pending[k] {
				dists = append(dists, i-wi-1)
			}
			delete(pending, k)
		}
	}
	st.Committed = int64(len(dists))
	st.Uncommitted = st.Writes - st.Committed
	if len(dists) == 0 {
		return st
	}
	sort.Ints(dists)
	var sum int64
	for _, d := range dists {
		sum += int64(d)
	}
	st.MeanOps = float64(sum) / float64(len(dists))
	st.P50Ops = dists[len(dists)/2]
	st.MaxOps = dists[len(dists)-1]
	return st
}

// FromFile reads a captured .nft trace into analyzer records — the
// FromFile path that lets the reordering/sequentiality analyzers run on
// captured live traffic instead of only on the simulated kernel.
func FromFile(path string) ([]Record, error) {
	_, recs, err := tracefile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromTracefile(recs), nil
}

// AnalyzeFile runs the paper's reordering/sequentiality analysis over a
// captured trace file's READ records.
func AnalyzeFile(path string) (Analysis, error) {
	recs, err := FromFile(path)
	if err != nil {
		return Analysis{}, err
	}
	return Analyze(recs, nfsproto.ProcRead), nil
}
