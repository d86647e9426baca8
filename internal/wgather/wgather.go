// Package wgather is the server-side write-gathering engine behind the
// live NFS service's asynchronous write path. The paper's server-side
// tricks are two-sided — read-ahead heuristics and gathering/deferring
// writes — and this package is the write half: UNSTABLE writes land in
// the page cache immediately but their stable-storage flush is deferred
// inside a gather window, during which adjacent and overlapping dirty
// ranges coalesce, so a stream of small client writes reaches stable
// storage as a few large flushes instead of one flush per RPC.
//
// The engine tracks per-file dirty extents (the page cache itself —
// memfs — holds the bytes; the engine holds only ranges), bounded three
// ways: a time window (no write stays dirty longer than Config.Window),
// a per-file byte bound (a file accumulating Config.MaxFileBytes of
// dirty data is flushed early) and a global memory-pressure cap
// (Config.MaxTotalBytes across all files forces a full flush). All
// three are first-class, sweepable parameters — the benchmarking-crimes
// literature's complaint about buffering policy silently deciding what
// a benchmark measures is exactly why they are knobs and not constants.
//
// Stable storage is a pluggable Sink: NullSink (stable storage as fast
// as the page cache — the in-memory immediate sink), MemSink (retains
// the flushed bytes, so tests can check exactly what would survive a
// crash) and ThrottledSink (a bandwidth/latency cost model, so
// gathering has something real to win against).
//
// A Window of 0 disables gathering entirely: every write, whatever its
// requested stability, is flushed through the sink before the reply —
// the synchronous behaviour the live server had before this engine
// existed.
package wgather

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stability levels, wire-compatible with nfsproto.WriteUnstable et al.
// (redeclared so the engine has no protocol dependency).
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)

// Sink is stable storage: Flush persists one coalesced extent. The
// engine may call Flush from its background flusher and from request
// goroutines concurrently, but never concurrently for the same file.
type Sink interface {
	Flush(fh uint64, off uint64, data []byte) error
}

// NullSink is the immediate in-memory sink: stable storage costs
// nothing beyond the page cache the data already sits in.
type NullSink struct{}

// Flush is a no-op.
func (NullSink) Flush(uint64, uint64, []byte) error { return nil }

// MemSink is an in-memory sink that retains what was flushed, byte for
// byte. It is the observable "disk" of the crash/rewrite tests: data a
// client wrote UNSTABLE but never committed is absent from it after a
// Reboot, and present again once the client detects the verifier change
// and rewrites.
type MemSink struct {
	mu    sync.Mutex
	files map[uint64][]byte
}

// NewMemSink returns an empty sink.
func NewMemSink() *MemSink {
	return &MemSink{files: make(map[uint64][]byte)}
}

// Flush stores the extent, extending the stable image as needed.
func (m *MemSink) Flush(fh uint64, off uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := m.files[fh]
	if need := off + uint64(len(data)); need > uint64(len(img)) {
		grown := make([]byte, need)
		copy(grown, img)
		img = grown
	}
	copy(img[off:], data)
	m.files[fh] = img
	return nil
}

// Bytes returns a copy of the stable image of fh.
func (m *MemSink) Bytes(fh uint64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.files[fh]...)
}

// ThrottledSink charges a fixed per-flush latency plus a bandwidth cost
// per byte before delegating to Inner — the cost model of a disk whose
// seek/sync overhead is what write-gathering amortizes. A FILE_SYNC
// workload pays Latency once per RPC; a gathered workload pays it once
// per coalesced extent.
type ThrottledSink struct {
	// Inner receives the flushed data (nil = discard).
	Inner Sink
	// Latency is the fixed cost per Flush call.
	Latency time.Duration
	// BytesPerSec is the transfer bandwidth (0 = infinite).
	BytesPerSec float64
}

// Flush sleeps out the cost model, then delegates.
func (t *ThrottledSink) Flush(fh uint64, off uint64, data []byte) error {
	d := t.Latency
	if t.BytesPerSec > 0 {
		d += time.Duration(float64(len(data)) / t.BytesPerSec * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
	if t.Inner == nil {
		return nil
	}
	return t.Inner.Flush(fh, off, data)
}

// Config parameterizes an Engine. The zero value (plus a Source) is a
// valid write-through configuration: Window 0, NullSink.
type Config struct {
	// Window is the gather window: the longest an UNSTABLE write may
	// stay dirty before the background flusher pushes it to the sink.
	// 0 disables gathering — every write is flushed synchronously.
	Window time.Duration
	// MaxFileBytes flushes a file early once its dirty extents hold
	// this many bytes (0 = DefaultMaxFileBytes).
	MaxFileBytes int64
	// MaxTotalBytes is the memory-pressure cap: when dirty bytes across
	// all files reach it, everything is flushed (0 = DefaultMaxTotalBytes).
	MaxTotalBytes int64
	// Sink is stable storage (nil = NullSink).
	Sink Sink
	// Source reads current file data for a flush — the page cache the
	// engine defers writes of. Required.
	Source func(fh, off uint64, count uint32) ([]byte, error)
	// Verifier seeds the write verifier (0 = derived from the clock, a
	// real boot cookie).
	Verifier uint64
}

// Default byte bounds (see Config).
const (
	DefaultMaxFileBytes  = 1 << 20
	DefaultMaxTotalBytes = 16 << 20
)

// flushChunk bounds one Source read / Sink.Flush call, so an enormous
// coalesced extent streams through bounded memory.
const flushChunk = 1 << 20

// verifierStep is the odd constant a Reboot adds to the verifier —
// any nonzero step proves "changed" to clients; an odd one never cycles
// back to a previous value within 2^64 reboots.
const verifierStep = 0x9e3779b97f4a7c15

// Stats is a snapshot of the engine's counters. Counters are
// independent atomics; see nfsd.Service.Stats for the torn-snapshot
// caveat under load.
type Stats struct {
	// WritesUnstable/DataSync/FileSync count Write calls by requested
	// stability.
	WritesUnstable int64
	WritesDataSync int64
	WritesFileSync int64
	// Commits counts Commit calls.
	Commits int64
	// Flushes counts Sink.Flush calls; FlushedBytes the bytes they
	// carried.
	Flushes      int64
	FlushedBytes int64
	// GatheredBytes counts UNSTABLE bytes accepted into the dirty set;
	// CoalescedBytes is the portion absorbed by already-dirty ranges
	// (overlap rewrites) — gathered minus net-new dirty bytes.
	GatheredBytes  int64
	CoalescedBytes int64
	// DirtyBytes is the current dirty total; MaxDirtyBytes its
	// high-water mark.
	DirtyBytes    int64
	MaxDirtyBytes int64
	// Reboots counts simulated server restarts (verifier changes).
	Reboots int64
}

// extent is one dirty range, [off, end).
type extent struct{ off, end uint64 }

// fileState tracks one file's dirty extents. The extents slice and
// dirty count are guarded by the engine mutex; flushMu serializes sink
// flushes of this file (held across Source reads and Sink calls, so a
// Commit waiting on it returns only after in-flight flushes land).
type fileState struct {
	flushMu sync.Mutex
	extents []extent
	dirty   int64
	queued  bool // an entry for this file sits in the flusher queue
}

// flushEntry is one deferred flush: fh's dirty data is due at deadline.
type flushEntry struct {
	fh       uint64
	deadline time.Time
}

// Engine gathers writes. Safe for concurrent use.
type Engine struct {
	cfg  Config
	verf atomic.Uint64

	mu         sync.Mutex
	files      map[uint64]*fileState
	dirtyTotal int64
	asyncErr   error // first background flush error; reported by Commit
	closed     bool

	// queue feeds the background flusher; entries carry non-decreasing
	// deadlines (every file gets now+Window on its clean→dirty edge).
	queue   chan flushEntry
	stop    chan struct{}
	flusher sync.Once // starts the goroutine on first deferred write
	wg      sync.WaitGroup

	writes       [3]atomic.Int64
	commits      atomic.Int64
	flushes      atomic.Int64
	flushedBytes atomic.Int64
	gathered     atomic.Int64
	coalesced    atomic.Int64
	maxDirty     atomic.Int64
	reboots      atomic.Int64
}

// New builds an engine. Config.Source is required.
func New(cfg Config) (*Engine, error) {
	if cfg.Source == nil {
		return nil, errors.New("wgather: Config.Source is required")
	}
	if cfg.Sink == nil {
		cfg.Sink = NullSink{}
	}
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = DefaultMaxFileBytes
	}
	if cfg.MaxTotalBytes <= 0 {
		cfg.MaxTotalBytes = DefaultMaxTotalBytes
	}
	if cfg.Verifier == 0 {
		cfg.Verifier = uint64(time.Now().UnixNano()) | 1
	}
	e := &Engine{
		cfg:   cfg,
		files: make(map[uint64]*fileState),
		queue: make(chan flushEntry, 4096),
		stop:  make(chan struct{}),
	}
	e.verf.Store(cfg.Verifier)
	return e, nil
}

// Verifier returns the current write verifier (boot cookie).
func (e *Engine) Verifier() uint64 { return e.verf.Load() }

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	dirty := e.dirtyTotal
	e.mu.Unlock()
	return Stats{
		WritesUnstable: e.writes[Unstable].Load(),
		WritesDataSync: e.writes[DataSync].Load(),
		WritesFileSync: e.writes[FileSync].Load(),
		Commits:        e.commits.Load(),
		Flushes:        e.flushes.Load(),
		FlushedBytes:   e.flushedBytes.Load(),
		GatheredBytes:  e.gathered.Load(),
		CoalescedBytes: e.coalesced.Load(),
		DirtyBytes:     dirty,
		MaxDirtyBytes:  e.maxDirty.Load(),
		Reboots:        e.reboots.Load(),
	}
}

// file returns fh's state, creating it. Caller holds e.mu.
func (e *Engine) file(fh uint64) *fileState {
	f := e.files[fh]
	if f == nil {
		f = &fileState{}
		e.files[fh] = f
	}
	return f
}

// insert merges [off, end) into f's extent set (adjacent and
// overlapping ranges coalesce) and returns the net-new dirty bytes.
// Caller holds e.mu.
func (f *fileState) insert(off, end uint64) int64 {
	ext := f.extents
	// First extent that could touch [off, end): ext.end >= off (== is
	// adjacency, which also merges).
	i := sort.Search(len(ext), func(i int) bool { return ext[i].end >= off })
	// Last merge candidate: extents with ext.off <= end.
	j := i
	merged := extent{off: off, end: end}
	var overlap int64
	for j < len(ext) && ext[j].off <= end {
		if ext[j].off < merged.off {
			merged.off = ext[j].off
		}
		if ext[j].end > merged.end {
			merged.end = ext[j].end
		}
		// Overlap of the new range with this existing extent.
		lo, hi := ext[j].off, ext[j].end
		if off > lo {
			lo = off
		}
		if end < hi {
			hi = end
		}
		if hi > lo {
			overlap += int64(hi - lo)
		}
		j++
	}
	added := int64(end-off) - overlap
	if i == j {
		// No merge: splice the new extent in at i.
		ext = append(ext, extent{})
		copy(ext[i+1:], ext[i:])
		ext[i] = merged
	} else {
		ext[i] = merged
		ext = append(ext[:i+1], ext[j:]...)
	}
	f.extents = ext
	f.dirty += added
	return added
}

// takeOverlapping removes and returns the extents intersecting or
// adjacent to [off, end), updating dirty accounting. Caller holds e.mu.
func (e *Engine) takeOverlapping(f *fileState, off, end uint64) []extent {
	ext := f.extents
	i := sort.Search(len(ext), func(i int) bool { return ext[i].end >= off })
	j := i
	for j < len(ext) && ext[j].off <= end {
		j++
	}
	if i == j {
		return nil
	}
	taken := append([]extent(nil), ext[i:j]...)
	f.extents = append(ext[:i], ext[j:]...)
	for _, t := range taken {
		f.dirty -= int64(t.end - t.off)
		e.dirtyTotal -= int64(t.end - t.off)
	}
	return taken
}

// takeAll removes and returns every dirty extent of f. Caller holds e.mu.
func (e *Engine) takeAll(f *fileState) []extent {
	if len(f.extents) == 0 {
		return nil
	}
	taken := f.extents
	f.extents = nil
	e.dirtyTotal -= f.dirty
	f.dirty = 0
	return taken
}

// flushExtents reads each extent from the source and pushes it through
// the sink. Caller holds f.flushMu (never e.mu).
func (e *Engine) flushExtents(fh uint64, exts []extent) error {
	for _, x := range exts {
		for off := x.off; off < x.end; {
			n := x.end - off
			if n > flushChunk {
				n = flushChunk
			}
			data, err := e.cfg.Source(fh, off, uint32(n))
			if err != nil {
				return fmt.Errorf("wgather: source: %w", err)
			}
			if len(data) == 0 {
				// The page cache holds less than the dirty range claims
				// (a reboot raced the flush); nothing left to persist.
				break
			}
			if err := e.cfg.Sink.Flush(fh, off, data); err != nil {
				return fmt.Errorf("wgather: sink: %w", err)
			}
			e.flushes.Add(1)
			e.flushedBytes.Add(int64(len(data)))
			off += uint64(len(data))
		}
	}
	return nil
}

// Write records one completed page-cache write of n bytes at off and
// returns the stability level the reply should advertise. The data
// itself must already be applied to the store Config.Source reads —
// the engine tracks only the dirty range.
//
// UNSTABLE writes (with a nonzero Window) are deferred: the range joins
// the file's dirty extents and is flushed by COMMIT, by the gather
// window expiring, or by a byte bound. DATA_SYNC and FILE_SYNC writes —
// and every write when Window is 0 — are flushed before returning,
// together with any already-dirty extents they touch, and advertise
// FILE_SYNC (the server achieved more than DATA_SYNC asked for).
func (e *Engine) Write(fh, off uint64, n uint32, stable uint32) (committed uint32, err error) {
	if stable > FileSync {
		stable = FileSync
	}
	e.writes[stable].Add(1)
	end := off + uint64(n)

	if e.cfg.Window <= 0 || stable != Unstable {
		return FileSync, e.flushRange(fh, off, end)
	}

	e.mu.Lock()
	if e.closed {
		// The flusher is gone; deferring now would park data in a queue
		// nobody drains. Degrade to write-through, as Close documents.
		e.mu.Unlock()
		return FileSync, e.flushRange(fh, off, end)
	}
	e.gathered.Add(int64(n))
	f := e.file(fh)
	wasClean := f.dirty == 0
	added := f.insert(off, end)
	e.dirtyTotal += added
	e.coalesced.Add(int64(n) - added)
	for {
		cur := e.maxDirty.Load()
		if e.dirtyTotal <= cur || e.maxDirty.CompareAndSwap(cur, e.dirtyTotal) {
			break
		}
	}
	enqueue := wasClean && f.dirty > 0 && !f.queued
	if enqueue {
		f.queued = true
	}
	fileOver := f.dirty >= e.cfg.MaxFileBytes
	totalOver := e.dirtyTotal >= e.cfg.MaxTotalBytes
	e.mu.Unlock()

	if enqueue {
		e.startFlusher()
		select {
		case e.queue <- flushEntry{fh: fh, deadline: time.Now().Add(e.cfg.Window)}:
		default:
			// Queue full — memory pressure by another name; flush now.
			e.mu.Lock()
			f.queued = false
			e.mu.Unlock()
			return Unstable, e.flushFile(fh)
		}
	}
	if totalOver {
		return Unstable, e.FlushAll()
	}
	if fileOver {
		return Unstable, e.flushFile(fh)
	}
	return Unstable, nil
}

// Commit flushes every dirty extent of fh to the sink and returns the
// write verifier the reply must carry. A first background-flush error,
// if any, is reported here — COMMIT is where RFC 1813 surfaces
// asynchronous write failures.
func (e *Engine) Commit(fh uint64) (verf uint64, err error) {
	e.commits.Add(1)
	err = e.flushFile(fh)
	e.mu.Lock()
	if err == nil {
		err = e.asyncErr
	}
	e.mu.Unlock()
	return e.verf.Load(), err
}

// flushRange synchronously flushes [off, end) plus any dirty extents it
// touches (their union is one contiguous interval).
func (e *Engine) flushRange(fh, off, end uint64) error {
	e.mu.Lock()
	f := e.file(fh)
	e.mu.Unlock()
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	e.mu.Lock()
	taken := e.takeOverlapping(f, off, end)
	e.mu.Unlock()
	for _, t := range taken {
		if t.off < off {
			off = t.off
		}
		if t.end > end {
			end = t.end
		}
	}
	if end == off {
		return nil
	}
	return e.flushExtents(fh, []extent{{off: off, end: end}})
}

// flushFile flushes all of fh's dirty extents.
func (e *Engine) flushFile(fh uint64) error {
	e.mu.Lock()
	f := e.files[fh]
	e.mu.Unlock()
	if f == nil {
		return nil
	}
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	e.mu.Lock()
	taken := e.takeAll(f)
	e.mu.Unlock()
	if len(taken) == 0 {
		return nil
	}
	return e.flushExtents(fh, taken)
}

// FlushAll flushes every file's dirty extents (memory pressure, orderly
// shutdown).
func (e *Engine) FlushAll() error {
	e.mu.Lock()
	fhs := make([]uint64, 0, len(e.files))
	for fh, f := range e.files {
		if f.dirty > 0 {
			fhs = append(fhs, fh)
		}
	}
	e.mu.Unlock()
	var first error
	for _, fh := range fhs {
		if err := e.flushFile(fh); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startFlusher launches the background flusher on the first deferred
// write, so write-through engines never spawn a goroutine.
func (e *Engine) startFlusher() {
	e.flusher.Do(func() {
		e.wg.Add(1)
		go e.runFlusher()
	})
}

// runFlusher drains the deadline queue: entries arrive in deadline
// order (every file gets now+Window on its clean→dirty edge), so the
// head is always the next expiry.
func (e *Engine) runFlusher() {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case ent := <-e.queue:
			if d := time.Until(ent.deadline); d > 0 {
				select {
				case <-e.stop:
					return // Close flushes everything itself
				case <-time.After(d):
				}
			}
			e.mu.Lock()
			if f := e.files[ent.fh]; f != nil {
				f.queued = false
			}
			e.mu.Unlock()
			if err := e.flushFile(ent.fh); err != nil {
				e.mu.Lock()
				if e.asyncErr == nil {
					e.asyncErr = err
				}
				e.mu.Unlock()
			}
		}
	}
}

// Forget drops fh's dirty extents without flushing them — the file is
// being replaced or removed, so there is nothing left worth
// persisting. Without this, a flush racing the removal would read a
// stale handle from the Source and latch a permanent asynchronous
// error.
func (e *Engine) Forget(fh uint64) {
	e.mu.Lock()
	if f := e.files[fh]; f != nil {
		e.takeAll(f)
	}
	e.mu.Unlock()
}

// Reboot simulates a server crash and restart: every uncommitted dirty
// extent is dropped without reaching the sink and the write verifier
// changes, which is exactly the signal that tells clients to re-send
// writes issued since their last successful COMMIT (RFC 1813 §3.3.7).
func (e *Engine) Reboot() {
	e.mu.Lock()
	for _, f := range e.files {
		f.extents = nil
		f.dirty = 0
		f.queued = false
	}
	e.dirtyTotal = 0
	// A rebooted server has no memory of the old boot's flush failures;
	// keeping the sticky error would make every post-recovery COMMIT
	// fail and defeat the verifier-change rewrite protocol.
	e.asyncErr = nil
	e.mu.Unlock()
	e.verf.Add(verifierStep)
	e.reboots.Add(1)
}

// Close stops the background flusher and flushes all remaining dirty
// data. The engine is unusable afterwards for deferred writes (pending
// queue entries are dropped), but Write/Commit still work in
// write-through fashion.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	e.wg.Wait()
	err := e.FlushAll()
	e.mu.Lock()
	if err == nil {
		err = e.asyncErr
	}
	e.mu.Unlock()
	return err
}
