package main

import (
	"sync"
	"sync/atomic"
	"time"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
	"nfstricks/internal/zonefs"
)

// nprocs sizes per-procedure arrays (COMMIT is the highest procedure
// the server serves).
const nprocs = nfsproto.ProcCommit + 1

// callTimeout bounds every reply wait; a call that exceeds it counts as
// failed and timed out.
const callTimeout = 5 * time.Second

// stack is one live server on a loopback port: a vfs backend behind
// nfsd behind rpcnet, plus perfbench's instruments on a traced pass.
type stack struct {
	backend vfs.Backend // the raw backend, for read-back and counters
	zfs     *zonefs.FS  // nil on memfs
	svc     *nfsd.Service
	srv     *rpcnet.Server
	tr      *tracer // nil on an untraced pass
	// primed counts the calls set-up made over the wire, by procedure.
	primed [nprocs]int64
}

// startStack mounts b behind the shipped nfsd configuration (the zero
// Config plus the given gather settings) and serves it on loopback. A
// traced stack also turns on the program's spans and registry and wraps
// the backend, the handler and the gather sink in perfbench's timers.
func startStack(b vfs.Backend, gather wgather.Config, traced bool) (*stack, error) {
	st := &stack{backend: b}
	st.zfs, _ = b.(*zonefs.FS)
	cfg := nfsd.Config{Gather: gather}
	mounted := b
	if traced {
		st.tr = &tracer{reg: obs.NewRegistry()}
		cfg.Obs = st.tr.reg
		cfg.Gather.Sink = flushObserver{st.tr}
		mounted = st.tr.wrapBackend(b)
	}
	st.svc = nfsd.New(mounted, cfg)
	handler := st.svc.InfoHandler()
	var opts rpcnet.ServerOptions
	if traced {
		handler = st.tr.wrapHandler(handler)
		opts.Spans = st.svc.SpanTable()
		opts.Tap = st.tr.tap
	}
	srv, err := rpcnet.NewServerInfo("127.0.0.1:0", nfsproto.Program, nfsproto.Version3, handler, opts)
	if err != nil {
		st.svc.Close()
		return nil, err
	}
	st.srv = srv
	return st, nil
}

func (st *stack) close() {
	st.srv.Close()
	st.svc.Close()
}

// timer accumulates a count and a total duration; safe for concurrent
// use.
type timer struct {
	n, ns atomic.Int64
}

func (t *timer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// mean returns the mean duration in the given unit (0 with no samples).
func (t *timer) mean(unit time.Duration) float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n) / float64(unit)
}

// vfs operations the timing backend reports.
const (
	vfsRead = iota
	vfsWrite
	vfsCommit
	vfsGetattr
	vfsLookup
	vfsReaddir
	nvfs
)

// tracer holds a traced pass's instruments: the program's registry
// (spans, flush histogram) and perfbench's own timers around the
// public calls into each layer.
type tracer struct {
	reg     *obs.Registry
	handler [nprocs]timer // nfsd InfoHandler time by procedure
	vfs     [nvfs]timer   // backend calls
	encode  timer         // client nfsproto argument marshalling
	decode  timer         // client nfsproto reply unmarshalling
	wait    timer         // issuer blocked with its window full
	rtt     [2]timer      // client round trip, [0] UDP and [1] TCP
	// flushes and flushBytes count what the observer gather sink saw.
	flushes, flushBytes atomic.Int64
	// msgs and msgBytes count served calls and their argument plus
	// result bytes, as the server's capture tap sees them.
	msgs, msgBytes atomic.Int64
}

// reset zeroes perfbench's instruments (the program's own are
// cumulative and are diffed instead).
func (tr *tracer) reset() {
	timers := []*timer{&tr.encode, &tr.decode, &tr.wait, &tr.rtt[0], &tr.rtt[1]}
	for i := range tr.handler {
		timers = append(timers, &tr.handler[i])
	}
	for i := range tr.vfs {
		timers = append(timers, &tr.vfs[i])
	}
	for _, t := range timers {
		t.n.Store(0)
		t.ns.Store(0)
	}
	for _, c := range []*atomic.Int64{&tr.flushes, &tr.flushBytes, &tr.msgs, &tr.msgBytes} {
		c.Store(0)
	}
}

// start and decoded time a client reply decode; both are no-ops on an
// untraced pass.
func (tr *tracer) start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (tr *tracer) decoded(t time.Time) {
	if tr != nil {
		tr.decode.add(time.Since(t))
	}
}

// tap counts the bytes of every served call.
func (tr *tracer) tap(ev rpcnet.TapEvent) {
	tr.msgs.Add(1)
	tr.msgBytes.Add(int64(len(ev.Body) + len(ev.Result)))
}

// wrapHandler times the nfsd handler per procedure.
func (tr *tracer) wrapHandler(h rpcnet.InfoHandler) rpcnet.InfoHandler {
	return func(info rpcnet.CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
		start := time.Now()
		out, stat := h(info, proc, body, reply)
		if proc < nprocs {
			tr.handler[proc].add(time.Since(start))
		}
		return out, stat
	}
}

// flushObserver is the gather sink perfbench supplies on a traced
// pass: nfsd calls it for every flush, before the backend's Commit.
type flushObserver struct{ tr *tracer }

func (f flushObserver) Flush(_ uint64, _ uint64, data []byte) error {
	f.tr.flushes.Add(1)
	f.tr.flushBytes.Add(int64(len(data)))
	return nil
}

// wrapBackend returns b behind the timing wrapper. The wrapper offers
// vfs.SpanReader exactly when b does, so nfsd takes the same read path
// with and without it.
func (tr *tracer) wrapBackend(b vfs.Backend) vfs.Backend {
	tb := &timedBackend{Backend: b, tr: tr}
	if sr, ok := b.(vfs.SpanReader); ok {
		return timedSpanBackend{tb, sr}
	}
	return tb
}

// timedBackend times the data and lookup calls of a vfs.Backend and
// forwards everything else.
type timedBackend struct {
	vfs.Backend
	tr *tracer
}

func (b *timedBackend) ReadAt(fh nfsproto.FH, off uint64, count uint32, ahead int) ([]byte, uint64, bool, error) {
	start := time.Now()
	data, size, eof, err := b.Backend.ReadAt(fh, off, count, ahead)
	b.tr.vfs[vfsRead].add(time.Since(start))
	return data, size, eof, err
}

func (b *timedBackend) WriteAt(fh nfsproto.FH, off uint64, data []byte) error {
	start := time.Now()
	err := b.Backend.WriteAt(fh, off, data)
	b.tr.vfs[vfsWrite].add(time.Since(start))
	return err
}

func (b *timedBackend) Commit(fh nfsproto.FH, off uint64, count uint32) error {
	start := time.Now()
	err := b.Backend.Commit(fh, off, count)
	b.tr.vfs[vfsCommit].add(time.Since(start))
	return err
}

func (b *timedBackend) Getattr(fh nfsproto.FH) (vfs.Attr, bool) {
	start := time.Now()
	a, ok := b.Backend.Getattr(fh)
	b.tr.vfs[vfsGetattr].add(time.Since(start))
	return a, ok
}

func (b *timedBackend) Lookup(dir nfsproto.FH, name string) (nfsproto.FH, vfs.Attr, error) {
	start := time.Now()
	fh, a, err := b.Backend.Lookup(dir, name)
	b.tr.vfs[vfsLookup].add(time.Since(start))
	return fh, a, err
}

func (b *timedBackend) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (vfs.ReaddirPage, error) {
	start := time.Now()
	page, err := b.Backend.Readdir(dir, cookie, cookieverf, maxEntries)
	b.tr.vfs[vfsReaddir].add(time.Since(start))
	return page, err
}

// CreateSized forwards vfs.SizedCreator, falling back to a zero-filled
// Create exactly as nfsd does for a backend without it.
func (b *timedBackend) CreateSized(dir nfsproto.FH, name string, size uint64) (nfsproto.FH, error) {
	if sc, ok := b.Backend.(vfs.SizedCreator); ok {
		return sc.CreateSized(dir, name, size)
	}
	return b.Backend.Create(dir, name, make([]byte, size))
}

// timedSpanBackend is timedBackend over a backend that attributes its
// own stage costs (vfs.SpanReader).
type timedSpanBackend struct {
	*timedBackend
	sr vfs.SpanReader
}

func (b timedSpanBackend) ReadAtSpan(fh nfsproto.FH, off uint64, count uint32, ahead int, sp *obs.Span) ([]byte, uint64, bool, error) {
	start := time.Now()
	data, size, eof, err := b.sr.ReadAtSpan(fh, off, count, ahead, sp)
	b.tr.vfs[vfsRead].add(time.Since(start))
	return data, size, eof, err
}

// call is one RPC in flight on a conn.
type call struct {
	p     *rpcnet.Pending
	proc  uint32
	start time.Time
	fh    nfsproto.FH
	off   uint64
	idx   int // workload-specific: file, directory or name slot
}

// args is an nfsproto argument message.
type args interface{ AppendTo([]byte) []byte }

// generator produces one connection's calls and checks their replies.
// next runs on the issuing goroutine only; check runs on the waiter
// goroutines concurrently, is handed the reply or the error that ended
// the wait, and returns the payload bytes the call moved.
type generator interface {
	next(c *call) args
	check(c *call, body []byte, err error, tr *tracer) (int, error)
}

// conn is one client connection driven closed-loop: a single issuing
// goroutine keeps at most window calls outstanding (a client's RPC slot
// table), and one waiter goroutine per slot collects replies in
// whatever order they arrive.
type conn struct {
	rc     *rpcnet.Client
	tcp    bool
	window int
	gen    generator
	issued [nprocs]int64
}

func dialConn(st *stack, network string, window int, gen generator) (*conn, error) {
	rc, err := rpcnet.Dial(network, st.srv.Addr(), nfsproto.Program, nfsproto.Version3)
	if err != nil {
		return nil, err
	}
	return &conn{rc: rc, tcp: network == "tcp", window: window, gen: gen}, nil
}

// run issues calls until stop, then waits for every outstanding reply.
// recs must hold one recorder per window slot.
func (c *conn) run(stop time.Time, recs []*recorder, tr *tracer) {
	slots := make(chan struct{}, c.window)
	// Sized to the window: the issuer never holds more than window calls.
	work := make(chan call, c.window)
	var wg sync.WaitGroup
	for _, rec := range recs[:c.window] {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for cl := range work {
				body, err := cl.p.Wait(callTimeout)
				lat := time.Since(cl.start)
				n, err := c.gen.check(&cl, body, err, tr)
				rec.done(cl.proc, lat, n, err)
				if tr != nil {
					tr.rtt[b2i(c.tcp)].add(lat)
				}
				<-slots
			}
		}(rec)
	}
	var buf []byte
	for time.Now().Before(stop) {
		if tr != nil {
			t := time.Now()
			slots <- struct{}{}
			tr.wait.add(time.Since(t))
		} else {
			slots <- struct{}{}
		}
		cl := call{start: time.Now()}
		a := c.gen.next(&cl)
		if tr != nil {
			t := time.Now()
			buf = a.AppendTo(buf[:0])
			tr.encode.add(time.Since(t))
		} else {
			buf = a.AppendTo(buf[:0])
		}
		cl.p = c.rc.Go(cl.proc, buf)
		c.issued[cl.proc]++
		work <- cl
	}
	close(work)
	wg.Wait()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
