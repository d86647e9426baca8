package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
	"nfstricks/internal/zonefs"
)

// driveSeed seeds the zonefs drive model (rotational latency). It is
// server configuration, fixed across workload seeds.
const driveSeed = 1

// zonefsCacheBytes is the buffer cache of zonefs.Config's default.
const zonefsCacheBytes = 64 << 20

// workload is one named traffic mix.
type workload struct {
	name string
	// setup builds the backend, starts the server, connects the clients
	// and resolves every file handle over the wire.
	setup func(seed int64, traced bool) (instance, error)
	// bypass checks, by count, the layers this workload must leave idle.
	bypass func(p *pass) []error
}

// instance is one set-up workload: a live stack and its clients.
type instance interface {
	stack() *stack
	// run drives the clients until stop and returns once every call has
	// completed, with one recorder per issuing or waiting goroutine.
	run(stop time.Time, tr *tracer) []*recorder
	// issued counts the calls sent over the wire so far, set-up included.
	issued() [nprocs]int64
	// verify runs the checks that need the clients stopped.
	verify() error
	// inputs reports the working set in bytes and the active handles.
	inputs() (workingSet int64, handles int)
	close()
}

var workloads = []workload{
	{name: "small-ops", setup: setupSmallOps, bypass: func(p *pass) []error {
		// memfs has no disk, so zonefs's disk counters cannot move here;
		// the spans are the server's own account.
		return expectZero(map[string]float64{
			"disk stage time":     p.spans.stages[obs.StageDisk],
			"wgather flushes":     float64(p.d.write.Flushes),
			"wgather gather time": p.spans.stages[obs.StageGather],
		})
	}},
	{name: "seq-read", setup: setupSeqRead, bypass: func(p *pass) []error {
		// seq-read issues no WRITE or COMMIT; ProcCounts pins that.
		return expectZero(map[string]float64{
			"wgather flushes":     float64(p.d.write.Flushes),
			"wgather gather time": p.spans.stages[obs.StageGather],
		})
	}},
	{name: "write-commit", setup: setupWriteCommit, bypass: func(p *pass) []error {
		return expectZero(map[string]float64{
			"nfsheur lookups": float64(p.d.heur.Hits + p.d.heur.Misses),
		})
	}},
}

// expectZero fails each named count that is not zero. Stage times are
// summed from spans and read zero on an untraced pass.
func expectZero(counts map[string]float64) []error {
	var errs []error
	for name, n := range counts {
		if n != 0 {
			errs = append(errs, fmt.Errorf("bypass: %s = %g, want 0", name, n))
		}
	}
	return errs
}

// rpcInstance is a workload driven through rpcnet connections.
type rpcInstance struct {
	st      *stack
	conns   []*conn
	ws      int64
	handles int
}

func (in *rpcInstance) stack() *stack { return in.st }

func (in *rpcInstance) inputs() (int64, int) { return in.ws, in.handles }

func (in *rpcInstance) verify() error { return nil }

func (in *rpcInstance) run(stop time.Time, tr *tracer) []*recorder {
	var all []*recorder
	var wg sync.WaitGroup
	for _, c := range in.conns {
		recs := newRecorders(c.window, c.tcp)
		all = append(all, recs...)
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.run(stop, recs, tr)
		}(c)
	}
	wg.Wait()
	return all
}

func (in *rpcInstance) issued() [nprocs]int64 {
	out := in.st.primed
	for _, c := range in.conns {
		for p, n := range c.issued {
			out[p] += n
		}
	}
	return out
}

func (in *rpcInstance) close() {
	for _, c := range in.conns {
		c.rc.Close()
	}
	in.st.close()
}

// lookupAll resolves every name over the wire with LOOKUP and checks
// the handle against the one the backend returned at population.
func lookupAll(st *stack, c *conn, dirs []nfsproto.FH, names []string, fhs []nfsproto.FH) error {
	for i, name := range names {
		a := nfsproto.LookupArgs{Dir: dirs[i], Name: name}
		body, err := c.rc.Call(nfsproto.ProcLookup, a.Marshal())
		st.primed[nfsproto.ProcLookup]++
		if err != nil {
			return fmt.Errorf("prime lookup %s: %w", name, err)
		}
		res, err := nfsproto.UnmarshalLookupRes(body)
		if err != nil || res.Status != nfsproto.OK || res.FH != fhs[i] {
			return fmt.Errorf("prime lookup %s: bad reply (err %v)", name, err)
		}
	}
	return nil
}

// small-ops: 1000 × 64 KB files in 10 directories on memfs, one TCP and
// one UDP connection with 8 calls outstanding each, a metadata-heavy
// mix.
const (
	smallFiles     = 1000
	smallDirs      = 10
	smallFileBytes = 64 << 10
	smallReadBytes = 4 << 10
	smallWindow    = 8
	// smallNames is how many scratch files each connection holds, so a
	// REMOVE always names a file created long before.
	smallNames = 16
	nsRingSize = 64
)

// smallData is the population small-ops generators share (read-only).
type smallData struct {
	seed     int64
	dirFH    []nfsproto.FH
	dirOf    []nfsproto.FH // per file
	fhs      []nfsproto.FH
	names    []string
	dirFiles int
}

func setupSmallOps(seed int64, traced bool) (instance, error) {
	fs := memfs.NewFS()
	d := &smallData{seed: seed, dirFiles: smallFiles / smallDirs}
	for i := 0; i < smallDirs; i++ {
		fh, err := fs.Mkdir(vfs.RootFH, fmt.Sprintf("d%d", i))
		if err != nil {
			return nil, err
		}
		d.dirFH = append(d.dirFH, fh)
	}
	buf := make([]byte, smallFileBytes)
	for i := 0; i < smallFiles; i++ {
		newPattern(seed, i, 0).fill(buf, 0)
		dir := d.dirFH[i/d.dirFiles]
		name := fmt.Sprintf("f%04d", i)
		fh, err := fs.Create(dir, name, buf)
		if err != nil {
			return nil, err
		}
		d.dirOf = append(d.dirOf, dir)
		d.fhs = append(d.fhs, fh)
		d.names = append(d.names, name)
	}
	st, err := startStack(fs, wgather.Config{}, traced)
	if err != nil {
		return nil, err
	}
	in := &rpcInstance{st: st, ws: smallFiles * smallFileBytes, handles: smallFiles}
	for i, network := range []string{"tcp", "udp"} {
		g := &smallOps{d: d, rng: rand.New(rand.NewSource(seed*2 + int64(i)))}
		if err := g.initScratch(fs, i); err != nil {
			in.close()
			return nil, err
		}
		c, err := dialConn(st, network, smallWindow, g)
		if err != nil {
			in.close()
			return nil, err
		}
		in.conns = append(in.conns, c)
	}
	if err := lookupAll(st, in.conns[0], d.dirOf, d.names, d.fhs); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// smallOps generates one connection's small-ops calls. The argument
// structs are reused call to call, so issuing allocates nothing here.
type smallOps struct {
	d       *smallData
	rng     *rand.Rand
	scratch nfsproto.FH
	prefix  string
	// Namespace churn alternates CREATE and REMOVE in the scratch
	// directory. A CREATE takes ring slot tail, a REMOVE slot head; the
	// waiter of a CREATE marks its slot created (1) or failed (2).
	nsNames       [nsRingSize]string
	nsState       [nsRingSize]atomic.Int32
	head, tail    int
	nsOps, nsSeq  int
	getattr       nfsproto.GetattrArgs
	lookup        nfsproto.LookupArgs
	access        nfsproto.AccessArgs
	read          nfsproto.ReadArgs
	readdirplus   nfsproto.ReaddirplusArgs
	create        nfsproto.CreateArgs
	remove        nfsproto.RemoveArgs
	accessRequest uint32
}

// initScratch makes the connection's scratch directory holding its
// first smallNames files, created through the backend.
func (g *smallOps) initScratch(fs *memfs.FS, conn int) error {
	dir, err := fs.Mkdir(vfs.RootFH, fmt.Sprintf("scratch%d", conn))
	if err != nil {
		return err
	}
	g.scratch = dir
	g.prefix = fmt.Sprintf("n%d-", conn)
	for ; g.tail < smallNames; g.tail++ {
		name := g.newName()
		if _, err := fs.CreateSized(dir, name, 0); err != nil {
			return err
		}
		g.nsNames[g.tail] = name
		g.nsState[g.tail].Store(1)
	}
	g.accessRequest = nfsproto.AccessRead | nfsproto.AccessModify | nfsproto.AccessExecute
	return nil
}

func (g *smallOps) newName() string {
	g.nsSeq++
	return fmt.Sprintf("%s%d", g.prefix, g.nsSeq)
}

func (g *smallOps) next(c *call) args {
	c.idx = g.rng.Intn(smallFiles)
	c.fh = g.d.fhs[c.idx]
	switch u := g.rng.Intn(100); {
	case u < 35:
		c.proc = nfsproto.ProcGetattr
		g.getattr.FH = c.fh
		return &g.getattr
	case u < 60:
		c.proc = nfsproto.ProcLookup
		g.lookup.Dir, g.lookup.Name = g.d.dirOf[c.idx], g.d.names[c.idx]
		return &g.lookup
	case u < 70:
		c.proc = nfsproto.ProcAccess
		g.access.FH, g.access.Access = c.fh, g.accessRequest
		return &g.access
	case u < 90:
		c.proc = nfsproto.ProcRead
		c.off = uint64(g.rng.Intn((smallFileBytes-smallReadBytes)/8+1)) * 8
		g.read = nfsproto.ReadArgs{FH: c.fh, Offset: c.off, Count: smallReadBytes}
		return &g.read
	case u < 96:
		c.proc = nfsproto.ProcReaddirplus
		c.idx = g.rng.Intn(smallDirs)
		g.readdirplus = nfsproto.ReaddirplusArgs{Dir: g.d.dirFH[c.idx],
			DirCount: nfsproto.MaxData, MaxCount: nfsproto.MaxData}
		return &g.readdirplus
	}
	g.nsOps++
	if g.nsOps%2 == 1 {
		c.proc = nfsproto.ProcCreate
		c.idx = g.tail % nsRingSize
		g.tail++
		g.nsNames[c.idx] = g.newName()
		g.nsState[c.idx].Store(0)
		g.create = nfsproto.CreateArgs{Dir: g.scratch, Name: g.nsNames[c.idx]}
		return &g.create
	}
	c.proc = nfsproto.ProcRemove
	c.idx = g.head % nsRingSize
	g.head++
	// The slot was created smallNames namespace calls ago; its reply
	// has long arrived, but the wait makes the rule hold by
	// construction.
	for g.nsState[c.idx].Load() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	g.remove = nfsproto.RemoveArgs{Dir: g.scratch, Name: g.nsNames[c.idx]}
	return &g.remove
}

func (g *smallOps) check(c *call, body []byte, err error, tr *tracer) (int, error) {
	if err != nil {
		if c.proc == nfsproto.ProcCreate {
			g.nsState[c.idx].Store(2)
		}
		return 0, fmt.Errorf("%s: %w", nfsproto.ProcName(c.proc), err)
	}
	switch c.proc {
	case nfsproto.ProcGetattr:
		t := tr.start()
		res, err := nfsproto.UnmarshalGetattrRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || res.Attrs.FileID != uint64(c.fh) ||
			res.Attrs.Size != smallFileBytes || res.Attrs.Type != nfsproto.TypeReg {
			return 0, fmt.Errorf("GETATTR %d: bad reply (err %v)", c.fh, err)
		}
	case nfsproto.ProcLookup:
		t := tr.start()
		res, err := nfsproto.UnmarshalLookupRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || res.FH != c.fh {
			return 0, fmt.Errorf("LOOKUP %s: bad reply (err %v)", g.d.names[c.idx], err)
		}
	case nfsproto.ProcAccess:
		t := tr.start()
		res, err := nfsproto.UnmarshalAccessRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || res.Access != nfsproto.AccessRead|nfsproto.AccessModify {
			return 0, fmt.Errorf("ACCESS %d: bad reply (err %v)", c.fh, err)
		}
	case nfsproto.ProcRead:
		t := tr.start()
		res, err := nfsproto.UnmarshalReadRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || res.Count != smallReadBytes ||
			!newPattern(g.d.seed, c.idx, 0).matches(res.Data, c.off) {
			return 0, fmt.Errorf("READ %d@%d: bad reply (err %v)", c.fh, c.off, err)
		}
		return len(res.Data), nil
	case nfsproto.ProcReaddirplus:
		t := tr.start()
		res, err := nfsproto.UnmarshalReaddirplusRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || !res.EOF || len(res.Entries) != g.d.dirFiles {
			return 0, fmt.Errorf("READDIRPLUS d%d: bad reply (err %v)", c.idx, err)
		}
		first := c.idx * g.d.dirFiles
		for k, e := range res.Entries {
			if e.FH != g.d.fhs[first+k] || e.Name != g.d.names[first+k] {
				return 0, fmt.Errorf("READDIRPLUS d%d: entry %d is %q", c.idx, k, e.Name)
			}
		}
	case nfsproto.ProcCreate:
		t := tr.start()
		res, err := nfsproto.UnmarshalCreateRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK || res.FH == 0 {
			g.nsState[c.idx].Store(2)
			return 0, fmt.Errorf("CREATE: bad reply (err %v)", err)
		}
		g.nsState[c.idx].Store(1)
	case nfsproto.ProcRemove:
		t := tr.start()
		res, err := nfsproto.UnmarshalRemoveRes(body)
		tr.decoded(t)
		if err != nil || res.Status != nfsproto.OK {
			return 0, fmt.Errorf("REMOVE: bad reply (err %v)", err)
		}
	}
	return 0, nil
}

// seq-read: 16 × 8 MB files on zonefs, each read as one sequential
// stream that wraps around; two TCP connections carry 8 streams each.
const (
	seqFiles     = 16
	seqFileBytes = 8 << 20
	seqReadBytes = 32 << 10
	seqConns     = 2
	seqWindow    = 8
)

func setupSeqRead(seed int64, traced bool) (instance, error) {
	zfs := zonefs.New(zonefs.Config{Seed: driveSeed})
	buf := make([]byte, seqFileBytes)
	var fhs []nfsproto.FH
	var names []string
	for i := 0; i < seqFiles; i++ {
		newPattern(seed, i, 0).fill(buf, 0)
		name := fmt.Sprintf("s%02d", i)
		fh, err := zfs.Create(vfs.RootFH, name, buf)
		if err != nil {
			return nil, err
		}
		fhs = append(fhs, fh)
		names = append(names, name)
	}
	st, err := startStack(zfs, wgather.Config{}, traced)
	if err != nil {
		return nil, err
	}
	in := &rpcInstance{st: st, ws: seqFiles * seqFileBytes, handles: seqFiles}
	rng := rand.New(rand.NewSource(seed))
	per := seqFiles / seqConns
	for i := 0; i < seqConns; i++ {
		g := &seqReads{seed: seed, rng: rand.New(rand.NewSource(rng.Int63()))}
		for f := i * per; f < (i+1)*per; f++ {
			start := uint64(rng.Intn(seqFileBytes/seqReadBytes)) * seqReadBytes
			g.streams = append(g.streams, stream{file: f, fh: fhs[f], next: start})
		}
		c, err := dialConn(st, "tcp", seqWindow, g)
		if err != nil {
			in.close()
			return nil, err
		}
		in.conns = append(in.conns, c)
	}
	roots := make([]nfsproto.FH, seqFiles)
	for i := range roots {
		roots[i] = vfs.RootFH
	}
	if err := lookupAll(st, in.conns[0], roots, names, fhs); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

type stream struct {
	file int
	fh   nfsproto.FH
	next uint64
}

// seqReads picks one of its streams at random for every READ, so a
// stream often has several READs in flight and they may be served out
// of order, as with a client's read-ahead daemons.
type seqReads struct {
	seed    int64
	rng     *rand.Rand
	streams []stream
	read    nfsproto.ReadArgs
}

func (g *seqReads) next(c *call) args {
	s := &g.streams[g.rng.Intn(len(g.streams))]
	c.proc, c.fh, c.off, c.idx = nfsproto.ProcRead, s.fh, s.next, s.file
	s.next = (s.next + seqReadBytes) % seqFileBytes
	g.read = nfsproto.ReadArgs{FH: c.fh, Offset: c.off, Count: seqReadBytes}
	return &g.read
}

func (g *seqReads) check(c *call, body []byte, err error, tr *tracer) (int, error) {
	if err != nil {
		return 0, fmt.Errorf("READ %d@%d: %w", c.fh, c.off, err)
	}
	t := tr.start()
	res, err := nfsproto.UnmarshalReadRes(body)
	tr.decoded(t)
	if err != nil || res.Status != nfsproto.OK || res.Count != seqReadBytes ||
		res.EOF != (c.off+seqReadBytes == seqFileBytes) ||
		!newPattern(g.seed, c.idx, 0).matches(res.Data, c.off) {
		return 0, fmt.Errorf("READ %d@%d: bad reply (err %v)", c.fh, c.off, err)
	}
	return len(res.Data), nil
}

// write-commit: 8 × 1 MB files on zonefs with an 8 ms gather window,
// rewritten through memfs write-behind pipelines (32 KB UNSTABLE
// writes, 8 in flight) and committed after every pass, over two TCP
// connections.
const (
	wcFiles       = 8
	wcFileBytes   = 1 << 20
	wcWriteBytes  = 32 << 10
	wcConns       = 2
	wcWindow      = 8
	wcGatherDelay = 8 * time.Millisecond
)

// wcFile is one rewritten file and the generation last committed.
type wcFile struct {
	idx int
	fh  nfsproto.FH
	wb  *memfs.WriteBehind
	gen int
}

type wcConn struct {
	c      *memfs.Client
	files  []*wcFile
	next   int
	buf    []byte
	writes int64
	commit int64
}

type writeCommit struct {
	st    *stack
	seed  int64
	conns []*wcConn
}

func setupWriteCommit(seed int64, traced bool) (instance, error) {
	zfs := zonefs.New(zonefs.Config{Seed: driveSeed})
	buf := make([]byte, wcFileBytes)
	var files []*wcFile
	for i := 0; i < wcFiles; i++ {
		newPattern(seed, i, 0).fill(buf, 0)
		fh, err := zfs.Create(vfs.RootFH, fmt.Sprintf("w%d", i), buf)
		if err != nil {
			return nil, err
		}
		files = append(files, &wcFile{idx: i, fh: fh})
	}
	st, err := startStack(zfs, wgather.Config{Window: wcGatherDelay}, traced)
	if err != nil {
		return nil, err
	}
	in := &writeCommit{st: st, seed: seed}
	for i := 0; i < wcConns; i++ {
		c, err := memfs.DialClient("tcp", st.srv.Addr())
		if err != nil {
			in.close()
			return nil, err
		}
		in.conns = append(in.conns, &wcConn{c: c, buf: make([]byte, wcWriteBytes)})
	}
	// Each connection owns a contiguous half of the files, so the two
	// writers' flushes always alternate between distant extents. With
	// interleaved ownership the disk streams from one writer's file into
	// the other's neighbouring one, or repositions before every flush,
	// by the phase of the first commits: a 12% swing between runs.
	for _, f := range files {
		wc := in.conns[f.idx*wcConns/wcFiles]
		fh, _, err := wc.c.Lookup(vfs.RootFH, fmt.Sprintf("w%d", f.idx))
		st.primed[nfsproto.ProcLookup]++
		if err != nil || fh != f.fh {
			in.close()
			return nil, fmt.Errorf("prime lookup w%d: handle %d, err %v", f.idx, fh, err)
		}
		f.wb = wc.c.NewWriteBehind(fh, wcWindow)
		wc.files = append(wc.files, f)
	}
	return in, nil
}

func (in *writeCommit) stack() *stack { return in.st }

func (in *writeCommit) inputs() (int64, int) { return wcFiles * wcFileBytes, wcFiles }

func (in *writeCommit) issued() [nprocs]int64 {
	out := in.st.primed
	for _, wc := range in.conns {
		out[nfsproto.ProcWrite] += wc.writes
		out[nfsproto.ProcCommit] += wc.commit
	}
	return out
}

func (in *writeCommit) close() {
	for _, wc := range in.conns {
		wc.c.Close()
	}
	in.st.close()
}

func (in *writeCommit) run(stop time.Time, tr *tracer) []*recorder {
	recs := newRecorders(len(in.conns), true)
	var wg sync.WaitGroup
	for i, wc := range in.conns {
		wg.Add(1)
		go func(wc *wcConn, rec *recorder) {
			defer wg.Done()
			for time.Now().Before(stop) {
				wc.pass(in.seed, rec, tr)
			}
		}(wc, recs[i])
	}
	wg.Wait()
	return recs
}

// pass rewrites the connection's next file with a new generation and
// commits it. WriteBehind settles replies oldest first, inside the
// Write that finds its window full, so a write's latency sample runs
// from its issue to the end of the Write call that settled it; the last
// window of writes settles in Flush and is sampled up to its end. The
// commit time is what a caller of Commit waits: Flush plus the COMMIT.
func (wc *wcConn) pass(seed int64, rec *recorder, tr *tracer) {
	f := wc.files[wc.next]
	wc.next = (wc.next + 1) % len(wc.files)
	gen := f.gen + 1
	p := newPattern(seed, f.idx, gen)
	var issuedAt [wcWindow]time.Time
	sample := func(i int, end time.Time) {
		rec.done(nfsproto.ProcWrite, end.Sub(issuedAt[i%wcWindow]), wcWriteBytes, nil)
		if tr != nil {
			tr.rtt[1].add(end.Sub(issuedAt[i%wcWindow]))
		}
	}
	n := 0
	for off := 0; off < wcFileBytes; off += wcWriteBytes {
		p.fill(wc.buf, uint64(off))
		t0 := time.Now()
		err := f.wb.Write(uint64(off), wc.buf)
		t1 := time.Now()
		if err != nil {
			rec.fail(fmt.Errorf("WRITE w%d@%d: %w", f.idx, off, err))
			return
		}
		if n >= wcWindow {
			sample(n-wcWindow, t1)
			if tr != nil {
				tr.wait.add(t1.Sub(t0))
			}
		}
		issuedAt[n%wcWindow] = t1
		wc.writes++
		n++
	}
	t0 := time.Now()
	err := f.wb.Flush()
	t1 := time.Now()
	if err != nil {
		rec.fail(fmt.Errorf("WRITE w%d: %w", f.idx, err))
		return
	}
	if tr != nil {
		tr.wait.add(t1.Sub(t0))
	}
	for i := max(0, n-wcWindow); i < n; i++ {
		sample(i, t1)
	}
	_, err = f.wb.Commit()
	t2 := time.Now()
	wc.commit++
	if err != nil {
		rec.fail(fmt.Errorf("COMMIT w%d: %w", f.idx, err))
		return
	}
	if f.wb.Retained() != 0 {
		rec.fail(fmt.Errorf("COMMIT w%d: %d writes still retained", f.idx, f.wb.Retained()))
		return
	}
	rec.done(nfsproto.ProcCommit, t2.Sub(t1), 0, nil)
	rec.commits = append(rec.commits, float64(t2.Sub(t0)))
	if tr != nil {
		tr.rtt[1].add(t2.Sub(t1))
	}
	f.gen = gen
}

// verify reads every file back through the backend and compares it
// with the generation last committed.
func (in *writeCommit) verify() error {
	for _, wc := range in.conns {
		for _, f := range wc.files {
			p := newPattern(in.seed, f.idx, f.gen)
			for off := uint64(0); off < wcFileBytes; off += wcWriteBytes {
				data, size, _, err := in.st.backend.ReadAt(f.fh, off, wcWriteBytes, 0)
				if err != nil || size != wcFileBytes || !p.matches(data, off) {
					return fmt.Errorf("read-back w%d@%d (generation %d): mismatch (err %v)", f.idx, off, f.gen, err)
				}
			}
		}
	}
	return nil
}
