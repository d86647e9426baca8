// Command perfbench is the repository benchmark: it starts the live NFS
// stack (rpcnet → nfsd → vfs backend) on loopback inside this process,
// drives one named workload closed-loop for a fixed time, checks every
// reply, and prints the end-to-end metrics (untraced pass) or the
// per-layer metrics (untraced pass plus a traced pass). See README.md.
//
//	go run . --workload small-ops --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"nfstricks/internal/bench"
	"nfstricks/internal/buffercache"
	"nfstricks/internal/disk"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/stats"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/wgather"
	"nfstricks/internal/zonefs"
)

// warmup is how long each pass drives its workload, unrecorded, before
// the timed window: pools fill, the GC paces itself and read-ahead
// state ramps up.
const warmup = time.Second

// setupRuns is how many times an untraced end-to-end pass sets its
// workload up; setup_s is the median.
const setupRuns = 9

func main() {
	name := flag.String("workload", "", "workload: small-ops, seq-read or write-commit")
	seed := flag.Int64("seed", 1, "workload seed (file contents, offsets, operation mix)")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (adds a traced pass)")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload small-ops|seq-read|write-commit --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	env := bench.CollectEnvMeta()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("env: go=%s GOMAXPROCS=%d NumCPU=%d rev=%q dirty=%v zonefs drive seed=%d\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.GitRev, env.GitDirty, driveSeed)

	window := time.Duration(*seconds) * time.Second
	setups := setupRuns
	if *trace == 1 {
		setups = 1
	}
	plain, err := runPass(w, *seed, window, false, setups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	plain.report()
	passes := []*pass{plain}
	var metrics []metric
	if *trace == 0 {
		metrics = endToEnd(plain)
	} else {
		traced, err := runPass(w, *seed, window, true, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		traced.report()
		passes = append(passes, traced)
		metrics = perLayer(plain, traced)
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	fmt.Println("metrics:")
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.4f %-7s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, p := range passes {
		out.Attempted += p.t.completed + p.t.failed
		out.Failed += p.t.failed
		for _, e := range p.errs {
			fmt.Printf("FAIL (%s pass): %v\n", p.label(), e)
			out.Correct = false
		}
	}
	if !out.Correct && out.Failed == 0 {
		// A failed check beyond the calls themselves (read-back,
		// ProcCounts, bypass) still fails the run.
		out.Failed = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// pass is one set-up-and-measure run of a workload.
type pass struct {
	traced  bool
	setup   []float64 // seconds, one per set-up
	t       tally     // the timed window's completions
	d       deltas
	errs    []error
	rssMB   float64
	ws      int64
	handles int
	slots   int
	zonefs  bool
	// Traced pass only: perfbench's instruments and the program's
	// spans and flush histogram over the timed window.
	tr    *tracer
	spans spanSums
	flush obs.HistStats
}

func (p *pass) label() string {
	if p.traced {
		return "traced"
	}
	return "untraced"
}

// snapshot is every counter a pass differences across its window.
type snapshot struct {
	at    time.Time
	procs []int64
	svc   nfsd.Stats
	heur  nfsheur.Stats
	write wgather.Stats
	cache buffercache.Stats
	disk  disk.Stats
	zone  zonefs.Stats
	cpu   time.Duration
	mem   runtime.MemStats
	spans spanSums
	flush obs.HistStats
}

// deltas is the change of the counters over the timed window.
type deltas struct {
	wall    time.Duration
	procs   [nprocs]int64
	svc     nfsd.Stats
	heur    nfsheur.Stats
	write   wgather.Stats
	cache   buffercache.Stats
	disk    disk.Stats
	zone    zonefs.Stats
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	maxSeq  int
}

func take(st *stack) snapshot {
	s := snapshot{
		procs: st.svc.ProcCounts(),
		svc:   st.svc.Stats(),
		heur:  st.svc.Table().Stats(),
		write: st.svc.WriteStats(),
	}
	if st.zfs != nil {
		s.cache, s.disk, s.zone = st.zfs.CacheStats(), st.zfs.DiskStats(), st.zfs.Stats()
	}
	if st.tr != nil {
		s.spans = sumSpans(st.svc.SpanTable())
		s.flush = st.tr.reg.Dump().Histograms["wgather_flush_latency"]
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s
}

func diff(a, b snapshot) deltas {
	d := deltas{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mem.Mallocs - a.mem.Mallocs,
		gcs:     b.mem.NumGC - a.mem.NumGC,
		gcPause: time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		maxSeq:  b.svc.MaxSeqCount,
		heur: nfsheur.Stats{Hits: b.heur.Hits - a.heur.Hits, Misses: b.heur.Misses - a.heur.Misses,
			Ejections: b.heur.Ejections - a.heur.Ejections},
		svc: nfsd.Stats{BytesRead: b.svc.BytesRead - a.svc.BytesRead,
			BytesWritten: b.svc.BytesWritten - a.svc.BytesWritten},
		write: wgather.Stats{Flushes: b.write.Flushes - a.write.Flushes,
			FlushedBytes:  b.write.FlushedBytes - a.write.FlushedBytes,
			GatheredBytes: b.write.GatheredBytes - a.write.GatheredBytes},
		cache: buffercache.Stats{ReadAheads: b.cache.ReadAheads - a.cache.ReadAheads,
			Evictions: b.cache.Evictions - a.cache.Evictions},
		disk: disk.Stats{Commands: b.disk.Commands - a.disk.Commands,
			SectorsMoved: b.disk.SectorsMoved - a.disk.SectorsMoved,
			Repositions:  b.disk.Repositions - a.disk.Repositions},
		zone: zonefs.Stats{DemandHits: b.zone.DemandHits - a.zone.DemandHits,
			DemandMisses: b.zone.DemandMisses - a.zone.DemandMisses,
			DiskTime:     b.zone.DiskTime - a.zone.DiskTime},
	}
	for i := range d.procs {
		d.procs[i] = b.procs[i] - a.procs[i]
	}
	return d
}

// runPass sets the workload up (setups times, keeping the last), warms
// it up, drives it for the window and checks it.
func runPass(w *workload, seed int64, window time.Duration, traced bool, setups int) (*pass, error) {
	p := &pass{traced: traced}
	var in instance
	for i := 0; i < setups; i++ {
		if in != nil {
			in.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if in, err = w.setup(seed, traced); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	defer in.close()
	st := in.stack()
	p.ws, p.handles = in.inputs()
	p.slots = st.svc.Table().Params().Slots
	p.zonefs = st.zfs != nil

	warm := merge(in.run(time.Now().Add(warmup), st.tr))
	if warm.failed > 0 {
		p.errs = append(p.errs, fmt.Errorf("warm-up: %d calls failed, first: %w", warm.failed, warm.err))
	}
	if st.tr != nil {
		st.tr.reset()
	}
	runtime.GC()
	before := take(st)
	p.t = merge(in.run(before.at.Add(window), st.tr))
	after := take(st)
	p.d = diff(before, after)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	if st.tr != nil {
		p.tr = st.tr
		p.spans = after.spans.minus(before.spans)
		p.flush = obs.HistStats{Count: after.flush.Count - before.flush.Count,
			SumMS: after.flush.SumMS - before.flush.SumMS}
		if p.flush.Count > 0 {
			p.flush.MeanMS = p.flush.SumMS / float64(p.flush.Count)
		}
	}

	if p.t.failed > 0 {
		p.errs = append(p.errs, fmt.Errorf("%d of %d calls failed, first: %w",
			p.t.failed, p.t.failed+p.t.completed, p.t.err))
	}
	// Every call perfbench issued executed exactly once. perfbench never
	// retransmits, and a retransmission inside a WriteBehind (after a
	// 1 s reply wait) would execute a WRITE more than issued: it fails
	// here rather than being counted.
	issued, served := in.issued(), st.svc.ProcCounts()
	for proc := range served {
		var want int64
		if proc < len(issued) {
			want = issued[proc]
		}
		if served[proc] != want {
			p.errs = append(p.errs, fmt.Errorf("ProcCounts[%s] = %d, perfbench issued %d",
				nfsproto.ProcName(uint32(proc)), served[proc], want))
		}
	}
	if st.tr != nil && st.tr.flushes.Load() != p.d.write.Flushes {
		p.errs = append(p.errs, fmt.Errorf("observer sink saw %d flushes, wgather counted %d",
			st.tr.flushes.Load(), p.d.write.Flushes))
	}
	if err := in.verify(); err != nil {
		p.errs = append(p.errs, err)
	}
	p.errs = append(p.errs, w.bypass(p)...)
	return p, nil
}

// spanSums is a span table summed over procedures, in milliseconds.
type spanSums struct {
	n      float64
	total  float64
	stages [obs.NumStages]float64
}

func sumSpans(t *obs.SpanTable) spanSums {
	var s spanSums
	for _, ps := range t.Stats().Procs {
		s.n += float64(ps.Count)
		s.total += ps.Total.SumMS
		for i, name := range obs.StageNames() {
			s.stages[i] += ps.Stages[name].SumMS
		}
	}
	return s
}

func (s spanSums) minus(o spanSums) spanSums {
	s.n -= o.n
	s.total -= o.total
	for i := range s.stages {
		s.stages[i] -= o.stages[i]
	}
	return s
}

// stageUS is a stage's mean time per request in microseconds.
func (s spanSums) stageUS(st obs.Stage) float64 { return ratio(s.stages[st]*1e3, s.n) }

// share is a stage's share of all server time.
func (s spanSums) share(st obs.Stage) float64 {
	var all float64
	for _, v := range s.stages {
		all += v
	}
	return ratio(s.stages[st], all)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (p *pass) secs() float64      { return p.d.wall.Seconds() }
func (p *pass) opsPerSec() float64 { return ratio(float64(p.t.completed), p.secs()) }
func (p *pass) kops() float64      { return float64(p.t.completed) / 1e3 }

// movedMB is the READ plus WRITE payload the server moved, in MB.
func (p *pass) movedMB() float64 { return float64(p.d.svc.BytesRead+p.d.svc.BytesWritten) / 1e6 }

// endToEnd returns the untraced pass's user-visible metrics and prints
// the ones outside the JSON set: the fail ratio, and commit latency
// where the workload commits.
func endToEnd(p *pass) []metric {
	n := len(p.t.lat)
	p50, _ := percentile(p.t.lat, 50, time.Microsecond)
	p99, beyond := percentile(p.t.lat, 99, time.Microsecond)
	attempted := p.t.completed + p.t.failed
	ms := []metric{
		{"ops_per_s", p.opsPerSec(), "ops/s", fmt.Sprintf("n=%d calls in %.3f s", p.t.completed, p.secs())},
		{"goodput_mb_s", ratio(float64(p.t.bytes)/1e6, p.secs()), "MB/s", fmt.Sprintf("n=%d payload bytes", p.t.bytes)},
		{"lat_p50_us", p50, "us", fmt.Sprintf("n=%d", n)},
		{"lat_p99_us", p99, "us", fmt.Sprintf("n=%d, %d beyond", n, beyond)},
		{"cpu_us_per_op", ratio(float64(p.d.cpu.Microseconds()), float64(p.t.completed)), "us", fmt.Sprintf("n=%d calls", p.t.completed)},
		{"allocs_per_op", ratio(float64(p.d.mallocs), float64(p.t.completed)), "count", fmt.Sprintf("n=%d calls", p.t.completed)},
		{"rss_peak_mb", p.rssMB, "MB", "process peak"},
		{"setup_s", stats.Median(p.setup), "s", fmt.Sprintf("median of n=%d set-ups", len(p.setup))},
	}
	fmt.Printf("end-to-end (not in the JSON set): fail_ratio=%.6f (%d of %d)",
		ratio(float64(p.t.failed), float64(attempted)), p.t.failed, attempted)
	if c := len(p.t.commits); c > 0 {
		c50, _ := percentile(p.t.commits, 50, time.Millisecond)
		c90, cb := percentile(p.t.commits, 90, time.Millisecond)
		fmt.Printf(" commit_p50_ms=%.3f commit_p90_ms=%.3f (n=%d, %d beyond p90)", c50, c90, c, cb)
	}
	fmt.Println()
	return ms
}

// perLayer combines the untraced pass's counters with the traced pass's
// times.
func perLayer(u, t *pass) []metric {
	tr := t.tr
	rttUS := meanUS(tr.rtt[:])
	spanUS := ratio(t.spans.total*1e3, t.spans.n)

	// Wire bytes: what the tap saw of arguments and results, plus the
	// RPC headers (with the client's AUTH_UNIX credential) and, on TCP,
	// the two record marks.
	callHdr := len((&sunrpc.Call{Cred: sunrpc.AuthUnixCred("nfstricks", 0, 0), Verf: sunrpc.AuthNoneCred()}).AppendTo(nil))
	replyHdr := len((&sunrpc.Reply{Verf: sunrpc.AuthNoneCred()}).AppendTo(nil))
	tcpShare := ratio(float64(t.t.tcpOps), float64(t.t.completed))
	wire := ratio(float64(tr.msgBytes.Load()), float64(tr.msgs.Load())) + float64(callHdr+replyHdr) + 8*tcpShare

	ms := []metric{
		{"client.encode_ns", tr.encode.mean(time.Nanosecond), "ns", fmt.Sprintf("n=%d", tr.encode.n.Load())},
		{"client.decode_ns", tr.decode.mean(time.Nanosecond), "ns", fmt.Sprintf("n=%d", tr.decode.n.Load())},
		{"client.window_wait_us", ratio(float64(tr.wait.ns.Load())/1e3, float64(t.t.completed)), "us", "per completed call"},
		{"rpcnet.rtt_us.tcp", tr.rtt[1].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.rtt[1].n.Load())},
		{"rpcnet.rtt_us.udp", tr.rtt[0].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.rtt[0].n.Load())},
		{"rpcnet.transport_us", rttUS - meanUS(tr.handler[:]), "us", "round trip minus nfsd handler"},
		{"rpcnet.recv_us", t.spans.stageUS(obs.StageRecv), "us", fmt.Sprintf("n=%.0f spans", t.spans.n)},
		{"rpcnet.decode_us", t.spans.stageUS(obs.StageDecode), "us", ""},
		{"rpcnet.reply_us", t.spans.stageUS(obs.StageReply), "us", ""},
		{"rpcnet.wire_bytes_per_op", wire, "bytes", fmt.Sprintf("n=%d calls", tr.msgs.Load())},
		{"rpcnet.timeouts", float64(u.t.timeouts), "count", ""},
	}
	for _, proc := range reportedProcs {
		pn := nfsproto.ProcName(proc)
		ms = append(ms, metric{"nfsd.handler_us." + pn, tr.handler[proc].mean(time.Microsecond), "us",
			fmt.Sprintf("n=%d", tr.handler[proc].n.Load())})
	}
	ms = append(ms, metric{"nfsd.exec_us", t.spans.stageUS(obs.StageExec), "us", ""})
	for _, proc := range reportedProcs {
		ms = append(ms, metric{"nfsd.ops." + nfsproto.ProcName(proc), float64(u.d.procs[proc]), "count", ""})
	}
	h := u.d.heur
	z, c, dk := u.d.zone, u.d.cache, u.d.disk
	written := float64(u.d.svc.BytesWritten) / 1e6
	ms = append(ms,
		metric{"nfsheur.hit_ratio", ratio(float64(h.Hits), float64(h.Hits+h.Misses)), "ratio",
			fmt.Sprintf("n=%d lookups", h.Hits+h.Misses)},
		metric{"nfsheur.ejections_per_kop", ratio(float64(h.Ejections), u.kops()), "count", fmt.Sprintf("n=%d ejections", h.Ejections)},
		metric{"readahead.max_seqcount", float64(u.d.maxSeq), "count", ""},
		metric{"vfs.read_us", tr.vfs[vfsRead].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.vfs[vfsRead].n.Load())},
		metric{"vfs.write_us", tr.vfs[vfsWrite].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.vfs[vfsWrite].n.Load())},
		metric{"vfs.commit_us", tr.vfs[vfsCommit].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.vfs[vfsCommit].n.Load())},
		metric{"vfs.getattr_ns", tr.vfs[vfsGetattr].mean(time.Nanosecond), "ns", fmt.Sprintf("n=%d", tr.vfs[vfsGetattr].n.Load())},
		metric{"vfs.lookup_ns", tr.vfs[vfsLookup].mean(time.Nanosecond), "ns", fmt.Sprintf("n=%d", tr.vfs[vfsLookup].n.Load())},
		metric{"vfs.readdir_us", tr.vfs[vfsReaddir].mean(time.Microsecond), "us", fmt.Sprintf("n=%d", tr.vfs[vfsReaddir].n.Load())},
		metric{"buffercache.demand_hit_ratio", ratio(float64(z.DemandHits), float64(z.DemandHits+z.DemandMisses)), "ratio",
			fmt.Sprintf("n=%d demanded blocks", z.DemandHits+z.DemandMisses)},
		metric{"buffercache.readahead_blocks_per_miss", ratio(float64(c.ReadAheads), float64(z.DemandMisses)), "count", ""},
		metric{"buffercache.evictions_per_mb", ratio(float64(c.Evictions), u.movedMB()), "count", ""},
		metric{"disk.busy_ratio", ratio(z.DiskTime.Seconds(), u.secs()), "ratio", ""},
		metric{"disk.kb_per_command", ratio(float64(dk.SectorsMoved)*512/1024, float64(dk.Commands)), "KB",
			fmt.Sprintf("n=%d commands", dk.Commands)},
		metric{"disk.repositions_per_mb", ratio(float64(dk.Repositions), u.movedMB()), "count", ""},
		metric{"disk.time_us", t.spans.stageUS(obs.StageDisk), "us", ""},
		metric{"wgather.flushes_per_mb", ratio(float64(u.d.write.Flushes), written), "count",
			fmt.Sprintf("n=%d flushes", u.d.write.Flushes)},
		metric{"wgather.coalesce_ratio", ratio(float64(u.d.write.FlushedBytes), float64(u.d.write.GatheredBytes)), "ratio", ""},
		metric{"wgather.flush_ms", t.flush.MeanMS, "ms", fmt.Sprintf("n=%d", t.flush.Count)},
		metric{"wgather.gather_us", t.spans.stageUS(obs.StageGather), "us", ""},
		metric{"runtime.gc_cycles_per_kop", ratio(float64(u.d.gcs), u.kops()), "count", fmt.Sprintf("n=%d cycles", u.d.gcs)},
		metric{"runtime.gc_pause_us_per_kop", ratio(float64(u.d.gcPause.Microseconds()), u.kops()), "us", ""},
		metric{"trace.overhead_ratio", ratio(u.opsPerSec(), t.opsPerSec()), "ratio", "untraced / traced ops_per_s"},
		metric{"trace.unattributed_us", rttUS - tr.encode.mean(time.Microsecond) - spanUS, "us",
			"round trip minus client encode minus server span"},
	)
	for _, st := range reportedStages {
		ms = append(ms, metric{"server_share." + st.String(), t.spans.share(st), "ratio", ""})
	}
	return ms
}

// meanUS is the mean of a set of timers taken together, in microseconds.
func meanUS(ts []timer) float64 {
	var n, ns int64
	for i := range ts {
		n += ts[i].n.Load()
		ns += ts[i].ns.Load()
	}
	return ratio(float64(ns)/1e3, float64(n))
}

// reportedProcs are the procedures the workloads issue.
var reportedProcs = []uint32{nfsproto.ProcGetattr, nfsproto.ProcLookup, nfsproto.ProcAccess,
	nfsproto.ProcRead, nfsproto.ProcReaddirplus, nfsproto.ProcCreate, nfsproto.ProcRemove,
	nfsproto.ProcWrite, nfsproto.ProcCommit}

// reportedStages are the server stages whose share of server time is
// reported (the duplicate request cache is off, so its stage is empty).
var reportedStages = []obs.Stage{obs.StageRecv, obs.StageDecode, obs.StageExec, obs.StageBackend,
	obs.StageDisk, obs.StageGather, obs.StageReply}

// report prints a pass's inputs, counters, layer shares and checks.
func (p *pass) report() {
	fmt.Printf("%s pass: set-up %v s; window %.3f s; %d calls completed, %d failed\n",
		p.label(), p.setup, p.secs(), p.t.completed, p.t.failed)
	if p.zonefs {
		fmt.Printf("  inputs: working set %d MiB / zonefs cache %d MiB = %.3f; active handles %d / nfsheur slots %d = %.3f\n",
			p.ws>>20, zonefsCacheBytes>>20, float64(p.ws)/zonefsCacheBytes, p.handles, p.slots, ratio(float64(p.handles), float64(p.slots)))
	} else {
		fmt.Printf("  inputs: working set %d MiB on memfs (no zonefs cache); active handles %d / nfsheur slots %d = %.3f\n",
			p.ws>>20, p.handles, p.slots, ratio(float64(p.handles), float64(p.slots)))
	}
	fmt.Printf("  calls:")
	for _, proc := range reportedProcs {
		fmt.Printf(" %s=%d", nfsproto.ProcName(proc), p.d.procs[proc])
	}
	fmt.Println()
	fmt.Printf("  counters: nfsheur hits=%d misses=%d ejections=%d; disk commands=%d; cache demand hits=%d misses=%d; wgather flushes=%d gathered=%d B flushed=%d B; gc=%d\n",
		p.d.heur.Hits, p.d.heur.Misses, p.d.heur.Ejections, p.d.disk.Commands, p.d.zone.DemandHits,
		p.d.zone.DemandMisses, p.d.write.Flushes, p.d.write.GatheredBytes, p.d.write.FlushedBytes, p.d.gcs)
	if p.traced {
		fmt.Printf("  server time by stage (share of %.0f spans):", p.spans.n)
		for _, st := range reportedStages {
			fmt.Printf(" %s=%.3f", st, p.spans.share(st))
		}
		fmt.Println()
	}
	if len(p.errs) == 0 {
		fmt.Println("  checks: replies, ProcCounts, read-back and bypass counts all pass")
	}
}
