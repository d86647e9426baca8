package main

import (
	"errors"
	"time"

	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
)

// recorder collects the completions one goroutine observes. Each
// goroutine owns its recorder, so recording takes no lock.
type recorder struct {
	tcp      bool
	lat      []float64 // ns, calls with a latency sample
	commits  []float64 // ns, WriteBehind.Commit (drain plus COMMIT)
	ops      [nprocs]int64
	bytes    int64 // READ and WRITE payload moved
	failed   int64
	timeouts int64
	err      error // first failure
}

func newRecorders(n int, tcp bool) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{tcp: tcp}
	}
	return recs
}

// done records one finished call.
func (r *recorder) done(proc uint32, lat time.Duration, n int, err error) {
	if err != nil {
		r.fail(err)
		return
	}
	r.ops[proc]++
	r.bytes += int64(n)
	r.lat = append(r.lat, float64(lat))
}

func (r *recorder) fail(err error) {
	r.failed++
	if errors.Is(err, rpcnet.ErrReplyTimeout) {
		r.timeouts++
	}
	if r.err == nil {
		r.err = err
	}
}

// tally is the merge of a set of recorders.
type tally struct {
	lat, commits []float64 // ns
	ops          [nprocs]int64
	tcpOps       int64
	completed    int64
	bytes        int64
	failed       int64
	timeouts     int64
	err          error
}

func merge(recs []*recorder) tally {
	var t tally
	for _, r := range recs {
		t.lat = append(t.lat, r.lat...)
		t.commits = append(t.commits, r.commits...)
		for p, n := range r.ops {
			t.ops[p] += n
			t.completed += n
			if r.tcp {
				t.tcpOps += n
			}
		}
		t.bytes += r.bytes
		t.failed += r.failed
		t.timeouts += r.timeouts
		if t.err == nil {
			t.err = r.err
		}
	}
	return t
}

// percentile returns the p-th percentile of samples in nanoseconds, in
// the given unit, and how many samples lie above it.
func percentile(ns []float64, p float64, unit time.Duration) (float64, int) {
	v := stats.Percentile(ns, p)
	beyond := 0
	for _, x := range ns {
		if x > v {
			beyond++
		}
	}
	return v / float64(unit), beyond
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
