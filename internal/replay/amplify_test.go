package replay

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
)

// TestReplayAmplify: M tenants replay the whole trace each — M× the
// ops, every per-stream sequence intact, zero errors.
func TestReplayAmplify(t *testing.T) {
	tg, collect := newTarget(t)
	src := traceFor(tg, 0)
	const tenants = 3
	// PoolSize = stream count: one pooled connection per stream, so the
	// capture tap sees each tenant×stream as its own server-side stream
	// and per-stream ordering is checkable. (The default pool would
	// share 2 sockets across all 6 streams — fewer sockets is the
	// point of pooling, but it interleaves sequences at the server.)
	st, err := Run(src, Options{
		Network: "tcp", Addr: tg.addr,
		OpenLoop: true, Amplify: tenants, PoolSize: 2 * tenants,
		TenantFH: func(tenant int, fh uint64) nfsproto.FH { return nfsproto.FH(fh) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != tenants {
		t.Fatalf("Tenants = %d, want %d", st.Tenants, tenants)
	}
	if want := int64(len(src) * tenants); st.Ops != want {
		t.Fatalf("Ops = %d, want %d", st.Ops, want)
	}
	if st.Streams != 2*tenants {
		t.Fatalf("Streams = %d, want %d", st.Streams, 2*tenants)
	}
	if st.Errors != 0 || st.NFSErrors != 0 {
		t.Fatalf("errors: %+v", st)
	}

	// Each captured stream must carry one of the two source sequences;
	// each source sequence must appear exactly `tenants` times.
	want := expectedKeys(src)
	got := keysByStream(collect())
	if len(got) != 2*tenants {
		t.Fatalf("captured %d streams, want %d", len(got), 2*tenants)
	}
	matches := make(map[uint32]int)
	for gid, gseq := range got {
		found := false
		for wid, wseq := range want {
			if len(gseq) != len(wseq) {
				continue
			}
			same := true
			for i := range wseq {
				if wseq[i] != gseq[i] {
					same = false
					break
				}
			}
			if same {
				matches[wid]++
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("captured stream %d matches no source sequence", gid)
		}
	}
	for wid, n := range matches {
		if n != tenants {
			t.Fatalf("source stream %d replayed %d times, want %d", wid, n, tenants)
		}
	}
}

// TestReplayAmplifyPoolsConnections: a pool bounds the socket count no
// matter the amplification factor.
func TestReplayAmplifyPoolsConnections(t *testing.T) {
	tg, _ := newTarget(t)
	src := traceFor(tg, 0)
	pool := rpcnet.NewPool("tcp", tg.addr, nfsproto.Program, nfsproto.Version3, 3, 5*time.Second)
	defer pool.Close()
	st, err := Run(src, Options{
		Network: "tcp", Addr: tg.addr,
		OpenLoop: true, Amplify: 8,
		Dial: poolDial(pool),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.NFSErrors != 0 {
		t.Fatalf("errors: %+v", st)
	}
	if got := pool.Conns(); got != 3 {
		t.Fatalf("pool opened %d connections, want 3 (16 streams shared)", got)
	}
}

// TestPoolSurfacesExhaustionTyped: a dial failing with resource
// exhaustion fails the run immediately with the typed error — no
// hang, no silent retry.
func TestPoolSurfacesExhaustionTyped(t *testing.T) {
	tg, _ := newTarget(t)
	src := traceFor(tg, 0)
	exhausted := func(uint32) (Transport, error) {
		return nil, fmt.Errorf("rpcnet: %w: dial tcp: %v",
			rpcnet.ErrConnExhausted, syscall.EADDRNOTAVAIL)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(src, Options{
			Network: "tcp", Addr: tg.addr,
			Amplify: 4, Dial: exhausted,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rpcnet.ErrConnExhausted) {
			t.Fatalf("err = %v, want ErrConnExhausted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay hung on exhausted dial")
	}
}
