package cluster

import (
	"errors"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
)

// TestRedirectChaseBoundedByTimeout: ClientConfig.Timeout bounds a
// routed call as a whole, not each hop of its redirect chase. The one
// shard in the map answers every call with a wrong-shard redirect after
// a pause, naming the version the client already holds, so the client
// re-issues without a map fetch. The redirect budget alone would let
// the chase run MaxRedirects+1 hops (over 2 s here); the call must
// instead give up at about Timeout with a reply timeout.
func TestRedirectChaseBoundedByTimeout(t *testing.T) {
	const (
		hop          = 100 * time.Millisecond
		timeout      = 250 * time.Millisecond
		maxRedirects = 20
	)
	shard, err := rpcnet.NewServerInfo("127.0.0.1:0", nfsproto.Program, nfsproto.Version3,
		func(_ rpcnet.CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
			time.Sleep(hop)
			return appendRedirect(reply, 1), sunrpc.AcceptSuccess
		}, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	cp := newControlPlane(NewMap(1, []ShardInfo{{ID: 0, Addr: shard.Addr()}}), obs.NewRegistry(), nil, nil)
	if err := cp.serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cl, err := DialClient("tcp", cp.Addr(), ClientConfig{Timeout: timeout, MaxRedirects: maxRedirects})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const fh = nfsproto.FH(fhAllocBase)
	start := time.Now()
	_, err = cl.Call(nfsproto.ProcGetattr, fh, (&nfsproto.GetattrArgs{FH: fh}).Marshal())
	elapsed := time.Since(start)
	if !errors.Is(err, rpcnet.ErrReplyTimeout) {
		t.Fatalf("call returned %v after %v, want ErrReplyTimeout", err, elapsed)
	}
	if elapsed > 4*timeout {
		t.Fatalf("call took %v, want about the %v timeout (redirect budget %d hops of %v)",
			elapsed, timeout, maxRedirects+1, hop)
	}
	st := cl.Stats()
	if st.Redirects < 1 || st.MapRefreshes != 0 {
		t.Fatalf("stats %+v: want redirects chased without map fetches", st)
	}
	if st.Dials < 1 || st.Dials > 4 {
		t.Fatalf("Dials = %d, want 1..4 (one shard pool of default size 4)", st.Dials)
	}
}
