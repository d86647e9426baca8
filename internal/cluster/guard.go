package cluster

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
	"nfstricks/internal/xdr"
)

// guard fronts one shard's nfsd dispatch with the cluster's ownership
// check: requests whose leading handle hashes to another shard under
// the guard's current map view are answered with a wrong-shard
// redirect carrying that view's version — the client refreshes and
// re-routes; the server never proxies. The guard also serves
// ProcClusterCreate (placement at a cluster-allocated handle) and
// keeps the three pieces of state rebalancing needs: per-map-epoch
// in-flight request counts (for quiescing requests admitted under the
// old map after a flip), a dirty-handle set (for the delta copy pass),
// and a migration fence (so a post-flip write can never be overwritten
// by the delta copy it raced).
type guard struct {
	id    uint32
	view  atomic.Pointer[Map]
	inner rpcnet.InfoHandler
	fs    *memfs.FS

	// inflight counts requests per map-version parity: a request is
	// counted under the view it was admitted with, so quiesce can wait
	// for exactly the old map's stragglers while new-map traffic —
	// including mutations parked on the fence — keeps flowing. Two
	// slots suffice: membership changes are serialized by Cluster.mu
	// and each drains version v before v+2 can exist.
	inflight [2]atomic.Int64

	// fence, when non-nil, parks mutations to handles still awaiting
	// their rebalance delta copy (see fence type).
	fence atomic.Pointer[fence]

	mu       sync.Mutex
	tracking bool
	dirty    map[nfsproto.FH]struct{}

	redirects *obs.Counter
	creates   *obs.Counter
}

// fence is the rebalance write barrier. It is installed on every
// gaining shard before the map flip and lifted after the delta copy
// pass: in between, a mutation to a handle this shard did not own
// under prev (i.e. one migrating in) blocks on done rather than
// executing, because the delta pass may still re-ship that handle's
// pre-flip bytes — letting the write through first would let the delta
// silently overwrite it. Blocked requests are counted under the new
// map's inflight slot, so they never deadlock the old-epoch quiesce.
type fence struct {
	prev *Map
	done chan struct{}
}

// covers reports whether fh is migrating into shard self across this
// fence's flip (self did not own it under the pre-flip map).
func (f *fence) covers(self uint32, fh uint64) bool {
	owner, ok := f.prev.OwnerID(fh)
	return !ok || owner != self
}

func newGuard(id uint32, initial *Map, inner rpcnet.InfoHandler, fs *memfs.FS, reg *obs.Registry) *guard {
	g := &guard{
		id:        id,
		inner:     inner,
		fs:        fs,
		redirects: reg.Counter("cluster_redirects_total"),
		creates:   reg.Counter("cluster_creates_total"),
	}
	g.view.Store(initial)
	return g
}

// setMap publishes a new map view to this guard.
func (g *guard) setMap(m *Map) { g.view.Store(m) }

// setFence installs the migration write barrier for a flip away from
// prev; liftFence removes it and releases every parked request. Lifting
// an absent fence is a no-op, so error paths can lift unconditionally.
func (g *guard) setFence(prev *Map) {
	g.fence.Store(&fence{prev: prev, done: make(chan struct{})})
}

func (g *guard) liftFence() {
	if f := g.fence.Swap(nil); f != nil {
		close(f.done)
	}
}

// admit counts the caller in flight under the current map view and
// returns that view plus the release function. The re-check loop closes
// the window between loading the view and bumping its counter: once
// both agree, any later setMap(next) is ordered after the increment, so
// a quiesce following that flip cannot miss this request.
func (g *guard) admit() (*Map, func()) {
	for {
		m := g.view.Load()
		slot := &g.inflight[m.Version&1]
		slot.Add(1)
		if g.view.Load() == m {
			return m, func() { slot.Add(-1) }
		}
		slot.Add(-1)
	}
}

// trackDirty toggles dirty-handle recording; turning it off clears the
// set.
func (g *guard) trackDirty(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tracking = on
	if !on {
		g.dirty = nil
	}
}

// takeDirty returns and clears the recorded dirty handles.
func (g *guard) takeDirty() []nfsproto.FH {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]nfsproto.FH, 0, len(g.dirty))
	for fh := range g.dirty {
		out = append(out, fh)
	}
	g.dirty = nil
	return out
}

func (g *guard) markDirty(fh nfsproto.FH) {
	g.mu.Lock()
	if g.tracking {
		if g.dirty == nil {
			g.dirty = make(map[nfsproto.FH]struct{})
		}
		g.dirty[fh] = struct{}{}
	}
	g.mu.Unlock()
}

// handler is the rpcnet.InfoHandler served by the shard.
func (g *guard) handler(info rpcnet.CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
	m, release := g.admit()
	defer release()

	if proc == nfsproto.ProcNull {
		return g.inner(info, proc, body, reply)
	}
	fh, ok := peekFH(body)
	if !ok {
		// Unroutable garbage; let the NFS layer reject it.
		return g.inner(info, proc, body, reply)
	}
	if owner, ok := m.OwnerID(uint64(fh)); ok && owner != g.id {
		g.redirects.Add(1)
		info.Span.Mark(obs.StageExec)
		return appendRedirect(reply, m.Version), sunrpc.AcceptSuccess
	}
	if mutates(proc) {
		// Only a post-flip view reaches here for a migrating handle (the
		// pre-flip view redirects it), so a parked request is always in
		// the new map's inflight slot — the old epoch drains regardless.
		if f := g.fence.Load(); f != nil && f.covers(g.id, uint64(fh)) {
			<-f.done
		}
		// Mark after the mutation has applied, not before: a write that
		// marks while tracking is still off but applies after tracking
		// turns on could land behind the copy pass's read of its file
		// and be in no dirty set, so no delta would re-ship it. Marking
		// afterwards, a write that finds tracking off applied before
		// tracking began, hence before the copy pass read the file.
		defer g.markDirty(fh)
	}
	if proc == ProcClusterCreate {
		return g.clusterCreate(info, body, reply)
	}
	return g.inner(info, proc, body, reply)
}

// mutates reports whether proc can change the bytes or size of the
// file its leading handle names — the set the delta copy pass must
// re-ship after a map flip.
func mutates(proc uint32) bool {
	switch proc {
	case nfsproto.ProcWrite, nfsproto.ProcSetattr, ProcClusterCreate:
		return true
	}
	return false
}

// clusterCreate places a zero-filled file at a cluster-allocated
// handle, flat under the shard's root.
func (g *guard) clusterCreate(info rpcnet.CallInfo, body, reply []byte) ([]byte, uint32) {
	var args clusterCreateArgs
	if err := args.Unmarshal(body); err != nil {
		info.Span.Mark(obs.StageExec)
		return reply, sunrpc.AcceptGarbageArgs
	}
	// handler dirty-marks the handle once this returns (ProcClusterCreate
	// is in mutates and args.FH is the peeked routing handle).
	err := g.fs.CreateAt(vfs.RootFH, args.Name, args.FH, make([]byte, args.Size))
	info.Span.Mark(obs.StageExec)
	if err != nil {
		st := uint32(nfsproto.ErrIO)
		if errors.Is(err, vfs.ErrExist) {
			st = nfsproto.ErrExist
		}
		return xdr.AppendUint32(reply, st), sunrpc.AcceptSuccess
	}
	g.creates.Add(1)
	return xdr.AppendUint32(reply, nfsproto.OK), sunrpc.AcceptSuccess
}

// quiesce spins until no request admitted under map version oldVersion
// is still mid-dispatch — the post-flip barrier that guarantees the
// delta pass sees every write that raced the flip. Requests admitted
// under the new map count in the other parity slot, so sustained
// open-loop load (and mutations parked on the fence) cannot starve the
// wait: the old slot drains monotonically once the flip is published.
func (g *guard) quiesce(oldVersion uint64) {
	for g.inflight[oldVersion&1].Load() > 0 {
		// Old-epoch requests are sub-millisecond memory operations; a
		// busy-yield is cheaper than parking machinery for a path that
		// runs once per membership change.
		runtime.Gosched()
	}
}
