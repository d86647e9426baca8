package rpcnet

import (
	"sync"
	"time"
)

// Pool shares a bounded set of connections to one server, so a
// high-fan-out caller (amplified trace replay, the cluster client's
// per-shard routing) holds size sockets however many streams it runs
// instead of burning through ephemeral ports. Sharing is safe: clients
// pipeline across goroutines, and Go issues before it returns, so each
// caller keeps its own send order.
type Pool struct {
	size    int
	timeout time.Duration
	dial    func() (*Client, error) // swapped by tests to fake dial outcomes

	mu     sync.Mutex
	conns  []*Client
	next   int
	closed bool
}

// NewPool builds a pool of at most size connections (at least one) to
// addr. A positive timeout is set on every connection it dials.
func NewPool(network, addr string, prog, vers uint32, size int, timeout time.Duration) *Pool {
	return &Pool{
		size:    max(size, 1),
		timeout: timeout,
		dial:    func() (*Client, error) { return Dial(network, addr, prog, vers) },
	}
}

// Get dials a new connection while the pool is below its size (under
// the pool's lock, so concurrent Gets never exceed it), then hands the
// connections out round-robin. A dial failure, ErrConnExhausted
// included, is returned unchanged. Get on a closed pool returns
// ErrClientClosed.
func (p *Pool) Get() (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClientClosed
	}
	if len(p.conns) < p.size {
		c, err := p.dial()
		if err != nil {
			return nil, err
		}
		if p.timeout > 0 {
			c.SetTimeout(p.timeout)
		}
		p.conns = append(p.conns, c)
		return c, nil
	}
	c := p.conns[p.next%len(p.conns)]
	p.next++
	return c, nil
}

// Conns reports how many connections the pool has opened.
func (p *Pool) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close closes every pooled connection and fails later Gets. It returns
// the first close error; closing again is a no-op.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
