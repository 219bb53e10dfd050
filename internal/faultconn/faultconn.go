// Package faultconn injects network faults at the net.Conn layer so the
// failure paths of the wire stack — timeouts, truncated bodies, dead
// peers, connection resets — can be exercised deterministically in
// tests. A Listener wraps a real listener and assigns each
// accepted connection a Fault drawn from a seeded schedule (or a fixed
// override), so the same seed replays the same brownout.
//
// Faults model the upstream misbehaviors the paper's best-effort piggyback
// protocol must survive: a server that answers slowly (Latency), cuts a
// response mid-chunk (TruncateAfter), accepts but never answers
// (Blackhole), or slams the connection (Reset).
package faultconn

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Fault describes what one connection does to its traffic. The zero value
// is a transparent pass-through.
type Fault struct {
	// Latency is slept once, before the first byte is written back to the
	// peer — modeling a slow first response byte.
	Latency time.Duration
	// TruncateAfter, when > 0, closes the connection abruptly after that
	// many bytes have been written to the peer — the peer sees a response
	// cut off mid-body or mid-chunk.
	TruncateAfter int64
	// Blackhole silently discards everything written to the peer and
	// never delivers it; reads from the peer still proceed, so a client
	// sends its request and then waits forever (until its deadline).
	Blackhole bool
	// Reset closes the connection immediately on the first write.
	Reset bool
	// MaxWriteBytes, when > 0, accepts at most that many bytes per Write
	// call, returning (n, nil) short writes — an adversarial stand-in for
	// a congested socket splitting a vectored write across syscalls.
	// NOTE: this deliberately violates the io.Writer contract (short
	// write with nil error); callers under test must tolerate it the way
	// httpwire's vectored write loop does. All bytes are delivered, just
	// in fragments.
	MaxWriteBytes int
}

// active reports whether the fault does anything.
func (f Fault) active() bool {
	return f.Latency > 0 || f.TruncateAfter > 0 || f.Blackhole || f.Reset ||
		f.MaxWriteBytes > 0
}

// Profile is a probabilistic fault schedule: each accepted connection
// draws at most one fault class, partitioned by the class probabilities
// (which must sum to <= 1; the remainder is healthy).
type Profile struct {
	LatencyP      float64       // probability of a Latency fault
	Latency       time.Duration // latency injected when drawn
	TruncateP     float64       // probability of a TruncateAfter fault
	TruncateBytes int64         // bytes written before the cut
	BlackholeP    float64       // probability of a Blackhole fault
	ResetP        float64       // probability of a Reset fault
}

// draw picks this connection's fault from one uniform variate, so the
// sequence of faults is fully determined by the rng seed and the accept
// order.
func (pr Profile) draw(u float64) Fault {
	switch {
	case u < pr.LatencyP:
		return Fault{Latency: pr.Latency}
	case u < pr.LatencyP+pr.TruncateP:
		return Fault{TruncateAfter: pr.TruncateBytes}
	case u < pr.LatencyP+pr.TruncateP+pr.BlackholeP:
		return Fault{Blackhole: true}
	case u < pr.LatencyP+pr.TruncateP+pr.BlackholeP+pr.ResetP:
		return Fault{Reset: true}
	default:
		return Fault{}
	}
}

// Brownout is a mixed degradation of an origin: 40% of connections are
// slow, 10% truncate, 15% are dead and 5% reset. The proxy's chaos test
// drives it to check that expired entries degrade to stale serves.
var Brownout = Profile{
	LatencyP: 0.4, Latency: 20 * time.Millisecond,
	TruncateP: 0.1, TruncateBytes: 2048,
	BlackholeP: 0.15,
	ResetP:     0.05,
}

// Conn wraps a net.Conn with a Fault. Write-side faults act on data
// flowing from the wrapped side toward the peer (for a server-side wrap:
// the response).
type Conn struct {
	net.Conn
	fault Fault

	mu      sync.Mutex
	written int64
	slept   bool
	dead    bool
	onClose func()
}

// Wrap returns conn with the fault applied. A zero fault is transparent.
func Wrap(conn net.Conn, f Fault) *Conn {
	return &Conn{Conn: conn, fault: f}
}

// Read delivers peer data. A blackholed connection still reads (the
// request must reach the "server" so the client blocks waiting for the
// response that never comes).
func (c *Conn) Read(b []byte) (int, error) {
	return c.Conn.Read(b)
}

// Write applies the fault schedule to outbound data.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	f := c.fault
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	if f.Reset {
		c.dead = true
		c.mu.Unlock()
		c.Close()
		return 0, net.ErrClosed
	}
	sleep := time.Duration(0)
	if f.Latency > 0 && !c.slept {
		c.slept = true
		sleep = f.Latency
	}
	if f.MaxWriteBytes > 0 && len(b) > f.MaxWriteBytes {
		b = b[:f.MaxWriteBytes]
	}
	written := c.written
	c.written += int64(len(b))
	c.mu.Unlock()

	if sleep > 0 {
		time.Sleep(sleep)
	}
	if f.Blackhole {
		// Report success, deliver nothing.
		return len(b), nil
	}
	if f.TruncateAfter > 0 {
		remain := f.TruncateAfter - written
		if remain <= 0 {
			c.mu.Lock()
			c.dead = true
			c.mu.Unlock()
			c.Close()
			return 0, net.ErrClosed
		}
		if int64(len(b)) > remain {
			n, _ := c.Conn.Write(b[:remain])
			c.mu.Lock()
			c.dead = true
			c.mu.Unlock()
			c.Close()
			return n, net.ErrClosed
		}
	}
	return c.Conn.Write(b)
}

// Close closes the underlying connection and runs the listener's
// bookkeeping hook once.
func (c *Conn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	hook := c.onClose
	c.onClose = nil
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return err
}

// Listener wraps a net.Listener, applying a fault schedule to accepted
// connections. The schedule is deterministic: connection i's fault is
// decided by the i-th draw from the seeded rng (or by the SetFault
// override when one is installed).
type Listener struct {
	inner net.Listener

	mu       sync.Mutex
	rng      *rand.Rand
	profile  Profile
	override *Fault
	accepted int
	conns    map[*Conn]struct{}
}

// NewListener wraps inner with the profile, drawing per-connection faults
// from a rng seeded with seed.
func NewListener(inner net.Listener, profile Profile, seed int64) *Listener {
	return &Listener{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		profile: profile,
		conns:   make(map[*Conn]struct{}),
	}
}

// SetFault installs a fixed fault applied to every subsequently accepted
// connection, bypassing the profile; nil restores the profile schedule.
// Already-accepted connections keep their faults (use AbortConns to cut
// them).
func (l *Listener) SetFault(f *Fault) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f == nil {
		l.override = nil
		return
	}
	cp := *f
	l.override = &cp
}

// SetProfile replaces the fault schedule for subsequently accepted
// connections (the rng sequence continues; it is not reseeded). Chaos
// tests use this to warm up healthy and then start a brownout.
func (l *Listener) SetProfile(pr Profile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.profile = pr
}

// Accepted returns how many connections have been accepted.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// AbortConns abruptly closes every live accepted connection — the peer
// sees a mid-exchange failure on its next read or write.
func (l *Listener) AbortConns() {
	l.mu.Lock()
	conns := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Accept accepts from the inner listener and wraps the connection with
// its scheduled fault.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.accepted++
	var f Fault
	if l.override != nil {
		f = *l.override
	} else {
		f = l.profile.draw(l.rng.Float64())
	}
	fc := Wrap(conn, f)
	l.conns[fc] = struct{}{}
	fc.onClose = func() {
		l.mu.Lock()
		delete(l.conns, fc)
		l.mu.Unlock()
	}
	l.mu.Unlock()
	return fc, nil
}

// Close closes the inner listener. Accepted connections stay open.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }
