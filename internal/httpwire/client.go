package httpwire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// Client issues requests over a per-host pool of persistent, pipelined
// connections (a proxy multiplexes many clients onto persistent
// connections to each server, §1). Each origin gets up to MaxConnsPerHost
// connections, and each connection carries up to MaxInflightPerConn calls
// at once. An acquirer takes an idle connection first, dials while the host
// is under its bound, then shares the least-loaded connection with spare
// depth; past all three it waits for a release. Idle connections are kept
// in a LIFO free list and reaped after IdleConnTimeout.
//
// Every exchange runs on its caller's goroutine; there are no
// per-connection goroutines. A caller that finds no write in progress on
// its connection writes everything queued there as one writev burst. The
// caller whose call heads the connection's response FIFO is the reader: it
// reads responses in order, discarding those of callers that detached,
// until its own are in, then hands the reader role to the next caller in
// line. HTTP/1.1 responses carry no exchange IDs, so wire order is the
// correlation.
type Client struct {
	// RequestTimeout caps each wire step of an exchange (the request
	// write, each response read); zero = 30s. The caller's context
	// deadline, when sooner, wins.
	RequestTimeout time.Duration
	// MaxConnsPerHost bounds the pool size per origin address; zero
	// means 16.
	MaxConnsPerHost int
	// IdleConnTimeout is how long an idle pooled connection survives
	// before being reaped; zero means 60s (the server-side idle timeout,
	// so the two ends age connections on the same clock).
	IdleConnTimeout time.Duration
	// RetryBackoff is the pause before the single retry of a call whose
	// connection died; zero means 2ms.
	RetryBackoff time.Duration
	// MaxInflightPerConn is the per-connection depth: how many calls
	// (a DoContext, or a whole DoAllContext batch) may be in flight on
	// one connection at once. Zero or one gives each call exclusive use
	// of its connection.
	MaxInflightPerConn int
	// Obs, when non-nil, receives wire-level telemetry: per-exchange
	// round-trip latency, retries, dials, body bytes, per-class failure
	// counters, and the pool gauges (open/idle connections, waits,
	// reaped conns).
	Obs *obs.WireMetrics

	mu     sync.Mutex
	pools  map[string]*pool
	closed bool
}

// pool is the per-origin connection pool: every open connection is in
// conns; the ones carrying no call are also in idle. active counts open
// connections plus in-flight dials and never exceeds MaxConnsPerHost.
type pool struct {
	c    *Client
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	conns  []*clientConn
	idle   []*clientConn // oldest first; reused LIFO from the tail
	active int
	closed bool
}

// clientConn is one persistent connection and its exchange state.
type clientConn struct {
	pool *pool
	conn net.Conn
	// poked is set once a cancelled caller yanked the deadlines into the
	// past; the connection is then torn down.
	poked atomic.Bool

	// Guarded by pool.mu.
	calls    int  // calls holding a slot
	dead     bool // forgotten by the pool
	lastUsed time.Time

	// Guarded by mu.
	mu      sync.Mutex
	br      *bufio.Reader // owned by the reader role; nil once released
	fifo    []*call       // calls awaiting responses, in wire order
	unsent  int           // trailing fifo entries not yet written
	writing bool          // a caller holds the writer role
	reading bool          // a caller holds (or is being handed) the reader role
	err     error         // teardown cause; the connection is dead once set
}

// call is one caller's requests and their responses: resps[i] answers
// reqs[i]. reader, done, abandoned, err and ready are guarded by the
// connection's mu.
type call struct {
	reqs  []*Request
	resps []*Response
	one   [1]*Request // backing for single-request calls
	oneR  [1]*Response

	reader    bool // holds, or has been handed, the reader role
	done      bool // failed by a teardown; err holds the cause
	abandoned bool // the caller detached; its responses are discarded
	err       error
	ready     chan struct{} // closed when a waiting call is handed the reader role or fails
}

var (
	// errDetached fails the other calls on a connection a cancelled
	// caller tore down; they did nothing wrong and may retry.
	errDetached = fmt.Errorf("%w: connection abandoned by a cancelled exchange", net.ErrClosed)
	// errServerClosed fails calls queued behind a Connection: close
	// response.
	errServerClosed = fmt.Errorf("%w: server closed the connection", net.ErrClosed)
	// pokeTime is the past deadline that fails blocked I/O at once.
	pokeTime = time.Unix(1, 0)
)

// dialTimeout bounds connection establishment; a sooner context deadline
// wins.
const dialTimeout = 5 * time.Second

// NewClient returns a Client ready for use.
func NewClient() *Client { return &Client{pools: make(map[string]*pool)} }

func (c *Client) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c *Client) maxConnsPerHost() int {
	if c.MaxConnsPerHost > 0 {
		return c.MaxConnsPerHost
	}
	return 16
}

func (c *Client) depth() int {
	if c.MaxInflightPerConn > 1 {
		return c.MaxInflightPerConn
	}
	return 1
}

func (c *Client) idleConnTimeout() time.Duration {
	if c.IdleConnTimeout > 0 {
		return c.IdleConnTimeout
	}
	return 60 * time.Second
}

func (c *Client) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 2 * time.Millisecond
}

// sleepBackoff pauses for d unless ctx ends first. A cancelled caller gets
// wireerr.FromContext immediately instead of burning the full backoff — the
// retry path must never outlive the request it serves.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return wireerr.FromContext(ctx.Err())
	}
}

// countError records a failed exchange: the total plus its taxonomy class.
func (c *Client) countError(err error) {
	if c.Obs == nil {
		return
	}
	c.Obs.Errors.Inc()
	c.Obs.CountErrClass(wireerr.Class(err))
}

// DoContext sends req to the server at addr ("host:port") and returns its
// response. Each wire step is bounded by the sooner of ctx's deadline and
// RequestTimeout; cancelling ctx detaches the caller at once. Failures are
// classified per the wireerr taxonomy: errors.Is against
// wireerr.ErrDialTimeout, ErrRequestTimeout, ErrCanceled, and
// ErrTruncatedBody holds on the corresponding paths.
func (c *Client) DoContext(ctx context.Context, addr string, req *Request) (*Response, error) {
	cl := &call{}
	cl.one[0] = req
	cl.reqs, cl.resps = cl.one[:], cl.oneR[:0]
	if err := c.do(ctx, addr, cl); err != nil {
		return nil, err
	}
	return cl.resps[0], nil
}

// DoAllContext pipelines the requests to addr on one connection (§1:
// persistent connections "enable pipelining of multiple requests and
// responses") and returns the responses in order. The batch is one call:
// it goes out in one writev burst and takes one slot of the connection's
// depth. On failure the responses received before it are returned
// alongside the error. HEAD requests pipeline correctly (their responses
// carry no body).
func (c *Client) DoAllContext(ctx context.Context, addr string, reqs []*Request) ([]*Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	cl := &call{reqs: reqs, resps: make([]*Response, 0, len(reqs))}
	err := c.do(ctx, addr, cl)
	return cl.resps, err
}

// do runs cl against addr with the one retry rule: a call whose
// connection died before any of its responses arrived retries once on a
// freshly dialed connection after RetryBackoff, while its own deadline
// (the sooner of RequestTimeout and ctx's) has budget left. Failures of
// the caller's own context and dial failures are not retried.
func (c *Client) do(ctx context.Context, addr string, cl *call) error {
	start := time.Now()
	budget := start.Add(c.requestTimeout())
	if d, ok := ctx.Deadline(); ok && d.Before(budget) {
		budget = d
	}
	for retried := false; ; retried = true {
		p, err := c.getPool(addr)
		var cc *clientConn
		if err == nil {
			cc, err = p.get(ctx, retried)
		}
		if err != nil {
			c.countError(err)
			return err
		}
		err = c.exchange(ctx, cc, cl)
		p.release(cc)
		if err == nil {
			break
		}
		err = wireerr.Exchange(ctx, err)
		if retried || ctx.Err() != nil || len(cl.resps) > 0 || !time.Now().Before(budget) {
			c.countError(err)
			return err
		}
		if c.Obs != nil {
			c.Obs.Retries.Inc()
		}
		if err := sleepBackoff(ctx, c.retryBackoff()); err != nil {
			c.countError(err)
			return err
		}
		// A failed call is referenced by no connection any more.
		cl.reader, cl.done, cl.err, cl.ready = false, false, nil, nil
	}
	if c.Obs != nil {
		c.Obs.Requests.Add(int64(len(cl.reqs)))
		for i, r := range cl.resps {
			c.Obs.BytesOut.Add(int64(len(cl.reqs[i].Body)))
			c.Obs.BytesIn.Add(int64(len(r.Body)))
		}
		c.Obs.Latency.Observe(time.Since(start).Microseconds())
	}
	return nil
}

// exchange runs cl on cc from the caller's goroutine. The caller takes
// the writer role when nobody holds it and the reader role when nobody
// holds it; otherwise it waits until the reader role is handed to it or
// its call fails. While it holds a role, cancelling ctx yanks the
// connection's deadlines into the past, which tears the connection down.
func (c *Client) exchange(ctx context.Context, cc *clientConn, cl *call) error {
	cc.mu.Lock()
	if err := cc.err; err != nil {
		cc.mu.Unlock()
		return err
	}
	cc.fifo = append(cc.fifo, cl)
	cc.unsent++
	write, read := !cc.writing, !cc.reading
	cc.writing, cc.reading = true, true
	cl.reader = read
	if !read {
		cl.ready = make(chan struct{})
	}
	cc.mu.Unlock()

	var stop func() bool
	if (write || read) && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cc.poke)
	}
	if write {
		cc.flush(ctx, c)
	}
	if !read {
		cc.unwatch(stop)
		stop = nil
		var err error
		if read, err = cc.await(ctx, cl); !read {
			return err
		}
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, cc.poke)
		}
	}
	err := cc.readTurn(ctx, c, cl)
	cc.unwatch(stop)
	cc.endTurn()
	return err
}

// poke fails the connection's blocked I/O at once (a role holder's
// context ended).
func (cc *clientConn) poke() {
	cc.poked.Store(true)
	cc.conn.SetDeadline(pokeTime)
}

// unwatch disarms a role holder's poke before it lets the role go; a poke
// that already fired has poisoned the connection's deadlines, so the
// connection is torn down rather than handed on.
func (cc *clientConn) unwatch(stop func() bool) {
	if stop != nil && !stop() {
		cc.teardown(errDetached)
	}
}

// arm sets the write or read deadline for one wire step: RequestTimeout
// from now, cut short by ctx's deadline. A poke is re-applied so re-arming
// never masks it.
func (cc *clientConn) arm(ctx context.Context, c *Client, write bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := time.Now().Add(c.requestTimeout())
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	var err error
	if write {
		err = cc.conn.SetWriteDeadline(d)
	} else {
		err = cc.conn.SetReadDeadline(d)
	}
	if cc.poked.Load() {
		cc.conn.SetDeadline(pokeTime)
	}
	return err
}

// fail tears cc down after a role holder's I/O error. When the holder's
// own context caused it, the other calls get errDetached instead of a
// timeout that is not theirs.
func (cc *clientConn) fail(ctx context.Context, err error) {
	if cc.poked.Load() || ctx.Err() != nil {
		err = errDetached
	}
	cc.teardown(err)
}

// flush writes every queued request, one writev burst per pass, until the
// queue is empty. The caller holds the writer role; a failed write tears
// the connection down, failing every queued call.
func (cc *clientConn) flush(ctx context.Context, c *Client) {
	for {
		cc.mu.Lock()
		if cc.err != nil || cc.unsent == 0 {
			cc.writing = false
			cc.mu.Unlock()
			return
		}
		v := getVec()
		n := 0
		for _, cl := range cc.fifo[len(cc.fifo)-cc.unsent:] {
			for _, req := range cl.reqs {
				v.appendRequest(req)
				n++
			}
		}
		cc.unsent = 0
		cc.mu.Unlock()
		err := cc.arm(ctx, c, true)
		if err == nil {
			err = writeVec(cc.conn, v)
			if c.Obs != nil {
				c.Obs.WriteOps.Inc()
				c.Obs.WriteBatch.Observe(int64(n))
			}
		}
		putVec(v)
		if err != nil {
			cc.fail(ctx, err)
			return
		}
	}
}

// await parks a call behind the current reader. It reports true once the
// reader role is handed over; otherwise the call failed or its caller
// detached, and the error says which.
func (cc *clientConn) await(ctx context.Context, cl *call) (bool, error) {
	select {
	case <-cl.ready:
	case <-ctx.Done():
	}
	cc.mu.Lock()
	switch {
	case cl.done:
		cc.mu.Unlock()
		return false, cl.err
	case ctx.Err() != nil:
		// Detach at once; whoever reads next consumes the response.
		cl.abandoned = true
		handed := cl.reader
		cc.mu.Unlock()
		if handed {
			cc.endTurn()
		}
		return false, ctx.Err()
	}
	cc.mu.Unlock()
	return true, nil
}

// readTurn holds the reader role: it reads responses in FIFO order —
// discarding those of calls whose callers detached — until cl's own are
// in.
func (cc *clientConn) readTurn(ctx context.Context, c *Client, cl *call) error {
	for {
		cc.mu.Lock()
		if err := cc.err; err != nil {
			cc.mu.Unlock()
			return err
		}
		head := cc.fifo[0]
		cc.mu.Unlock()
		closing, err := cc.readCall(ctx, c, head, head == cl)
		if err != nil {
			cc.fail(ctx, err)
			return err
		}
		cc.mu.Lock()
		if cc.err == nil {
			n := copy(cc.fifo, cc.fifo[1:])
			cc.fifo[n] = nil
			cc.fifo = cc.fifo[:n]
		}
		cc.mu.Unlock()
		if closing {
			cc.teardown(errServerClosed)
		}
		if head == cl {
			return nil
		}
	}
}

// readCall reads the responses to cl's requests, keeping them only when
// they are the reader's own.
func (cc *clientConn) readCall(ctx context.Context, c *Client, cl *call, keep bool) (closing bool, err error) {
	for _, req := range cl.reqs {
		if err := cc.arm(ctx, c, false); err != nil {
			return false, err
		}
		resp, err := ReadResponse(cc.br, req.Method == "HEAD")
		if err != nil {
			return false, err
		}
		if keep {
			cl.resps = append(cl.resps, resp)
		}
		closing = closing || resp.Header.WantsClose()
	}
	return closing, nil
}

// endTurn gives up the reader role to the first call still waiting. With
// none left the role lapses; responses of detached calls still queued are
// read by the next caller to take it. On a dead connection the role's last
// holder returns the pooled reader.
func (cc *clientConn) endTurn() {
	cc.mu.Lock()
	if cc.err == nil {
		for _, next := range cc.fifo {
			if !next.abandoned {
				next.reader = true
				close(next.ready)
				cc.mu.Unlock()
				return
			}
		}
		cc.reading = false
		cc.mu.Unlock()
		return
	}
	br := cc.br
	cc.br = nil
	cc.mu.Unlock()
	if br != nil {
		PutReader(br)
	}
}

// teardown kills the connection once: every queued call fails with cause,
// the socket closes (unblocking any role holder), and the pool forgets the
// connection. The pooled reader goes back here only when no caller holds
// the reader role; otherwise its holder returns it in endTurn.
func (cc *clientConn) teardown(cause error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = cause
	for i, cl := range cc.fifo {
		cl.err = cause
		if !cl.reader {
			cl.done = true
			close(cl.ready)
		}
		cc.fifo[i] = nil
	}
	cc.fifo, cc.unsent = nil, 0
	var br *bufio.Reader
	if !cc.reading {
		br, cc.br = cc.br, nil
	}
	cc.mu.Unlock()
	cc.conn.Close()
	if br != nil {
		PutReader(br)
	}
	cc.pool.remove(cc)
}

// getPool returns the pool for addr, creating it on first use.
func (c *Client) getPool(addr string) (*pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	if c.pools == nil {
		c.pools = make(map[string]*pool)
	}
	p, ok := c.pools[addr]
	if !ok {
		p = &pool{c: c, addr: addr}
		p.cond = sync.NewCond(&p.mu)
		c.pools[addr] = p
	}
	return p, nil
}

// get hands the caller a slot on a connection to addr: a pooled idle one,
// a fresh dial while the pool is under its bound, or a share of the
// least-loaded connection with spare depth; past all three it waits for a
// release. fresh insists on a new connection, closing the oldest idle one
// to make room at the bound. The caller must hand the slot back via
// release.
func (p *pool) get(ctx context.Context, fresh bool) (*clientConn, error) {
	max, depth := p.c.maxConnsPerHost(), p.c.depth()
	if ctx.Done() != nil {
		// A cancelled waiter must wake from cond.Wait.
		stop := context.AfterFunc(ctx, p.wake)
		defer stop()
	}
	p.mu.Lock()
	waited := false
	for {
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, wireerr.FromContext(err)
		}
		if p.closed {
			p.mu.Unlock()
			return nil, net.ErrClosed
		}
		p.reapLocked(time.Now(), fresh && p.active >= max)
		if n := len(p.idle); n > 0 && !fresh {
			cc := p.idle[n-1]
			p.idle[n-1] = nil
			p.idle = p.idle[:n-1]
			cc.calls = 1
			p.mu.Unlock()
			if p.c.Obs != nil {
				p.c.Obs.ConnsIdle.Add(-1)
			}
			return cc, nil
		}
		if p.active < max {
			p.active++
			p.mu.Unlock()
			return p.dial(ctx)
		}
		if !fresh {
			var best *clientConn
			for _, cc := range p.conns {
				if cc.calls < depth && (best == nil || cc.calls < best.calls) {
					best = cc
				}
			}
			if best != nil {
				best.calls++
				p.mu.Unlock()
				return best, nil
			}
		}
		if !waited {
			waited = true
			if p.c.Obs != nil {
				p.c.Obs.PoolWaits.Inc()
			}
		}
		p.cond.Wait()
	}
}

func (p *pool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// dial establishes a new connection for a slot the caller already holds.
func (p *pool) dial(ctx context.Context) (*clientConn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		p.mu.Lock()
		p.active--
		p.cond.Signal()
		p.mu.Unlock()
		return nil, wireerr.Dial(ctx, err)
	}
	src := io.Reader(conn)
	if p.c.Obs != nil {
		src = &countingReader{r: conn, ops: p.c.Obs.ReadOps}
	}
	cc := &clientConn{pool: p, conn: conn, br: GetReader(src), calls: 1}
	p.mu.Lock()
	if p.closed {
		p.active--
		p.mu.Unlock()
		conn.Close()
		PutReader(cc.br)
		return nil, net.ErrClosed
	}
	p.conns = append(p.conns, cc)
	// Waiters parked during the dial may share the new connection.
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.c.Obs != nil {
		p.c.Obs.Dials.Inc()
		p.c.Obs.ConnsOpen.Inc()
	}
	return cc, nil
}

// reapLocked closes idle connections older than IdleConnTimeout, and with
// makeRoom at least the oldest idle one, so a fresh dial fits under the
// bound. Idle connections carry no call, so their buffers go straight back
// to the pool. Caller holds p.mu.
func (p *pool) reapLocked(now time.Time, makeRoom bool) {
	timeout := p.c.idleConnTimeout()
	reaped := 0
	for reaped < len(p.idle) && now.Sub(p.idle[reaped].lastUsed) > timeout {
		reaped++
	}
	n := reaped
	if makeRoom && n == 0 && len(p.idle) > 0 {
		n = 1
	}
	if n == 0 {
		return
	}
	for _, cc := range p.idle[:n] {
		p.dropLocked(cc)
		cc.conn.Close()
		PutReader(cc.br)
		cc.br = nil
	}
	p.idle = append(p.idle[:0], p.idle[n:]...)
	if p.c.Obs != nil {
		p.c.Obs.ConnsIdle.Add(-int64(n))
		p.c.Obs.ConnsOpen.Add(-int64(n))
		p.c.Obs.IdleClosed.Add(int64(reaped))
	}
	p.cond.Broadcast()
}

// dropLocked forgets cc if the pool still counts it. Caller holds p.mu.
func (p *pool) dropLocked(cc *clientConn) bool {
	for i, x := range p.conns {
		if x == cc {
			last := len(p.conns) - 1
			p.conns[i], p.conns[last] = p.conns[last], nil
			p.conns = p.conns[:last]
			p.active--
			cc.dead = true
			return true
		}
	}
	return false
}

// remove forgets a torn-down connection. Its callers still hold their
// slots, so it cannot be on the idle list.
func (p *pool) remove(cc *clientConn) {
	p.mu.Lock()
	removed := p.dropLocked(cc)
	p.cond.Signal()
	p.mu.Unlock()
	if removed && p.c.Obs != nil {
		p.c.Obs.ConnsOpen.Add(-1)
	}
}

// release hands a call's slot back; a live connection left carrying no
// call joins the idle list.
func (p *pool) release(cc *clientConn) {
	p.mu.Lock()
	cc.calls--
	idle := cc.calls == 0 && !cc.dead && !p.closed
	if idle {
		cc.lastUsed = time.Now()
		p.idle = append(p.idle, cc)
	}
	p.cond.Signal()
	p.mu.Unlock()
	if idle && p.c.Obs != nil {
		p.c.Obs.ConnsIdle.Inc()
	}
}

// Close shuts all pooled connections and fails waiting acquirers.
// Connections carrying calls are torn down too; their callers see the
// exchange fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	pools := c.pools
	c.pools = make(map[string]*pool)
	c.mu.Unlock()
	for _, p := range pools {
		p.mu.Lock()
		p.closed = true
		conns, idle := p.conns, len(p.idle)
		p.conns, p.idle, p.active = nil, nil, 0
		p.cond.Broadcast()
		p.mu.Unlock()
		for _, cc := range conns {
			cc.teardown(net.ErrClosed)
		}
		if c.Obs != nil {
			c.Obs.ConnsOpen.Add(-int64(len(conns)))
			c.Obs.ConnsIdle.Add(-int64(idle))
		}
	}
}
