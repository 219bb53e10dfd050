package httpwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// newDepthClient returns a client whose connections each carry up to
// inflight concurrent calls, with metrics attached.
func newDepthClient(inflight int) *Client {
	c := NewClient()
	c.MaxInflightPerConn = inflight
	c.Obs = obs.NewWireMetrics(obs.NewRegistry(), "wire.depth")
	return c
}

func TestMuxBasicMultiplexing(t *testing.T) {
	var conns int32
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	go srv.Serve(&countingListener{Listener: l, n: &conns})
	defer srv.Close()

	c := newDepthClient(8)
	defer c.Close()

	const requests = 40
	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/mux%d", i)
			resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", path))
			if err != nil {
				errs[i] = err
				return
			}
			if string(resp.Body) != "echo:"+path {
				errs[i] = fmt.Errorf("body %q for %s", resp.Body, path)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Responses went back to the right callers over far fewer
	// connections than requests.
	got := atomic.LoadInt32(&conns)
	if got >= requests {
		t.Errorf("%d requests used %d connections; multiplexing inactive", requests, got)
	}
	if max := int32(c.maxConnsPerHost()); got > max {
		t.Errorf("%d connections exceeds per-host bound %d", got, max)
	}
	if c.Obs.WriteBatch.Count() == 0 {
		t.Error("no writev batches recorded")
	}
}

func TestMuxSequentialOrdering(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := newDepthClient(4)
	defer c.Close()
	// Sequential requests on one shared-depth conn must come back in
	// submission order (FIFO is the HTTP/1.1 correlation).
	for i := 0; i < 25; i++ {
		path := fmt.Sprintf("/seq%d", i)
		resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", path))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(resp.Body) != "echo:"+path {
			t.Fatalf("request %d got %q", i, resp.Body)
		}
	}
}

// resetFirstListener resets the first accepted connection on its first
// write and passes the rest through untouched.
type resetFirstListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *resetFirstListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted.Add(1) == 1 {
		return faultconn.Wrap(conn, faultconn.Fault{Reset: true}), nil
	}
	return conn, nil
}

func TestRetryAfterConnDeathOnFreshDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rfl := &resetFirstListener{Listener: l}
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	go srv.Serve(rfl)
	defer srv.Close()

	c := newDepthClient(4)
	c.RetryBackoff = 30 * time.Millisecond
	defer c.Close()
	// The first connection dies mid-exchange; DoContext must transparently
	// retry once on a newly dialed connection, after the backoff.
	start := time.Now()
	resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", "/fallback"))
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if string(resp.Body) != "echo:/fallback" {
		t.Fatalf("body = %q", resp.Body)
	}
	if c.Obs.Retries.Load() != 1 {
		t.Errorf("retries = %d, want 1", c.Obs.Retries.Load())
	}
	if rfl.accepted.Load() != 2 || c.Obs.Dials.Load() != 2 {
		t.Errorf("accepted %d, dialed %d: the retry did not use a new connection",
			rfl.accepted.Load(), c.Obs.Dials.Load())
	}
	if d := time.Since(start); d < c.RetryBackoff {
		t.Errorf("retry after %v, before the %v backoff", d, c.RetryBackoff)
	}
}

func TestMuxCanceledCallerDetaches(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if req.Path == "/slow" {
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
		}
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := newDepthClient(4)
	defer c.Close()

	// Establish the connection first so the short deadline below races
	// the exchange, never the dial.
	if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/warm")); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.DoContext(ctx, addr, NewRequest("GET", "/slow"))
	if !errors.Is(err, wireerr.ErrRequestTimeout) && !errors.Is(err, wireerr.ErrCanceled) {
		t.Fatalf("canceled caller got %v, want wireerr timeout/cancel", err)
	}
	once.Do(func() { close(release) })

	// The client must still work: the cancelled reader tore its
	// connection down rather than leave the stream misaligned.
	resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/after"))
	if err != nil {
		t.Fatalf("request after cancellation: %v", err)
	}
	if string(resp.Body) != "echo:/after" {
		t.Fatalf("stream desynchronized: %q", resp.Body)
	}
}

// TestMuxCancellationHammer is the -race stress for shared connections:
// many goroutines share a few connections while a third of the callers
// abandon mid-flight, exercising every enqueue/handoff/teardown
// interleaving.
func TestMuxCancellationHammer(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if len(req.Path)%3 == 0 {
			time.Sleep(time.Millisecond)
		}
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := newDepthClient(4)
	defer c.Close()

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := fmt.Sprintf("/h%d-%d", g, i)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%3 == 0 {
					// Deadline short enough to abandon some calls
					// mid-flight, long enough that others land.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*500*time.Microsecond)
				}
				resp, err := c.DoContext(ctx, addr, NewRequest("GET", path))
				cancel()
				switch {
				case err == nil:
					if string(resp.Body) != "echo:"+path {
						t.Errorf("cross-wired body %q for %s", resp.Body, path)
						failures.Add(1)
						return
					}
				case errors.Is(err, wireerr.ErrCanceled),
					errors.Is(err, wireerr.ErrRequestTimeout),
					errors.Is(err, wireerr.ErrDialTimeout),
					errors.Is(err, wireerr.ErrTruncatedBody),
					errors.Is(err, net.ErrClosed):
					// Expected outcomes for abandoned or collateral calls
					// (a sub-millisecond deadline can expire inside a dial).
				default:
					t.Errorf("unclassified error for %s: %v", path, err)
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("hammer saw failures")
	}
	// Steady state after the storm: a fresh exchange must still work.
	resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/steady"))
	if err != nil || string(resp.Body) != "echo:/steady" {
		t.Fatalf("post-hammer exchange: %v %q", err, resp)
	}
}

func TestMuxClientCloseFailsInflight(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		<-block
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := newDepthClient(4)

	done := make(chan error, 1)
	go func() {
		_, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/blocked"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	close(block)
	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight exchange survived Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exchange hung after Close")
	}
}

// pipeCountServer answers pipelined requests in order once release is
// closed, recording per connection the most requests it held unanswered —
// how many exchanges the client had in flight on that connection.
type pipeCountServer struct {
	l       net.Listener
	release chan struct{}
	mu      sync.Mutex
	max     int
	conns   []net.Conn
}

func startPipeCountServer(t *testing.T) *pipeCountServer {
	t.Helper()
	s := &pipeCountServer{l: listenLoopback(t), release: make(chan struct{})}
	t.Cleanup(func() {
		s.l.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := s.l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn)
		}
	}()
	return s
}

func (s *pipeCountServer) serve(conn net.Conn) {
	var outstanding atomic.Int32
	reqs := make(chan *Request, 64)
	go func() {
		defer close(reqs)
		br := bufio.NewReader(conn)
		for {
			req, err := ReadRequest(br)
			if err != nil {
				return
			}
			n := int(outstanding.Add(1))
			s.mu.Lock()
			if n > s.max {
				s.max = n
			}
			s.mu.Unlock()
			reqs <- req
		}
	}()
	bw := bufio.NewWriter(conn)
	for req := range reqs {
		<-s.release
		outstanding.Add(-1)
		if WriteResponse(bw, echoHandler(context.Background(), req), false) != nil {
			return
		}
	}
}

func (s *pipeCountServer) maxInflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// TestDepthBoundsInflightPerConn pins MaxInflightPerConn as a hard bound:
// depth 1 never pipelines two exchanges on one connection, and at depth 2
// with one connection allowed a third concurrent call waits (counting a
// pool wait) instead of queueing past the depth.
func TestDepthBoundsInflightPerConn(t *testing.T) {
	for _, tc := range []struct {
		depth, conns, callers int
	}{
		{depth: 1, conns: 2, callers: 6},
		{depth: 2, conns: 1, callers: 3},
	} {
		t.Run(fmt.Sprintf("depth=%d", tc.depth), func(t *testing.T) {
			s := startPipeCountServer(t)
			c := newDepthClient(tc.depth)
			c.MaxConnsPerHost = tc.conns
			defer c.Close()
			var wg sync.WaitGroup
			for i := 0; i < tc.callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					path := fmt.Sprintf("/d%d", i)
					resp, err := c.DoContext(context.Background(), s.l.Addr().String(), NewRequest("GET", path))
					if err != nil || string(resp.Body) != "echo:"+path {
						t.Errorf("%s: %v %v", path, resp, err)
					}
				}(i)
			}
			// Every caller beyond conns×depth must be parked on the pool.
			want := int64(tc.callers - tc.conns*tc.depth)
			deadline := time.Now().Add(2 * time.Second)
			for c.Obs.PoolWaits.Load() < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // let any over-depth write land
			close(s.release)
			wg.Wait()
			if got := c.Obs.PoolWaits.Load(); got < want {
				t.Errorf("pool_waits = %d, want >= %d", got, want)
			}
			if got := s.maxInflight(); got != tc.depth {
				t.Errorf("max exchanges in flight on one connection = %d, want %d", got, tc.depth)
			}
		})
	}
}

// TestDepthIdleConnReaped: a shared-depth connection left idle is counted
// in conns_idle and reaped after IdleConnTimeout like any other.
func TestDepthIdleConnReaped(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := newDepthClient(4)
	c.IdleConnTimeout = 20 * time.Millisecond
	defer c.Close()
	if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/a")); err != nil {
		t.Fatal(err)
	}
	if got := c.Obs.ConnsIdle.Load(); got != 1 {
		t.Errorf("conns_idle = %d after one call, want 1", got)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/b")); err != nil {
		t.Fatal(err)
	}
	if got := c.Obs.IdleClosed.Load(); got != 1 {
		t.Errorf("idle_closed = %d, want 1", got)
	}
	if got := c.Obs.Dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2 (idle conn was reaped)", got)
	}
	if got := c.Obs.ConnsOpen.Load(); got != 1 {
		t.Errorf("conns_open = %d, want 1", got)
	}
}

// fifoLen reports how many calls await responses on the client's
// connections to addr.
func fifoLen(c *Client, addr string) int {
	c.mu.Lock()
	p := c.pools[addr]
	c.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, cc := range p.conns {
		cc.mu.Lock()
		n += len(cc.fifo)
		cc.mu.Unlock()
	}
	return n
}

func waitFifo(t *testing.T, c *Client, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fifoLen(c, addr) < n {
		if time.Now().After(deadline) {
			t.Fatalf("fifo never reached %d calls", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitingCallerDetachesStreamStaysAligned: a caller queued behind the
// reader detaches the moment its context ends; the next caller in line
// reads and discards its response, so the connection survives and every
// later response still reaches its own caller.
func TestWaitingCallerDetachesStreamStaysAligned(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if req.Path == "/slow" {
			<-release
		}
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := newDepthClient(3)
	c.MaxConnsPerHost = 1
	defer c.Close()

	slow := make(chan error, 1)
	go func() {
		resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/slow"))
		if err == nil && string(resp.Body) != "echo:/slow" {
			err = fmt.Errorf("reader got %q", resp.Body)
		}
		slow <- err
	}()
	waitFifo(t, c, addr, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.DoContext(ctx, addr, NewRequest("GET", "/detached")); !errors.Is(err, wireerr.ErrRequestTimeout) {
		t.Fatalf("detached caller got %v, want ErrRequestTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("detaching took %v", d)
	}

	after := make(chan error, 1)
	go func() {
		resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/after"))
		if err == nil && string(resp.Body) != "echo:/after" {
			err = fmt.Errorf("stream desynchronized: got %q", resp.Body)
		}
		after <- err
	}()
	waitFifo(t, c, addr, 3) // /slow, the detached call, /after
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if err := <-after; err != nil {
		t.Fatal(err)
	}
	if got := c.Obs.Dials.Load(); got != 1 {
		t.Errorf("dials = %d, want 1: the detached response was not consumed in place", got)
	}
}
