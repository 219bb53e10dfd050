package httpwire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// closeIdleConns kills every pooled idle connection behind the client's
// back, simulating a server-side timeout of the persistent connection.
func closeIdleConns(c *Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pools {
		p.mu.Lock()
		for _, cc := range p.idle {
			cc.conn.Close()
		}
		p.mu.Unlock()
	}
}

// testWireMetrics returns a fresh metrics bundle for pool assertions.
func testWireMetrics() *obs.WireMetrics {
	return obs.NewWireMetrics(obs.NewRegistry(), "wire.test")
}

func TestPoolRetryCountsAndRecovers(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	c.Obs = testWireMetrics()
	defer c.Close()
	if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/a")); err != nil {
		t.Fatal(err)
	}
	closeIdleConns(c)
	resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/b"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("retry on stale connection failed: %v", err)
	}
	if got := c.Obs.Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := c.Obs.Dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2 (original + replacement)", got)
	}
	if got := c.Obs.ConnsOpen.Load(); got != 1 {
		t.Errorf("conns_open = %d, want 1 after stale conn dropped", got)
	}
}

func TestPoolDropsConnectionOnClose(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	c.Obs = testWireMetrics()
	defer c.Close()
	req := NewRequest("GET", "/bye")
	req.Header.Set("Connection", "close")
	if _, err := c.DoContext(context.Background(), addr, req); err != nil {
		t.Fatal(err)
	}
	if got := c.Obs.ConnsOpen.Load(); got != 0 {
		t.Errorf("conns_open = %d after Connection: close, want 0", got)
	}
	if got := c.Obs.ConnsIdle.Load(); got != 0 {
		t.Errorf("conns_idle = %d after Connection: close, want 0", got)
	}
	// The next request must transparently redial.
	if resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/again")); err != nil || resp.Status != 200 {
		t.Fatalf("redial failed: %v", err)
	}
	if got := c.Obs.Dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2", got)
	}
}

func TestPoolBoundsConnsPerHost(t *testing.T) {
	var conns int32
	release := make(chan struct{})
	slow := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		<-release
		return echoHandler(ctx, req)
	})
	l := listenLoopback(t)
	counting := &countingListener{Listener: l, n: &conns}
	srv := &Server{Handler: slow}
	go srv.Serve(counting)
	t.Cleanup(func() { srv.Close() })

	c := NewClient()
	c.MaxConnsPerHost = 2
	c.Obs = testWireMetrics()
	defer c.Close()

	const inFlight = 6
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", "/slow"))
			errs <- err
		}()
	}
	// Let the burst land: two requests get connections, the rest queue.
	deadline := time.Now().Add(2 * time.Second)
	for c.Obs.PoolWaits.Load() < inFlight-2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("pooled request failed: %v", err)
		}
	}
	if got := atomic.LoadInt32(&conns); got != 2 {
		t.Errorf("%d concurrent requests opened %d connections, want 2 (MaxConnsPerHost)", inFlight, got)
	}
	if got := c.Obs.PoolWaits.Load(); got < inFlight-2 {
		t.Errorf("pool_waits = %d, want >= %d", got, inFlight-2)
	}
	if got := c.Obs.ConnsOpen.Load(); got != 2 {
		t.Errorf("conns_open = %d, want 2", got)
	}
}

func TestPoolSpreadsConcurrentRequests(t *testing.T) {
	release := make(chan struct{})
	slow := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		<-release
		return echoHandler(ctx, req)
	})
	addr := startServer(t, slow)
	c := NewClient()
	c.Obs = testWireMetrics()
	defer c.Close()

	const inFlight = 4
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/r")); err != nil {
				t.Errorf("do: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Obs.ConnsOpen.Load() < inFlight && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := c.Obs.Dials.Load(); got != inFlight {
		t.Errorf("dials = %d, want %d (one connection per in-flight request)", got, inFlight)
	}
	if got := c.Obs.ConnsIdle.Load(); got != inFlight {
		t.Errorf("conns_idle = %d after completion, want %d", got, inFlight)
	}
}

func TestPoolReapsIdleConns(t *testing.T) {
	addr := startServer(t, HandlerFunc(echoHandler))
	c := NewClient()
	c.IdleConnTimeout = 20 * time.Millisecond
	c.Obs = testWireMetrics()
	defer c.Close()
	if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/a")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	// The next acquisition reaps the expired idle conn and dials afresh.
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

func TestPoolCloseUnblocksWaiters(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		<-release
		return echoHandler(ctx, req)
	})
	addr := startServer(t, slow)
	c := NewClient()
	c.MaxConnsPerHost = 1
	c.Obs = testWireMetrics()

	go c.DoContext(context.Background(), addr, NewRequest("GET", "/hog"))
	deadline := time.Now().Add(2 * time.Second)
	for c.Obs.ConnsOpen.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/waiting"))
		waiterErr <- err
	}()
	for c.Obs.PoolWaits.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Error("waiter succeeded after Close, want error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock pool waiter")
	}
}

// TestRetryRule pins the client's one retry rule: a call whose connection
// died retries once, on a freshly dialed connection, while its own
// deadline has budget left; dial failures, the caller's own cancellation,
// and a spent budget are not retried.
func TestRetryRule(t *testing.T) {
	t.Run("stale idle conns: retry dials fresh", func(t *testing.T) {
		release := make(chan struct{})
		addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) *Response {
			if req.Path == "/pair" {
				<-release
			}
			return echoHandler(ctx, req)
		}))
		c := NewClient()
		c.Obs = testWireMetrics()
		defer c.Close()
		// Park two connections on the idle list, then kill both.
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.DoContext(context.Background(), addr, NewRequest("GET", "/pair"))
			}()
		}
		for c.Obs.ConnsOpen.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		closeIdleConns(c)
		resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/x"))
		if err != nil || string(resp.Body) != "echo:/x" {
			t.Fatalf("retry took the other stale conn: %v", err)
		}
		if got := c.Obs.Retries.Load(); got != 1 {
			t.Errorf("retries = %d, want 1", got)
		}
		if got := c.Obs.Dials.Load(); got != 3 {
			t.Errorf("dials = %d, want 3 (two parked + one fresh)", got)
		}
	})
	t.Run("fresh dial at the bound", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) *Response {
			if req.Path == "/hold" {
				<-release
			}
			return echoHandler(ctx, req)
		}))
		c := NewClient()
		c.MaxConnsPerHost = 2
		c.RetryBackoff = 200 * time.Millisecond
		c.Obs = testWireMetrics()
		defer c.Close()
		go c.DoContext(context.Background(), addr, NewRequest("GET", "/hold"))
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/warm")); err != nil {
			t.Fatal(err)
		}
		closeIdleConns(c)
		retried := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := c.DoContext(ctx, addr, NewRequest("GET", "/x"))
			retried <- err
		}()
		for c.Obs.Retries.Load() < 1 {
			time.Sleep(time.Millisecond)
		}
		// During the backoff another call refills the freed slot and
		// parks its connection: the retry must close that idle conn to
		// make room, not wait behind the held one.
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/y")); err != nil {
			t.Fatal(err)
		}
		if err := <-retried; err != nil {
			t.Fatalf("retry at the bound: %v", err)
		}
		if got := c.Obs.Dials.Load(); got != 4 {
			t.Errorf("dials = %d, want 4 (hold, warm, refill, fresh)", got)
		}
	})
	t.Run("dial failure", func(t *testing.T) {
		l := listenLoopback(t)
		addr := l.Addr().String()
		l.Close()
		c := NewClient()
		c.Obs = testWireMetrics()
		defer c.Close()
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/x")); err == nil {
			t.Fatal("dial to a closed port succeeded")
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d after a dial failure, want 0", got)
		}
	})
	t.Run("own cancellation", func(t *testing.T) {
		addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) *Response {
			if req.Path == "/stall" {
				<-ctx.Done()
			}
			return echoHandler(ctx, req)
		}))
		c := NewClient()
		c.Obs = testWireMetrics()
		defer c.Close()
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/warm")); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		if _, err := c.DoContext(ctx, addr, NewRequest("GET", "/stall")); !errors.Is(err, wireerr.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d after the caller cancelled, want 0", got)
		}
	})
	t.Run("spent budget", func(t *testing.T) {
		addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) *Response {
			if req.Path == "/slow" {
				time.Sleep(150 * time.Millisecond)
			}
			return echoHandler(ctx, req)
		}))
		c := NewClient()
		c.RequestTimeout = 50 * time.Millisecond
		c.Obs = testWireMetrics()
		defer c.Close()
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/warm")); err != nil {
			t.Fatal(err)
		}
		// The reused connection times out with the call's whole budget
		// spent: a retry could only time out again.
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/slow")); !errors.Is(err, wireerr.ErrRequestTimeout) {
			t.Fatalf("err = %v, want ErrRequestTimeout", err)
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d after the budget ran out, want 0", got)
		}
	})
}
