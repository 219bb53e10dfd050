package proxy

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/delta"
	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire"
)

// The outcome table pins, for every path a request can take through the
// proxy, what the client sees (status, X-Cache, Warning, body) and what the
// proxy counts (every Stats field and every peer.* registry counter). Each
// row primes its own proxy, then measures exactly one request: the deltas
// are taken around that request only.

const outcomeKey = "www.out.test/a/page.html"

// outcomeRig is one primed proxy and the request a row measures. do
// returns the measured response once every exchange it started is done.
type outcomeRig struct {
	p  *Proxy
	do func() *httpwire.Response
}

type outcomeRow struct {
	name    string
	rig     func(t *testing.T) outcomeRig
	status  int
	xcache  string
	warning string
	body    string           // checked when non-empty
	stats   Stats            // expected Stats delta; unlisted fields must not move
	peer    map[string]int64 // expected nonzero peer.* counter deltas
}

// originFunc answers an origin exchange; conditional reports whether the
// request carried If-Modified-Since.
type originFunc func(conditional bool) *httpwire.Response

func ok200(body string, lm int64) *httpwire.Response {
	resp := httpwire.NewResponse(200)
	resp.Body = []byte(body)
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(lm))
	resp.Header.Set("Content-Type", "text/html")
	return resp
}

func status(code int, body string, header ...string) *httpwire.Response {
	resp := httpwire.NewResponse(code)
	resp.Body = []byte(body)
	for i := 0; i+1 < len(header); i += 2 {
		resp.Header.Set(header[i], header[i+1])
	}
	return resp
}

// v1Origin serves "v1" to plain GETs and answers conditional ones with cond.
func v1Origin(cond func() *httpwire.Response) originFunc {
	return func(conditional bool) *httpwire.Response {
		if conditional {
			return cond()
		}
		return ok200("v1", 5000)
	}
}

// newOutcomeProxy starts an origin answering with h and a proxy in front of
// it. The returned clock starts at 10,000 and moves only when a row moves it.
func newOutcomeProxy(t *testing.T, cfg Config, h originFunc) (*Proxy, *atomic.Int64) {
	t.Helper()
	addr := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		return h(req.Header.Has("If-Modified-Since"))
	}))
	var now atomic.Int64
	now.Store(10_000)
	if cfg.Delta == 0 {
		cfg.Delta = 600
	}
	cfg.Clock = now.Load
	if cfg.Resolve == nil {
		cfg.Resolve = func(string) (string, error) { return addr, nil }
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	return p, &now
}

func prime(t *testing.T, p *Proxy, key string, want int) {
	t.Helper()
	if resp := proxyGet(p, key); resp.Status != want {
		t.Fatalf("priming %s: status %d, want %d", key, resp.Status, want)
	}
}

// parkedOrigin holds each exchange until release is closed, signalling in
// on arrival, then serves "v1".
func parkedOrigin(in chan<- struct{}, release <-chan struct{}) originFunc {
	return func(bool) *httpwire.Response {
		in <- struct{}{}
		<-release
		return ok200("v1", 5000)
	}
}

// awaitClients waits until p has counted n client requests, then gives the
// last one a moment to reach the single-flight map.
func awaitClients(t *testing.T, p *Proxy, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().ClientRequests < n {
		if time.Now().After(deadline) {
			t.Fatalf("client requests stuck below %d", n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// newMeshPair wires two meshed proxies in front of one origin and returns
// the member that does not own outcomeKey (the requester) plus the owner's
// server and listener.
func newMeshPair(t *testing.T) (requester *Proxy, ownerSrv *httpwire.Server, ownerLn net.Listener) {
	t.Helper()
	origin := startOrigin(t, httpwire.HandlerFunc(func(context.Context, *httpwire.Request) *httpwire.Response {
		return ok200("v1", 5000)
	}))
	var ls []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	var px []*Proxy
	var srvs []*httpwire.Server
	for i := range ls {
		p := New(Config{
			Delta:    600,
			Clock:    func() int64 { return 10_000 },
			Resolve:  func(string) (string, error) { return origin, nil },
			PeerSelf: addrs[i],
			Peers:    addrs,
		})
		t.Cleanup(p.Close)
		srv := &httpwire.Server{Handler: p, IdleTimeout: 5 * time.Second}
		go srv.Serve(ls[i])
		t.Cleanup(func() { srv.Close() })
		px = append(px, p)
		srvs = append(srvs, srv)
	}
	o := 0
	if px[0].PeerRing().Owner(outcomeKey) == addrs[1] {
		o = 1
	}
	return px[1-o], srvs[o], ls[o]
}

// deltaBodies is a resource large enough for a blockdiff patch to pay off,
// before and after a one-block change.
var deltaV1, deltaV2 = func() ([]byte, []byte) {
	v1 := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	v2 := append([]byte(nil), v1...)
	copy(v2[100:], "changed")
	return v1, v2
}()

var deltaPatch = delta.Make(deltaV1, deltaV2, 0).Encode()

const staleWarning = `110 - "Response is Stale"`

func outcomeRows() []outcomeRow {
	return []outcomeRow{
		{
			name: "fresh HIT",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{}, v1Origin(nil))
				prime(t, p, outcomeKey, 200)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "HIT", body: "v1",
			stats: Stats{ClientRequests: 1, FreshHits: 1},
		},
		{
			name: "SHARED follower",
			rig: func(t *testing.T) outcomeRig {
				in, release := make(chan struct{}, 1), make(chan struct{})
				p, _ := newOutcomeProxy(t, Config{}, parkedOrigin(in, release))
				return outcomeRig{p, func() *httpwire.Response {
					leader := make(chan *httpwire.Response, 1)
					go func() { leader <- proxyGet(p, outcomeKey) }()
					<-in
					follower := make(chan *httpwire.Response, 1)
					go func() { follower <- proxyGet(p, outcomeKey) }()
					awaitClients(t, p, 2)
					close(release)
					<-leader
					return <-follower
				}}
			},
			status: 200, xcache: "SHARED", body: "v1",
			stats: Stats{ClientRequests: 2, MissFetches: 1, SingleflightShared: 1},
		},
		{
			name: "follower detaches on ctx",
			rig: func(t *testing.T) outcomeRig {
				in, release := make(chan struct{}, 1), make(chan struct{})
				p, _ := newOutcomeProxy(t, Config{}, parkedOrigin(in, release))
				return outcomeRig{p, func() *httpwire.Response {
					leader := make(chan *httpwire.Response, 1)
					go func() { leader <- proxyGet(p, outcomeKey) }()
					<-in
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					resp := p.ServeWire(ctx, httpwire.NewRequest("GET", "http://"+outcomeKey))
					close(release)
					<-leader
					return resp
				}}
			},
			status: 504,
			stats:  Stats{ClientRequests: 2, MissFetches: 1, SingleflightShared: 1},
		},
		{
			name: "cold MISS",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{}, v1Origin(nil))
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: "v1",
			stats: Stats{ClientRequests: 1, MissFetches: 1},
		},
		{
			name: "304 REVALIDATED",
			rig: func(t *testing.T) outcomeRig {
				p, now := newOutcomeProxy(t, Config{}, v1Origin(func() *httpwire.Response { return status(304, "") }))
				prime(t, p, outcomeKey, 200)
				now.Add(700)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: "v1",
			stats: Stats{ClientRequests: 1, Validations: 1, NotModified: 1},
		},
		{
			name: "226 DELTA",
			rig: func(t *testing.T) outcomeRig {
				p, now := newOutcomeProxy(t, Config{DeltaEncoding: true}, func(conditional bool) *httpwire.Response {
					if conditional {
						return status(226, string(deltaPatch), "IM", "blockdiff",
							"Last-Modified", httpwire.FormatHTTPDate(6000))
					}
					return ok200(string(deltaV1), 5000)
				})
				prime(t, p, outcomeKey, 200)
				now.Add(700)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: string(deltaV2),
			stats: Stats{ClientRequests: 1, Validations: 1, DeltaUpdates: 1,
				DeltaBytesSaved: int64(len(deltaV2) - len(deltaPatch))},
		},
		{
			name: "200 refetch of a modified resource",
			rig: func(t *testing.T) outcomeRig {
				p, now := newOutcomeProxy(t, Config{}, v1Origin(func() *httpwire.Response { return ok200("v2", 6000) }))
				prime(t, p, outcomeKey, 200)
				now.Add(700)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: "v2",
			stats: Stats{ClientRequests: 1, Validations: 1},
		},
		{
			name: "STALE on a blackholed origin",
			rig: func(t *testing.T) outcomeRig {
				fb := newFaultBed(t, Config{
					Delta:           100,
					UpstreamTimeout: 100 * time.Millisecond,
					MaxStaleOnError: 100000,
				})
				if resp := fb.get(context.Background(), "www.site.com/a/x.html"); resp.Status != 200 {
					t.Fatalf("priming: status %d", resp.Status)
				}
				fb.advance(200)
				fb.fl.SetFault(&faultconn.Fault{Blackhole: true})
				fb.fl.AbortConns()
				return outcomeRig{fb.proxy, func() *httpwire.Response {
					return fb.get(context.Background(), "www.site.com/a/x.html")
				}}
			},
			status: 200, xcache: "STALE", warning: staleWarning,
			stats: Stats{ClientRequests: 1, UpstreamErrors: 1, StaleServes: 1},
		},
		{
			name: "open circuit with no copy",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{
					BreakerFailures: 1,
					BreakerBackoff:  time.Minute,
					Resolve:         func(string) (string, error) { return "127.0.0.1:1", nil },
				}, v1Origin(nil))
				prime(t, p, "www.out.test/a/other.html", 502) // trips the circuit
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 502,
			stats:  Stats{ClientRequests: 1, BreakerShortCircuits: 1},
		},
		{
			name: "Resolve failure with a stale copy in the window",
			rig: func(t *testing.T) outcomeRig {
				var fail atomic.Bool
				var origin string
				p, now := newOutcomeProxy(t, Config{
					Resolve: func(string) (string, error) {
						if fail.Load() {
							return "", net.UnknownNetworkError("no route")
						}
						return origin, nil
					},
				}, v1Origin(nil))
				origin = startOrigin(t, httpwire.HandlerFunc(func(context.Context, *httpwire.Request) *httpwire.Response {
					return ok200("v1", 5000)
				}))
				prime(t, p, outcomeKey, 200)
				now.Add(700)
				fail.Store(true)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 502,
			stats:  Stats{ClientRequests: 1, UpstreamErrors: 1},
		},
		{
			name: "unconditional 304",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{}, func(bool) *httpwire.Response { return status(304, "") })
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 502, xcache: "MISS",
			stats: Stats{ClientRequests: 1, UpstreamErrors: 1},
		},
		{
			name: "unconditional 226",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{DeltaEncoding: true}, func(bool) *httpwire.Response {
					return status(226, string(deltaPatch), "IM", "blockdiff")
				})
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 502, xcache: "MISS",
			stats: Stats{ClientRequests: 1, UpstreamErrors: 1},
		},
		{
			name: "malformed 226",
			rig: func(t *testing.T) outcomeRig {
				p, now := newOutcomeProxy(t, Config{DeltaEncoding: true}, v1Origin(func() *httpwire.Response {
					return status(226, "not a real patch", "IM", "blockdiff")
				}))
				prime(t, p, outcomeKey, 200)
				now.Add(700)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: "v1",
			stats: Stats{ClientRequests: 1, UpstreamErrors: 1},
		},
		{
			name: "pass-through 404",
			rig: func(t *testing.T) outcomeRig {
				p, _ := newOutcomeProxy(t, Config{}, func(bool) *httpwire.Response { return status(404, "gone") })
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 404, xcache: "MISS", body: "gone",
			stats: Stats{ClientRequests: 1},
		},
		{
			name: "PEER serve",
			rig: func(t *testing.T) outcomeRig {
				p, _, _ := newMeshPair(t)
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "PEER", body: "v1",
			stats: Stats{ClientRequests: 1, PeerForwards: 1, PeerServes: 1},
			peer:  map[string]int64{"peer.forwards": 1, "peer.serves": 1},
		},
		{
			name: "dead-owner fallback",
			rig: func(t *testing.T) outcomeRig {
				p, srv, ln := newMeshPair(t)
				srv.Close()
				ln.Close()
				return outcomeRig{p, func() *httpwire.Response { return proxyGet(p, outcomeKey) }}
			},
			status: 200, xcache: "MISS", body: "v1",
			stats: Stats{ClientRequests: 1, MissFetches: 1, PeerForwards: 1, PeerFallbacks: 1},
			peer:  map[string]int64{"peer.forwards": 1, "peer.fallbacks": 1},
		},
		{
			name: "prefetch-filled flight seen as SHARED",
			rig: func(t *testing.T) outcomeRig {
				in, release := make(chan struct{}, 1), make(chan struct{})
				p, _ := newOutcomeProxy(t, Config{Prefetch: true}, parkedOrigin(in, release))
				host, path, _ := strings.Cut(outcomeKey, "/")
				p.Queue().Push(FetchItem{Host: host, URL: "/" + path, Size: 2})
				return outcomeRig{p, func() *httpwire.Response {
					drained := make(chan int, 1)
					go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
					<-in
					client := make(chan *httpwire.Response, 1)
					go func() { client <- proxyGet(p, outcomeKey) }()
					awaitClients(t, p, 1)
					close(release)
					if n := <-drained; n != 1 {
						t.Errorf("drain fetched %d, want 1", n)
					}
					return <-client
				}}
			},
			status: 200, xcache: "SHARED", body: "v1",
			stats: Stats{ClientRequests: 1, Prefetches: 1, SingleflightShared: 1},
		},
	}
}

func TestRequestOutcomes(t *testing.T) {
	for _, row := range outcomeRows() {
		t.Run(row.name, func(t *testing.T) {
			rig := row.rig(t)
			before, peerBefore := rig.p.Stats(), peerCounters(rig.p)
			resp := rig.do()
			after, peerAfter := rig.p.Stats(), peerCounters(rig.p)

			if resp.Status != row.status {
				t.Errorf("status = %d, want %d", resp.Status, row.status)
			}
			if got := resp.Header.Get("X-Cache"); got != row.xcache {
				t.Errorf("X-Cache = %q, want %q", got, row.xcache)
			}
			if got := resp.Header.Get("Warning"); got != row.warning {
				t.Errorf("Warning = %q, want %q", got, row.warning)
			}
			if row.body != "" && string(resp.Body) != row.body {
				t.Errorf("body = %.40q, want %.40q", resp.Body, row.body)
			}
			checkStatsDelta(t, before, after, row.stats)
			for name, a := range peerAfter {
				if d := a - peerBefore[name]; d != row.peer[name] {
					t.Errorf("%s moved by %d, want %d", name, d, row.peer[name])
				}
			}
			for name := range row.peer {
				if _, ok := peerAfter[name]; !ok {
					t.Errorf("%s not registered", name)
				}
			}
		})
	}
}

// checkStatsDelta compares after-before field by field with want.
func checkStatsDelta(t *testing.T, before, after, want Stats) {
	t.Helper()
	b, a, w := reflect.ValueOf(before), reflect.ValueOf(after), reflect.ValueOf(want)
	for i := 0; i < w.NumField(); i++ {
		if d := a.Field(i).Int() - b.Field(i).Int(); d != w.Field(i).Int() {
			t.Errorf("Stats.%s moved by %d, want %d", w.Type().Field(i).Name, d, w.Field(i).Int())
		}
	}
}

// peerCounters snapshots every peer.* counter in p's registry.
func peerCounters(p *Proxy) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range p.Obs().Snapshot().Counters {
		if strings.HasPrefix(name, "peer.") {
			out[name] = v
		}
	}
	return out
}
