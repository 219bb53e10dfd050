package center

import (
	"context"
	"net"
	"strings"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// plainOrigin is a NON-cooperating origin: it serves resources but knows
// nothing about volumes or piggybacking.
func plainOrigin(t *testing.T, clock func() int64, hosts map[string]*server.Store) string {
	t.Helper()
	// One listener serving all hosts, dispatching on the Host header.
	h := httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		if req.Header.Has(httpwire.FieldPiggyFilter) || req.Header.Has(httpwire.FieldPiggyHits) {
			t.Errorf("piggyback header leaked to origin")
		}
		st, ok := hosts[req.Header.Get("Host")]
		if !ok {
			return httpwire.NewResponse(404)
		}
		// A plain static server: no volume engine at all.
		return server.New(st, nil, clock).ServeWire(context.Background(), req)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func newCenterBed(t *testing.T) (ctr *Center, ctrAddr string, now *int64, stores map[string]*server.Store) {
	t.Helper()
	n := int64(10000)
	now = &n
	clock := func() int64 { return *now }

	stores = map[string]*server.Store{
		"www.one.com": server.NewStore(),
		"www.two.com": server.NewStore(),
	}
	stores["www.one.com"].Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	stores["www.one.com"].Put(server.Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	stores["www.two.com"].Put(server.Resource{URL: "/a/z.html", Size: 70, LastModified: 800})
	originAddr := plainOrigin(t, clock, stores)

	ctr = New(Config{
		Resolve: func(host string) (string, error) { return originAddr, nil },
		Clock:   clock,
	})
	t.Cleanup(ctr.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: ctr}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return ctr, l.Addr().String(), now, stores
}

func doVia(t *testing.T, c *httpwire.Client, addr, host, path string, f *core.Filter) *httpwire.Response {
	t.Helper()
	req := httpwire.NewRequest("GET", path)
	req.Header.Set("Host", host)
	if f != nil {
		httpwire.SetFilter(req, *f)
	}
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCenterRelaysTransparently(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", nil)
	if resp.Status != 200 || len(resp.Body) != 100 {
		t.Fatalf("relay: %d, %d bytes", resp.Status, len(resp.Body))
	}
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback injected for a filterless client")
	}
}

func TestCenterInjectsPiggybackOnBehalfOfOrigin(t *testing.T) {
	ctr, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	// Warm the center's volumes.
	doVia(t, c, addr, "www.one.com", "/a/y.gif", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("center did not inject a piggyback")
	}
	found := false
	for _, e := range m.Elements {
		if !strings.HasPrefix(e.URL, "www.one.com/") {
			t.Errorf("center element not host-qualified: %q", e.URL)
		}
		if e.URL == "www.one.com/a/y.gif" {
			found = true
			if e.LastModified != 1500 || e.Size != 50 {
				t.Errorf("element attributes: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("expected www.one.com/a/y.gif, got %+v", m.Elements)
	}
	if st := ctr.Stats(); st.PiggybacksSent != 1 || st.Relayed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCenterKeepsSitesInSeparateVolumes(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	doVia(t, c, addr, "www.two.com", "/a/z.html", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	if m, ok := httpwire.ExtractPiggyback(resp); ok {
		for _, e := range m.Elements {
			if strings.HasPrefix(e.URL, "www.two.com/") {
				t.Errorf("cross-site element in one.com volume: %q", e.URL)
			}
		}
	}
}

func TestCenterHonorsRPVFilter(t *testing.T) {
	ctr, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	doVia(t, c, addr, "www.one.com", "/a/y.gif", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback")
	}
	f2 := &core.Filter{MaxPiggy: 10, RPV: []core.VolumeID{m.Volume}}
	resp2 := doVia(t, c, addr, "www.one.com", "/a/x.html", f2)
	if _, ok := httpwire.ExtractPiggyback(resp2); ok {
		t.Error("RPV-listed volume piggybacked anyway")
	}
	if ctr.Stats().PiggybacksSent != 1 {
		t.Errorf("stats = %+v", ctr.Stats())
	}
}

func TestCenterPassesThroughConditionalRequests(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.one.com")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 304 {
		t.Errorf("status = %d, want 304 through the center", resp.Status)
	}
}

func TestCenterUpstreamError(t *testing.T) {
	clock := func() int64 { return 1 }
	ctr := New(Config{
		Resolve: func(host string) (string, error) { return "127.0.0.1:1", nil },
		Clock:   clock,
	})
	defer ctr.Close()
	req := httpwire.NewRequest("GET", "/x")
	req.Header.Set("Host", "dead.example.com")
	if resp := ctr.ServeWire(context.Background(), req); resp.Status != 502 {
		t.Errorf("status = %d, want 502", resp.Status)
	}
}

func TestProxyThroughCenterEndToEnd(t *testing.T) {
	// The full §1 deployment: client -> caching proxy -> volume center ->
	// plain origin. The proxy's piggyback machinery works unchanged even
	// though the origin knows nothing about the protocol.
	_, ctrAddr, nowp, _ := newCenterBed(t)

	px := proxy.New(proxy.Config{
		Delta:   600,
		Clock:   func() int64 { return *nowp },
		Resolve: func(host string) (string, error) { return ctrAddr, nil },
	})
	defer px.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(l)
	defer psrv.Close()

	c := httpwire.NewClient()
	defer c.Close()
	get := func(url string) *httpwire.Response {
		resp, err := c.DoContext(context.Background(), l.Addr().String(), httpwire.NewRequest("GET", "http://"+url))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get("www.one.com/a/y.gif")
	*nowp += 5
	get("www.one.com/a/x.html")
	st := px.Stats()
	if st.PiggybacksReceived == 0 {
		t.Fatal("proxy received no piggyback through the center")
	}
	if st.Refreshes == 0 {
		t.Errorf("piggyback did not refresh the cached entry: %+v", st)
	}
}

func TestCenterConsumesPiggyHits(t *testing.T) {
	ctr, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.one.com")
	httpwire.SetHits(req, []string{"/a/y.gif", "/a/x.html"})
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("relay: %v %d", err, resp.Status)
	}
	if got := ctr.Stats().HitReports; got != 2 {
		t.Errorf("HitReports = %d, want 2", got)
	}
	// The plain origin asserts (in plainOrigin) that Piggy-Filter never
	// leaks; verify Piggy-Hits is also stripped by checking the volume
	// learned the hit: y.gif should now be in one.com's volume.
	if id, ok := ctr.Volumes().(interface {
		VolumeOf(string) (core.VolumeID, bool)
	}); ok {
		if _, found := id.VolumeOf("www.one.com/a/y.gif"); !found {
			t.Error("hit-reported resource not folded into volumes")
		}
	}
}

// TestCenterHitReportKeepsAttributes pins that a Piggy-Hits report, which
// names a URL but not its size or Last-Modified, counts as an access
// without erasing the attributes the center learned from the origin: the
// next trailer still advertises the real size and Last-Modified, so a
// proxy does not freshen a copy the origin may have replaced.
func TestCenterHitReportKeepsAttributes(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := core.Filter{MaxPiggy: 10}
	doVia(t, c, addr, "www.one.com", "/a/x.html", &f)

	req := httpwire.NewRequest("GET", "/a/y.gif")
	req.Header.Set("Host", "www.one.com")
	httpwire.SetFilter(req, f)
	httpwire.SetHits(req, []string{"/a/x.html"})
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("relay: %v %d", err, resp.Status)
	}
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback")
	}
	for _, e := range m.Elements {
		if e.URL == "www.one.com/a/x.html" {
			if e.Size != 100 || e.LastModified != 1000 {
				t.Errorf("hit report erased attributes: %+v, want size 100, Last-Modified 1000", e)
			}
			return
		}
	}
	t.Errorf("x.html missing from the trailer: %+v", m.Elements)
}
