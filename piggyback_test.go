package piggyback_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/sim"
	"piggyback/internal/tracegen"
)

// TestPublicAPIEndToEnd runs every layer in one flow: generate a
// workload, evaluate it with the simulator, stand up an origin with
// volumes, front it with a caching proxy, and browse through it.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Workload.
	log, site := tracegen.GenerateServerLog(tracegen.SiteConfig{
		Name: "api-test", Seed: 5, Pages: 30, Dirs: 4, MaxDepth: 2,
		MeanImagesPerPage: 2, Clients: 8, Requests: 800, Duration: 3600 * 6,
	})
	if len(log) != 800 {
		t.Fatalf("log length %d", len(log))
	}

	// Offline evaluation via the simulator.
	b := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.1})
	for _, rec := range log {
		b.Observe(rec)
	}
	vols := b.Build(0)
	res := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
	if res.Requests != len(log) {
		t.Fatalf("sim requests %d", res.Requests)
	}
	if res.FractionPredicted() <= 0 {
		t.Error("no predictions on a session workload")
	}

	// Live protocol.
	now := log[0].Time
	clock := func() int64 { return now }
	store := server.NewStore()
	for _, r := range site.ResourceTable() {
		store.Put(server.Resource{URL: r.URL, Size: r.Size, LastModified: r.LastModifiedAt(site.Config.StartTime)})
	}
	origin := server.New(store,
		core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10}), clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:      600,
		Clock:      clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(pl)
	defer psrv.Close()

	client := httpwire.NewClient()
	defer client.Close()
	for i := 0; i < 100; i++ {
		now = log[i].Time
		req := httpwire.NewRequest("GET", "http://www.api.test"+log[i].URL)
		resp, err := client.DoContext(context.Background(), pl.Addr().String(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d for %s", i, resp.Status, log[i].URL)
		}
	}
	st := px.Stats()
	if st.ClientRequests != 100 {
		t.Errorf("ClientRequests = %d", st.ClientRequests)
	}
	if st.PiggybacksReceived == 0 {
		t.Error("no piggybacks over the live protocol")
	}
	if px.CacheHitRate() <= 0 {
		t.Error("no cache hits")
	}
}

// TestProxyConcurrentClients puts 64 clients, each with its own
// connection, on a proxy over loopback TCP: 200 resources, 64 requests per
// client, a miss on each resource's first touch and hits after. Run under
// -race. No request may fail; the proxy's server side answers each request
// in one vectored write; and concurrent misses spread over more than one
// pooled origin connection.
func TestProxyConcurrentClients(t *testing.T) {
	const clients, perClient, nRes, size = 64, 64, 200, 2000
	now := int64(899637753)
	clock := func() int64 { return now }
	st := server.NewStore()
	for i := 0; i < nRes; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%03d.html", i), Size: size, LastModified: now - 86400})
	}
	origin := server.New(st,
		core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10}), clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:      3600,
		Clock:      clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px, Obs: obs.NewWireMetrics(px.Obs(), "wire.server")}
	go psrv.Serve(pl)
	defer psrv.Close()

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := httpwire.NewClient()
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				url := fmt.Sprintf("http://www.load.test/a/r%03d.html", (c*perClient+i)%nRes)
				resp, err := cl.DoContext(context.Background(), pl.Addr().String(), httpwire.NewRequest("GET", url))
				if err == nil && (resp.Status != 200 || len(resp.Body) != size) {
					err = fmt.Errorf("status %d, %d body bytes", resp.Status, len(resp.Body))
				}
				if err != nil {
					errs <- fmt.Errorf("client %d, %s: %v", c, url, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// conns_open is a live gauge: read it while the proxy still pools.
	conns := px.Obs().Snapshot().Counter("wire.upstream.conns_open")
	if conns <= 1 {
		t.Errorf("%d clients used %d pooled origin connections, want > 1", clients, conns)
	}
	// Closing the server drains its connection goroutines, so the
	// syscall counters are final.
	psrv.Close()
	snap := px.Obs().Snapshot()
	served := snap.Counter("wire.server.requests")
	if served != clients*perClient {
		t.Fatalf("server counted %d requests, want %d", served, clients*perClient)
	}
	writes := float64(snap.Counter("wire.server.syscalls.writes")) / float64(served)
	if writes > 1.1 {
		t.Errorf("%.3f write syscalls per request, want <= 1.1", writes)
	}
	t.Logf("%d requests: %.3f writes/request, %d pooled origin connections", served, writes, conns)
}
