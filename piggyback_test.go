package piggyback_test

import (
	"context"
	"net"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
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
