package proxy

import (
	"context"
	"fmt"
	"net"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// TestProxyRestartWarm restarts a proxy over a disk-tiered store. The
// first generation requests every resource twice (the demotion gate keeps
// only entries that served a hit) and closes, which flushes its working
// set to disk. A successor over the same directory must serve from disk
// and send the origin at most half the fetches a cold successor sends.
func TestProxyRestartWarm(t *testing.T) {
	const n = 100
	now := int64(10000)
	clock := func() int64 { return now }
	st := server.NewStore()
	for i := 0; i < n; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%03d.html", i), Size: 500, LastModified: 1000})
	}
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: server.New(st, nil, clock)}
	go osrv.Serve(ol)
	t.Cleanup(func() { osrv.Close() })

	dir := t.TempDir()
	newProxy := func(disk bool) *Proxy {
		cfg := Config{
			Delta:   3600,
			Clock:   clock,
			Resolve: func(string) (string, error) { return ol.Addr().String(), nil },
		}
		if disk {
			ts, err := tiered.New(cache.NewSharded(1<<20, 0, nil), tiered.Config{Dir: dir, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = ts
		}
		return New(cfg)
	}
	bodies := make(map[string]string, n)
	// browse requests every resource once and checks each answer against
	// the first body seen for its URL.
	browse := func(p *Proxy) {
		t.Helper()
		for i := 0; i < n; i++ {
			url := fmt.Sprintf("http://www.site.com/a/r%03d.html", i)
			resp := p.ServeWire(context.Background(), httpwire.NewRequest("GET", url))
			if resp.Status != 200 {
				t.Fatalf("%s: status %d", url, resp.Status)
			}
			if want, ok := bodies[url]; !ok {
				bodies[url] = string(resp.Body)
			} else if string(resp.Body) != want {
				t.Fatalf("%s: body differs from the first generation's", url)
			}
		}
	}
	fetches := func(s Stats) int { return s.MissFetches + s.Validations }

	gen1 := newProxy(true)
	browse(gen1)
	browse(gen1)
	gen1.Close()

	warm := newProxy(true)
	browse(warm)
	ws, diskHits := warm.Stats(), warm.CacheStats().DiskHits
	warm.Close()

	cold := newProxy(false)
	browse(cold)
	cs := cold.Stats()
	cold.Close()

	if diskHits == 0 {
		t.Error("restart over the disk tier served no disk hits")
	}
	if w, c := fetches(ws), fetches(cs); 2*w > c {
		t.Errorf("warm restart sent %d origin fetches, cold %d: want warm <= cold/2", w, c)
	}
	t.Logf("warm: %d disk hits, %d origin fetches; cold: %d origin fetches",
		diskHits, fetches(ws), fetches(cs))
}
