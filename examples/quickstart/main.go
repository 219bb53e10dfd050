// Quickstart: the complete piggybacking exchange of §2 over loopback TCP.
//
// A cooperating origin server holds a small site and maintains 1-level
// directory volumes. A caching proxy forwards client requests, attaching a
// Piggy-Filter header with its RPV list; the server answers with the
// resource plus a P-Volume trailer, which the proxy uses to refresh its
// cache. The example prints the actual protocol artifacts: the filter
// header the proxy would send, the piggyback message the server returned,
// and the cache effects.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

func main() {
	now := time.Date(1998, 7, 5, 12, 0, 0, 0, time.UTC).Unix()
	clock := func() int64 { return now }

	// --- Origin server: a small site with two directories. ---
	store := server.NewStore()
	for _, r := range []server.Resource{
		{URL: "/news/index.html", Size: 4096, LastModified: now - 7200},
		{URL: "/news/logo.gif", Size: 1024, LastModified: now - 86400},
		{URL: "/news/story1.html", Size: 8192, LastModified: now - 3600},
		{URL: "/papers/volumes.ps", Size: 230000, LastModified: now - 999999},
	} {
		store.Put(r)
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	origin := server.New(store, vols, clock)

	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()
	fmt.Println("origin server on", ol.Addr())

	// --- Caching proxy. ---
	px := proxy.New(proxy.Config{
		Delta:      600, // freshness interval Δ
		Clock:      clock,
		Resolve:    func(host string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(pl)
	defer psrv.Close()
	fmt.Println("caching proxy on", pl.Addr())

	// --- A client browsing through the proxy. ---
	client := httpwire.NewClient()
	defer client.Close()
	get := func(url string) {
		req := httpwire.NewRequest("GET", "http://"+url)
		resp, err := client.DoContext(context.Background(), pl.Addr().String(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET %-34s -> %d, %5d bytes, X-Cache=%s\n",
			url, resp.Status, len(resp.Body), resp.Header.Get("X-Cache"))
	}

	fmt.Println("\n-- first visit: misses populate cache and volumes --")
	get("www.example.com/news/index.html")
	now += 2
	get("www.example.com/news/logo.gif")
	now += 3
	get("www.example.com/news/story1.html")

	// Show the raw exchange a cooperating proxy performs (§2.3): filter
	// on the request, P-Volume in the response trailer.
	fmt.Println("\n-- the raw piggyback exchange (direct to origin) --")
	req := httpwire.NewRequest("GET", "/news/index.html")
	filter := core.Filter{MaxPiggy: 10}
	httpwire.SetFilter(req, filter)
	fmt.Printf("request:  GET /news/index.html\n")
	fmt.Printf("          TE: chunked\n")
	fmt.Printf("          Piggy-Filter: %s\n", filter.Header())
	direct := httpwire.NewClient()
	defer direct.Close()
	resp, err := direct.DoContext(context.Background(), ol.Addr().String(), req)
	if err != nil {
		log.Fatal(err)
	}
	if m, ok := httpwire.ExtractPiggyback(resp); ok {
		fmt.Printf("response: %d with trailer\n", resp.Status)
		fmt.Printf("          P-Volume: %s\n", m.Encode())
		fmt.Printf("          (%d elements, %d wire bytes)\n", len(m.Elements), m.WireBytes())
	} else {
		fmt.Println("response carried no piggyback")
	}

	fmt.Println("\n-- second visit 10 minutes later: entries are stale, but the piggyback")
	fmt.Println("   on the first request refreshes the rest of the volume --")
	now += 600
	get("www.example.com/news/index.html")  // validates; piggyback refreshes siblings
	get("www.example.com/news/logo.gif")    // fresh again without contacting origin
	get("www.example.com/news/story1.html") // fresh again without contacting origin

	st := px.Stats()
	fmt.Printf("\nproxy: %d client requests, %d fresh hits, %d validations, %d piggybacks, %d refreshes\n",
		st.ClientRequests, st.FreshHits, st.Validations, st.PiggybacksReceived, st.Refreshes)
	fmt.Printf("origin saw %d requests\n", origin.Stats().Requests)
}
