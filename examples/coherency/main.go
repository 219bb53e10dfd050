// Coherency: piggyback cache coherency versus plain TTL expiration (§4).
//
// A business-news page changes at the origin every few minutes. A plain
// TTL proxy keeps serving the stale copy until Δ expires; a piggybacking
// proxy learns about the change from the P-Volume trailer on an unrelated
// request in the same volume and invalidates the stale copy immediately.
// The example replays the same client activity against both proxies and
// counts stale responses.
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

const delta = 900 // freshness interval Δ in seconds

func main() {
	now := time.Date(1998, 7, 5, 9, 0, 0, 0, time.UTC).Unix()
	clock := func() int64 { return now }

	store := server.NewStore()
	store.Put(server.Resource{URL: "/market/quotes.html", Size: 2000, LastModified: now - 60})
	store.Put(server.Resource{URL: "/market/index.html", Size: 3000, LastModified: now - 7200})
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	origin := server.New(store, vols, clock)

	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	newProxy := func(filter core.Filter) (*proxy.Proxy, string) {
		px := proxy.New(proxy.Config{
			Delta:      delta,
			RPVTimeout: 60, // §2.2: smaller than Δ improves freshness
			Clock:      clock,
			Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
			BaseFilter: filter,
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &httpwire.Server{Handler: px}
		go srv.Serve(l)
		return px, l.Addr().String()
	}
	// The plain proxy disables piggybacking entirely; the piggybacking
	// proxy asks for up to 10 elements.
	plain, plainAddr := newProxy(core.Filter{Disabled: true})
	piggy, piggyAddr := newProxy(core.Filter{MaxPiggy: 10})
	defer plain.Close()
	defer piggy.Close()

	client := httpwire.NewClient()
	defer client.Close()

	// lastModAt answers "what version should a fresh response carry now".
	get := func(addr, url string) (stale bool) {
		req := httpwire.NewRequest("GET", "http://www.biz.example"+url)
		resp, err := client.DoContext(context.Background(), addr, req)
		if err != nil {
			log.Fatal(err)
		}
		current, _ := store.Get(url)
		lm, _ := resp.LastModified()
		return lm < current.LastModified
	}

	staleCount := map[string]int{}
	serves := 0
	for round := 0; round < 12; round++ {
		// Both proxies cache both pages...
		for _, url := range []string{"/market/index.html", "/market/quotes.html"} {
			if get(plainAddr, url) {
				staleCount["plain-ttl"]++
			}
			if get(piggyAddr, url) {
				staleCount["piggyback"]++
			}
			serves++
		}
		// ...the quotes page changes well inside Δ...
		now += 180
		store.Modify("/market/quotes.html", now, 0)

		// ...and a fresh story is published in the same volume. Reading
		// it forces an upstream request, whose response piggybacks the
		// new Last-Modified of quotes.html.
		now += 30
		story := fmt.Sprintf("/market/story-%02d.html", round)
		store.Put(server.Resource{URL: story, Size: 1500, LastModified: now})
		get(plainAddr, story)
		get(piggyAddr, story)
		serves++

		// The next read of quotes.html inside Δ:
		now += 30
		if get(plainAddr, "/market/quotes.html") {
			staleCount["plain-ttl"]++
		}
		if get(piggyAddr, "/market/quotes.html") {
			staleCount["piggyback"]++
		}
		serves++
		now += 120
	}

	fmt.Printf("replayed %d client reads while the quotes page changed every ~6 min (Δ=%ds)\n\n", serves*2, delta)
	fmt.Printf("%-12s %s\n", "proxy", "stale responses served")
	fmt.Printf("%-12s %d\n", "plain-ttl", staleCount["plain-ttl"])
	fmt.Printf("%-12s %d\n", "piggyback", staleCount["piggyback"])

	ps := piggy.Stats()
	fmt.Printf("\npiggybacking proxy: %d piggybacks received, %d invalidations, %d refreshes\n",
		ps.PiggybacksReceived, ps.Invalidations, ps.Refreshes)
	if staleCount["piggyback"] < staleCount["plain-ttl"] {
		fmt.Println("piggyback coherency served fewer stale responses, without shrinking Δ")
	}
}
