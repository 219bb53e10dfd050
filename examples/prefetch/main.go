// Prefetch: piggyback-guided prefetching and informed fetching (§4).
//
// Two proxies front different client populations on one origin. The
// server's volumes aggregate access patterns across both, so when proxy
// B's clients start browsing a section that only proxy A's clients have
// visited, B's first response piggybacks the section's hot resources —
// and B prefetches them, smallest first (informed fetching), before its
// clients ask.
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
	now := time.Date(1998, 7, 5, 15, 0, 0, 0, time.UTC).Unix()
	clock := func() int64 { return now }

	// Origin: a "software" section with a page and its downloads.
	store := server.NewStore()
	section := []server.Resource{
		{URL: "/software/index.html", Size: 3000, LastModified: now - 86400},
		{URL: "/software/shot1.gif", Size: 18000, LastModified: now - 86400},
		{URL: "/software/shot2.gif", Size: 22000, LastModified: now - 86400},
		{URL: "/software/readme.txt", Size: 900, LastModified: now - 86400},
		{URL: "/software/pkg.tar", Size: 150000, LastModified: now - 86400},
	}
	for _, r := range section {
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

	newProxy := func() (*proxy.Proxy, string) {
		px := proxy.New(proxy.Config{
			Delta:      900,
			Clock:      clock,
			Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
			BaseFilter: core.Filter{MaxPiggy: 10},
			Prefetch:   true,
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &httpwire.Server{Handler: px}
		go srv.Serve(l)
		return px, l.Addr().String()
	}
	proxyA, addrA := newProxy()
	proxyB, addrB := newProxy()
	defer proxyA.Close()
	defer proxyB.Close()

	client := httpwire.NewClient()
	defer client.Close()
	get := func(addr, url string) string {
		resp, err := client.DoContext(context.Background(), addr, httpwire.NewRequest("GET", "http://www.sw.example"+url))
		if err != nil {
			log.Fatal(err)
		}
		return resp.Header.Get("X-Cache")
	}

	fmt.Println("-- proxy A's clients browse the software section --")
	for _, r := range section {
		get(addrA, r.URL)
		now += 2
	}

	fmt.Println("-- proxy B's first client opens the section index --")
	get(addrB, "/software/index.html")

	fmt.Println("-- B's piggyback named the section's resources; its informed queue")
	fmt.Println("   holds them smallest-first: --")
	q := proxyB.Queue()
	order := []proxy.FetchItem{}
	for q.Len() > 0 {
		it, _ := q.Pop()
		order = append(order, it)
		fmt.Printf("   %-28s %7d bytes\n", it.URL, it.Size)
	}
	// Re-queue in the observed order and actually prefetch.
	for _, it := range order {
		q.Push(it)
	}
	n := proxyB.DrainPrefetchesContext(context.Background(), 10)
	fmt.Printf("-- prefetched %d resources --\n", n)

	fmt.Println("-- B's clients now browse the section: --")
	hits := 0
	for _, r := range section[1:] {
		now += 2
		how := get(addrB, r.URL)
		fmt.Printf("   GET %-28s X-Cache=%s\n", r.URL, how)
		if how == "HIT" {
			hits++
		}
	}
	st := proxyB.Stats()
	fmt.Printf("\nproxy B: %d prefetches, %d useful, %d/%d section requests served from cache\n",
		st.Prefetches, st.UsefulPrefetches, hits, len(section)-1)
}
