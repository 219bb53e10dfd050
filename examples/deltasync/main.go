// Deltasync: delta-encoded validations (§4, ref [23]).
//
// A large page changes frequently at the origin. A plain proxy re-fetches
// the whole body on every change; a delta-aware proxy sends
// "A-IM: blockdiff" with its If-Modified-Since and receives a 226 response
// carrying only the changed blocks, reconstructing the new version from
// its cached copy. The example counts the body bytes each proxy pulls over
// the wire for the same client activity.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

const pageSize = 64 << 10 // a hefty 64 kB page

func main() {
	now := time.Date(1998, 7, 5, 10, 0, 0, 0, time.UTC).Unix()
	clock := func() int64 { return now }

	store := server.NewStore()
	store.Put(server.Resource{URL: "/reports/daily.html", Size: pageSize, LastModified: now - 50})
	origin := server.New(store, nil, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	newProxy := func(delta bool) (*proxy.Proxy, string) {
		px := proxy.New(proxy.Config{
			Delta:         300,
			Clock:         clock,
			Resolve:       func(string) (string, error) { return ol.Addr().String(), nil },
			DeltaEncoding: delta,
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &httpwire.Server{Handler: px}
		go srv.Serve(l)
		return px, l.Addr().String()
	}
	plain, plainAddr := newProxy(false)
	smart, smartAddr := newProxy(true)
	defer plain.Close()
	defer smart.Close()

	client := httpwire.NewClient()
	defer client.Close()
	get := func(addr string) int {
		resp, err := client.DoContext(context.Background(), addr, httpwire.NewRequest("GET", "http://reports.example/reports/daily.html"))
		if err != nil {
			log.Fatal(err)
		}
		if resp.Status != 200 || len(resp.Body) != pageSize {
			log.Fatalf("bad response: %d, %d bytes", resp.Status, len(resp.Body))
		}
		return len(resp.Body)
	}

	fmt.Printf("a %d kB report page changes every ~6 minutes; clients re-read it after each change\n\n", pageSize/1024)
	for round := 0; round < 10; round++ {
		get(plainAddr)
		get(smartAddr)
		now += 360 // past Δ
		store.Modify("/reports/daily.html", now, 0)
		now += 10
	}

	ps, ss := plain.Stats(), smart.Stats()
	os := origin.Stats()
	fmt.Printf("%-14s %-12s %s\n", "proxy", "validations", "delta updates (body bytes saved)")
	fmt.Printf("%-14s %-12d -\n", "plain", ps.Validations)
	fmt.Printf("%-14s %-12d %d (%d)\n", "delta-aware", ss.Validations, ss.DeltaUpdates, ss.DeltaBytesSaved)
	fmt.Printf("\norigin sent %d delta responses, saving %d body bytes on the wire\n",
		os.DeltasSent, os.DeltaBytesSaved)
	if ss.DeltaBytesSaved > 0 {
		pct := 100 * float64(ss.DeltaBytesSaved) / float64(int64(ss.DeltaUpdates)*pageSize)
		fmt.Printf("the delta-aware proxy transferred %.1f%% fewer body bytes per update\n", pct)
	}
}
