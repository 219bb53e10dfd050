package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// stack is one origin → proxy deployment on loopback, built from the
// public constructors the daemons use. The listeners are plain TCP
// listeners, so both servers see bare *net.TCPConn connections and keep
// their vectored-write path.
type stack struct {
	origin    *server.Server
	proxy     *proxy.Proxy
	osrv      *httpwire.Server
	psrv      *httpwire.Server
	proxyAddr string
	// layers is nil for an untraced stack.
	layers *layers
	// serveDone receives each Serve goroutine's exit.
	serveDone chan struct{}
}

// rpvTimeout is how long the proxy lists a volume it has heard from as
// recently piggybacked (§2.2), for every workload; the proxy caps it at Δ.
// Left at its default of Δ, hot-hits' ten-year Δ would silence every
// piggyback after the first one per volume.
const rpvTimeout = 900

// newStack starts an origin serving store and a proxy in front of it.
// With traced set, the benchmark's span wrappers sit around the proxy
// handler, the origin handler, the proxy's store and the origin's volume
// engine.
func newStack(w workload, store *server.Store, clock func() int64, traced bool, workdir string) (*stack, error) {
	st := &stack{serveDone: make(chan struct{}, 2)}
	if traced {
		st.layers = &layers{}
	}

	var vols core.Provider = core.NewDirVolumes(core.DirConfig{
		Level: 1, MTF: true, ServerMaxPiggy: maxPiggy, PartitionByType: true,
	})
	if traced {
		vols = tracedVolumes{p: vols, l: st.layers}
	}
	st.origin = server.New(store, vols, clock)
	var oh httpwire.Handler = st.origin
	if traced {
		oh = tracedOrigin{h: oh, l: st.layers}
	}
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	st.osrv = &httpwire.Server{Handler: oh, Obs: obs.NewWireMetrics(st.origin.Obs(), "wire.server")}
	go st.serve(st.osrv, ol)
	originAddr := ol.Addr().String()

	ram := cache.NewSharded(w.ramBytes, 0, cache.PolicyFactory(cache.PiggybackLRU{}))
	var cs cache.Store = ram
	if w.diskBytes > 0 {
		dir, err := os.MkdirTemp(workdir, "tier-")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("disk tier dir: %w", err)
		}
		ts, err := tiered.New(ram, tiered.Config{Dir: dir, DiskBytes: w.diskBytes})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("disk tier: %w", err)
		}
		cs = ts
	}
	if traced {
		cs = tracedStore{Store: cs, l: st.layers}
	}
	st.proxy = proxy.New(proxy.Config{
		Store:         cs,
		Delta:         w.delta,
		RPVTimeout:    rpvTimeout,
		BaseFilter:    core.Filter{MaxPiggy: maxPiggy},
		DeltaEncoding: true,
		Clock:         clock,
		Resolve:       func(string) (string, error) { return originAddr, nil },
	})
	var ph httpwire.Handler = st.proxy
	if traced {
		ph = tracedProxy{h: ph, l: st.layers}
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	st.psrv = &httpwire.Server{Handler: ph, Obs: obs.NewWireMetrics(st.proxy.Obs(), "wire.server")}
	go st.serve(st.psrv, pl)
	st.proxyAddr = pl.Addr().String()
	return st, nil
}

func (st *stack) serve(s *httpwire.Server, l net.Listener) {
	_ = s.Serve(l) // returns net.ErrClosed once close shuts the server
	st.serveDone <- struct{}{}
}

// close stops both servers, waits for their accept loops and closes the
// proxy, which closes its store. The disk tier's directory is left to the
// caller.
func (st *stack) close() {
	started := 0
	if st.psrv != nil {
		st.psrv.Close()
		started++
	}
	if st.proxy != nil {
		st.proxy.Close()
	}
	if st.osrv != nil {
		st.osrv.Close()
		started++
	}
	for i := 0; i < started; i++ {
		select {
		case <-st.serveDone:
		case <-time.After(10 * time.Second):
			fmt.Fprintln(os.Stderr, "perfbench: server did not stop")
		}
	}
}
