package main

import (
	"context"
	"sync/atomic"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

// span aggregates the spans recorded at one layer boundary: how many, and
// their total duration. The layers nest strictly (client ⊃ proxy ⊃ cache,
// upstream exchange ⊃ origin ⊃ volumes), so a layer's self time is its
// total minus its children's totals; request identity is not needed, and
// it could not follow a request across the proxy's upstream hop anyway.
type span struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (s *span) since(start time.Time) {
	s.n.Add(1)
	s.ns.Add(int64(time.Since(start)))
}

// spanTotal is a span's value at one instant.
type spanTotal struct{ n, ns int64 }

func (s *span) load() spanTotal { return spanTotal{s.n.Load(), s.ns.Load()} }

func (t spanTotal) sub(o spanTotal) spanTotal { return spanTotal{t.n - o.n, t.ns - o.ns} }

// meanNs is the mean span duration in ns, 0 when no span was recorded.
func (t spanTotal) meanNs() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n)
}

// layers holds every span the traced stack records. The benchmark's own
// wrappers record them around the public boundary of each layer; nothing
// inside the program is instrumented.
type layers struct {
	proxyHit      span // proxy ServeWire answered from cache (X-Cache: HIT)
	proxyUpstream span // every other proxy ServeWire
	origin        span // origin ServeWire
	lookup        span // cache.Store.Lookup
	put           span // cache.Store.Put
	// update covers cache.Store.Freshen and ApplyPiggyback: the calls that
	// change an entry's metadata and move no body. Freshen runs only after
	// a 304, which the static hot-hits origin never sends, so the two are
	// timed together to give every workload a measured value.
	update    span
	observe   span // core.Provider.Observe
	piggyback span // core.Provider.Piggyback
	// piggybackEmpty counts Piggyback calls that produced no message.
	piggybackEmpty atomic.Int64
}

// layerTotals is a snapshot of every span, for windowing.
type layerTotals struct {
	proxyHit, proxyUpstream, origin spanTotal
	lookup, put, update             spanTotal
	observe, piggyback              spanTotal
	piggybackEmpty                  int64
}

func (l *layers) load() layerTotals {
	return layerTotals{
		proxyHit: l.proxyHit.load(), proxyUpstream: l.proxyUpstream.load(), origin: l.origin.load(),
		lookup: l.lookup.load(), put: l.put.load(), update: l.update.load(),
		observe: l.observe.load(), piggyback: l.piggyback.load(),
		piggybackEmpty: l.piggybackEmpty.Load(),
	}
}

func (t layerTotals) sub(o layerTotals) layerTotals {
	return layerTotals{
		proxyHit: t.proxyHit.sub(o.proxyHit), proxyUpstream: t.proxyUpstream.sub(o.proxyUpstream),
		origin: t.origin.sub(o.origin), lookup: t.lookup.sub(o.lookup), put: t.put.sub(o.put),
		update:    t.update.sub(o.update),
		observe:   t.observe.sub(o.observe),
		piggyback: t.piggyback.sub(o.piggyback), piggybackEmpty: t.piggybackEmpty - o.piggybackEmpty,
	}
}

// cache is the total of the cache spans.
func (t layerTotals) cache() spanTotal {
	var s spanTotal
	for _, c := range []spanTotal{t.lookup, t.put, t.update} {
		s.n += c.n
		s.ns += c.ns
	}
	return s
}

// tracedProxy records the proxy layer's span around *proxy.Proxy.
type tracedProxy struct {
	h httpwire.Handler
	l *layers
}

func (t tracedProxy) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	start := time.Now()
	resp := t.h.ServeWire(ctx, req)
	if resp.Header.Get("X-Cache") == "HIT" {
		t.l.proxyHit.since(start)
	} else {
		t.l.proxyUpstream.since(start)
	}
	return resp
}

// tracedOrigin records the origin layer's span around *server.Server.
type tracedOrigin struct {
	h httpwire.Handler
	l *layers
}

func (t tracedOrigin) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	start := time.Now()
	resp := t.h.ServeWire(ctx, req)
	t.l.origin.since(start)
	return resp
}

// tracedStore records the cache layer's spans around the proxy's store.
// It overrides the four calls the proxy's request path makes; the rest
// pass straight through.
type tracedStore struct {
	cache.Store
	l *layers
}

func (s tracedStore) Lookup(url string, now int64) (cache.View, bool) {
	start := time.Now()
	v, ok := s.Store.Lookup(url, now)
	s.l.lookup.since(start)
	return v, ok
}

func (s tracedStore) Put(e cache.Entry, now int64) []string {
	start := time.Now()
	ev := s.Store.Put(e, now)
	s.l.put.since(start)
	return ev
}

func (s tracedStore) Freshen(url string, expires int64) bool {
	start := time.Now()
	ok := s.Store.Freshen(url, expires)
	s.l.update.since(start)
	return ok
}

func (s tracedStore) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) cache.PiggybackOutcome {
	start := time.Now()
	out := s.Store.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	s.l.update.since(start)
	return out
}

// tracedVolumes records the volumes layer's spans around the origin's
// volume engine.
type tracedVolumes struct {
	p core.Provider
	l *layers
}

func (v tracedVolumes) Observe(a core.Access) {
	start := time.Now()
	v.p.Observe(a)
	v.l.observe.since(start)
}

func (v tracedVolumes) Piggyback(url string, now int64, f core.Filter) (core.Message, bool) {
	start := time.Now()
	m, ok := v.p.Piggyback(url, now, f)
	v.l.piggyback.since(start)
	if !ok || m.Empty() {
		v.l.piggybackEmpty.Add(1)
	}
	return m, ok
}
