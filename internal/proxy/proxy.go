// Package proxy implements the caching Web proxy of §2.1 and the §4
// applications: cache lookup with a freshness interval Δ, If-Modified-Since
// validation, piggyback filters on upstream requests (with per-server RPV
// lists), and processing of P-Volume trailers — freshening and invalidating
// cached entries, guiding replacement, feeding the prefetch queue, and
// adapting per-resource freshness intervals.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/delta"
	"piggyback/internal/httpwire"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
	"piggyback/internal/peer"
)

// Config parameterizes a Proxy.
type Config struct {
	// Store is the cache the proxy serves from. Nil means a fresh
	// PiggybackLRU cache.Sharded built from CacheBytes/CacheShards below;
	// set it explicitly to serve from a tiered (RAM+disk) store, another
	// replacement policy, or any other cache.Store implementation. When
	// Store is set, CacheBytes and CacheShards are ignored. The proxy owns
	// the store and closes it in Close.
	Store cache.Store
	// CacheBytes is the cache capacity; zero means 64 MiB.
	CacheBytes int64
	// CacheShards is the number of cache shards, rounded up to a power
	// of two; zero means cache.DefaultShards() (the smallest power of
	// two covering the machine's CPUs, clamped to [8, 64]).
	CacheShards int
	// Delta is the default freshness interval in seconds (§2.1); zero
	// means 3600.
	Delta int64
	// BaseFilter is attached to upstream requests (the per-server RPV
	// list is added per request).
	BaseFilter core.Filter
	// RPVTimeout is the per-server RPV list timeout (§2.2); zero means
	// Delta (its upper bound).
	RPVTimeout int64
	// Resolve maps a host name to a dialable address. Required: the
	// testbed has no DNS.
	Resolve func(host string) (string, error)
	// Clock returns the current Unix time. Required.
	Clock func() int64
	// Prefetch enables speculative fetching of piggybacked resources
	// not in the cache (§4), via the informed (smallest-first) queue.
	Prefetch bool
	// AdaptiveFreshness enables per-resource Δ from observed
	// modification rates (§4), clamped to [Delta/10, Delta*24]; off,
	// every entry gets the default Δ.
	AdaptiveFreshness bool
	// ReportHits piggybacks the URLs served from cache since the last
	// upstream request onto the next request to that server (Piggy-Hits
	// header, §5 future work), so the server's volumes keep seeing the
	// popularity of resources the proxy absorbs.
	ReportHits bool
	// DeltaEncoding requests block-level deltas (A-IM: blockdiff) when
	// validating stale entries, reconstructing the new version from the
	// cached body plus the server's patch (§4, ref [23]).
	DeltaEncoding bool
	// UpstreamTimeout caps one upstream exchange (the client's
	// RequestTimeout); zero keeps the wire default (30s).
	UpstreamTimeout time.Duration
	// BreakerFailures is the consecutive-failure threshold that trips a
	// host's circuit open; zero means 5.
	BreakerFailures int
	// BreakerBackoff is the initial open interval before a half-open
	// probe (jittered 0.5×–1.5×, doubling per failed probe up to 30s);
	// zero means 500ms.
	BreakerBackoff time.Duration
	// BreakerDisabled turns the per-host circuit breaker off.
	BreakerDisabled bool
	// BreakerSeed seeds the breaker's backoff jitter; zero means 1
	// (deterministic by default).
	BreakerSeed int64
	// MaxStaleOnError bounds serve-stale-on-error: on a qualifying
	// upstream failure (or an open circuit) an expired cache entry is
	// still served — marked X-Cache: STALE with Warning: 110 — if it
	// expired no more than this many seconds ago. Zero means 3600;
	// negative disables serve-stale (failures surface as 502/504).
	MaxStaleOnError int64
	// PeerSelf is this proxy's advertised peer address (the host:port of
	// its own wire listener). Empty disables the cooperative mesh.
	PeerSelf string
	// Peers lists the other fleet members' advertised addresses; the
	// consistent-hash ring is built over Peers ∪ {PeerSelf}. A ring of
	// fewer than two members disables the mesh.
	Peers []string
	// PeerTimeout caps one peer exchange — a forwarded request or a
	// piggyback propagation; zero means 5s. A peer keeps receiving
	// re-propagated piggybacks for RPVTimeout seconds after its last
	// forwarded request.
	PeerTimeout time.Duration
}

// Stats counts proxy-side protocol activity.
type Stats struct {
	ClientRequests int
	// FreshHits were served entirely from the cache.
	FreshHits int
	// Validations are conditional GETs sent upstream for stale entries.
	Validations int
	// NotModified counts 304s received for those validations.
	NotModified int
	// MissFetches are full fetches for resources not in the cache.
	MissFetches int
	// PiggybacksReceived counts P-Volume trailers processed.
	PiggybacksReceived int
	PiggybackElements  int
	// Refreshes are cached entries freshened by a piggyback element;
	// Invalidations are cached entries found stale by one (§4 cache
	// coherency).
	Refreshes     int
	Invalidations int
	// Prefetches counts speculative fetches issued; UsefulPrefetches
	// those later hit by a client request.
	Prefetches       int
	UsefulPrefetches int
	// HitsReported counts cache-hit URLs piggybacked upstream (§5);
	// HitsDropped counts fresh hits not buffered for reporting because
	// the per-host pending bound was full.
	HitsReported int
	HitsDropped  int
	// DeltaUpdates counts 226 delta responses applied; DeltaBytesSaved
	// the body bytes they avoided transferring (§4, ref [23]).
	DeltaUpdates    int
	DeltaBytesSaved int64
	// SingleflightShared counts client requests served from another
	// in-flight fetch of the same key instead of their own origin
	// exchange (miss de-duplication).
	SingleflightShared int
	// UpstreamErrors counts failed origin exchanges.
	UpstreamErrors int
	// StaleServes counts responses served from an expired cache entry
	// because the upstream was failing (X-Cache: STALE).
	StaleServes int
	// BreakerOpens counts circuit-open transitions; BreakerShortCircuits
	// counts requests refused without dialing while a circuit was open.
	BreakerOpens         int
	BreakerShortCircuits int
	// PeerForwards counts local misses routed to their key's ring owner;
	// PeerServes those answered by the peer (X-Cache: PEER);
	// PeerFallbacks forwards that fell through to the origin instead
	// (dead peer, open circuit, unusable status).
	PeerForwards  int
	PeerServes    int
	PeerFallbacks int
	// PeerRequestsServed counts peer-forwarded requests this proxy served
	// as the owner of their partition.
	PeerRequestsServed int
	// PeerPropagationsSent/Received count piggyback volume messages
	// re-propagated across the mesh.
	PeerPropagationsSent     int
	PeerPropagationsReceived int
}

// Proxy is a caching piggybacking proxy, served over httpwire.
type Proxy struct {
	cfg    Config
	client *httpwire.Client
	rpv    *core.RPVTable
	fresh  *FreshnessEstimator
	queue  *InformedQueue
	obs    *obs.Registry
	c      proxyCounters

	// cache is the store the proxy serves from — a cache.Sharded by
	// default (every operation locks only the shard owning its key, so
	// fresh hits on different shards proceed in parallel), or whatever
	// Config.Store supplied (e.g. a tiered RAM+disk store).
	cache cache.Store
	// hits stripes the per-host pending hit reports (§5) the same way.
	hits *hostHits

	// flights de-duplicates concurrent fetches of one key — client
	// misses and prefetch drains alike: the first requester of a cold
	// key becomes the leader and fetches; the rest wait on its flight
	// and share the response, so N fetchers of one cold URL cost one
	// origin exchange.
	sfMu    sync.Mutex
	flights map[string]*flight

	// breaker is the per-host circuit breaker (nil when disabled): it
	// trips after consecutive upstream failures so a dead origin costs a
	// map lookup instead of a dial timeout per request.
	breaker *breaker

	// mesh is the cooperative peer tier (nil when not configured): the
	// consistent-hash ring, peer wire client, per-peer breaker, and the
	// piggyback re-propagation worker. See peer.go.
	mesh *mesh
}

// flight is one in-progress leader fetch. resp is written once, before
// done is closed; waiters read it only after <-done.
type flight struct {
	done chan struct{}
	resp *httpwire.Response
}

// proxyCounters caches the registry's counter pointers: stat updates are
// single atomic adds, outside the cache mutex.
type proxyCounters struct {
	clientRequests     *obs.Counter
	freshHits          *obs.Counter
	validations        *obs.Counter
	notModified        *obs.Counter
	missFetches        *obs.Counter
	piggybacksReceived *obs.Counter
	piggybackElements  *obs.Counter
	refreshes          *obs.Counter
	invalidations      *obs.Counter
	prefetches         *obs.Counter
	usefulPrefetches   *obs.Counter
	hitsReported       *obs.Counter
	hitsDropped        *obs.Counter
	deltaUpdates       *obs.Counter
	deltaBytesSaved    *obs.Counter
	singleflightShared *obs.Counter
	upstreamErrors     *obs.Counter
	staleServes        *obs.Counter
}

// New returns a Proxy for cfg.
func New(cfg Config) *Proxy {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 3600
	}
	if cfg.RPVTimeout <= 0 || cfg.RPVTimeout > cfg.Delta {
		// §2.2: the RPV timeout must not exceed the freshness
		// interval Δ.
		cfg.RPVTimeout = cfg.Delta
	}
	if cfg.MaxStaleOnError == 0 {
		cfg.MaxStaleOnError = 3600
	}
	store := cfg.Store
	if store == nil {
		store = cache.NewSharded(cfg.CacheBytes, cfg.CacheShards, nil)
	}
	reg := obs.NewRegistry()
	p := &Proxy{
		cfg:     cfg,
		client:  httpwire.NewClient(),
		rpv:     core.NewRPVTable(cfg.RPVTimeout, 0),
		cache:   store,
		queue:   NewInformedQueue(),
		hits:    newHostHits(),
		flights: make(map[string]*flight),
		obs:     reg,
		c: proxyCounters{
			clientRequests:     reg.Counter("proxy.client_requests"),
			freshHits:          reg.Counter("proxy.fresh_hits"),
			validations:        reg.Counter("proxy.validations"),
			notModified:        reg.Counter("proxy.not_modified"),
			missFetches:        reg.Counter("proxy.miss_fetches"),
			piggybacksReceived: reg.Counter("proxy.piggybacks_received"),
			piggybackElements:  reg.Counter("proxy.piggyback_elements"),
			refreshes:          reg.Counter("proxy.refreshes"),
			invalidations:      reg.Counter("proxy.invalidations"),
			prefetches:         reg.Counter("proxy.prefetches"),
			usefulPrefetches:   reg.Counter("proxy.useful_prefetches"),
			hitsReported:       reg.Counter("proxy.hits_reported"),
			hitsDropped:        reg.Counter("proxy.hits_dropped"),
			deltaUpdates:       reg.Counter("proxy.delta_updates"),
			deltaBytesSaved:    reg.Counter("proxy.delta_bytes_saved"),
			singleflightShared: reg.Counter("proxy.singleflight_shared"),
			upstreamErrors:     reg.Counter("proxy.upstream_errors"),
			staleServes:        reg.Counter("proxy.stale_serves"),
		},
	}
	p.breaker = configBreaker(cfg, reg, "proxy.breaker")
	p.mesh = newMesh(cfg, reg)
	if cfg.UpstreamTimeout > 0 {
		p.client.RequestTimeout = cfg.UpstreamTimeout
	}
	// Up to four concurrent exchanges pipeline on one origin connection
	// once the pool is at its per-host bound; the peer client keeps each
	// exchange on a connection of its own.
	p.client.MaxInflightPerConn = 4
	// The upstream client's wire metrics (round-trip latency, retries,
	// dials) land in the same registry under wire.upstream.*, and the
	// cache's shard-occupancy and eviction gauges under cache.*.
	p.client.Obs = obs.NewWireMetrics(reg, "wire.upstream")
	p.cache.Instrument(reg, "cache")
	if cfg.AdaptiveFreshness {
		p.fresh = NewFreshnessEstimator(cfg.Delta, cfg.Delta/10, cfg.Delta*24)
	}
	return p
}

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	s := Stats{
		ClientRequests:     int(p.c.clientRequests.Load()),
		FreshHits:          int(p.c.freshHits.Load()),
		Validations:        int(p.c.validations.Load()),
		NotModified:        int(p.c.notModified.Load()),
		MissFetches:        int(p.c.missFetches.Load()),
		PiggybacksReceived: int(p.c.piggybacksReceived.Load()),
		PiggybackElements:  int(p.c.piggybackElements.Load()),
		Refreshes:          int(p.c.refreshes.Load()),
		Invalidations:      int(p.c.invalidations.Load()),
		Prefetches:         int(p.c.prefetches.Load()),
		UsefulPrefetches:   int(p.c.usefulPrefetches.Load()),
		HitsReported:       int(p.c.hitsReported.Load()),
		HitsDropped:        int(p.c.hitsDropped.Load()),
		DeltaUpdates:       int(p.c.deltaUpdates.Load()),
		DeltaBytesSaved:    p.c.deltaBytesSaved.Load(),
		SingleflightShared: int(p.c.singleflightShared.Load()),
		UpstreamErrors:     int(p.c.upstreamErrors.Load()),
		StaleServes:        int(p.c.staleServes.Load()),
	}
	if p.breaker != nil {
		s.BreakerOpens = int(p.breaker.opens.Load())
		s.BreakerShortCircuits = int(p.breaker.shortCircuits.Load())
	}
	if m := p.mesh; m != nil {
		s.PeerForwards = int(m.c.forwards.Load())
		s.PeerServes = int(m.c.serves.Load())
		s.PeerFallbacks = int(m.c.fallbacks.Load())
		s.PeerRequestsServed = int(m.c.requestsServed.Load())
		s.PeerPropagationsSent = int(m.c.propagationsSent.Load())
		s.PeerPropagationsReceived = int(m.c.propagationsReceived.Load())
	}
	return s
}

// PeerRing exposes the mesh's consistent-hash ring (nil when the mesh is
// not configured).
func (p *Proxy) PeerRing() *peer.Ring {
	if p.mesh == nil {
		return nil
	}
	return p.mesh.ring
}

// BreakerOpenHosts returns how many upstream hosts currently have a
// tripped circuit (the proxy.breaker.open gauge).
func (p *Proxy) BreakerOpenHosts() int { return p.breaker.OpenHosts() }

// Obs returns the proxy's telemetry registry (also served live on
// obs.StatsPath).
func (p *Proxy) Obs() *obs.Registry { return p.obs }

// CacheHitRate returns the cache's hit rate across all tiers.
func (p *Proxy) CacheHitRate() float64 { return p.cache.Stats().HitRate() }

// CacheStats returns the store's aggregate counters (all tiers).
func (p *Proxy) CacheStats() cache.StoreStats { return p.cache.Stats() }

// Queue exposes the informed fetch queue (for draining in tests and the
// prefetch loop).
func (p *Proxy) Queue() *InformedQueue { return p.queue }

// Freshness exposes the adaptive freshness estimator (nil when disabled).
func (p *Proxy) Freshness() *FreshnessEstimator { return p.fresh }

// Close stops the mesh's propagation worker (when one is running),
// releases upstream and peer connections, and closes the cache store —
// a tiered store flushes its RAM working set to disk and snapshots its
// index here, which is what makes a restart warm.
func (p *Proxy) Close() {
	if p.mesh != nil {
		p.mesh.close()
	}
	p.client.Close()
	if err := p.cache.Close(); err != nil {
		log.Printf("proxy: cache close: %v", err)
	}
}

// upstreamState carries what one request needs across the upstream
// exchange: the target, and — when a stale copy exists — the cached body,
// Last-Modified, and Content-Type, copied out under the shard lock (a
// cache.View) so no *cache.Entry pointer is touched while other goroutines
// mutate the cache.
type upstreamState struct {
	key, host, path string
	hit             bool
	cachedLM        int64
	cachedLMDate    string
	cachedBody      []byte
	cachedCT        string
	cachedExpires   int64
}

// ServeWire implements httpwire.Handler. ctx is the per-request context:
// cancellation (connection teardown, server shutdown) propagates into the
// upstream exchange and detaches single-flight followers.
func (p *Proxy) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	if httpwire.IsStatsRequest(req) {
		return httpwire.StatsResponse(p.obs)
	}
	if httpwire.IsPprofRequest(req) {
		return httpwire.PprofResponse(req)
	}
	if p.mesh != nil && httpwire.IsPeerPiggybackRequest(req) {
		return p.servePeerPiggyback(req)
	}
	now := p.cfg.Clock()
	host, path, err := httpwire.SplitTarget(req)
	if err != nil || req.Method != "GET" {
		if err == nil && req.Method != "GET" {
			return httpwire.NewResponse(501)
		}
		return httpwire.NewResponse(400)
	}
	key := host + path

	// A Piggy-Peer-marked request came from a fleet member that routed a
	// miss here: serve it locally (cache or origin), never forward it
	// again — the hop marker is what makes forwarding loop-free — and
	// remember the sender as a re-propagation target.
	fromPeer := false
	if p.mesh != nil {
		if from, ok := httpwire.PeerFrom(req); ok {
			fromPeer = true
			p.notePeerRequest(from, now)
		}
	}

	p.c.clientRequests.Inc()
	st, resp := p.lookup(key, host, path, now)
	if resp != nil {
		return p.respond(outHit, resp)
	}
	if !st.hit {
		// Cold key: de-duplicate concurrent misses. Only one goroutine
		// fetches; the rest share its response, which the leader stamps
		// before publishing it.
		if o, shared, ok := p.joinFlight(ctx, key); ok {
			return p.respond(o, shared)
		}
		out := p.respond(p.fetchRouted(ctx, st, now, fromPeer))
		p.finishFlight(key, out)
		return out
	}
	// Stale copy: each holder validates with its own conditional GET (or,
	// for a key owned elsewhere on the mesh, asks the owner first).
	return p.respond(p.fetchRouted(ctx, st, now, fromPeer))
}

// outcome is how the proxy answered one client request. Every client
// response passes through respond exactly once, which derives its X-Cache
// header and per-outcome counters from the outcome alone.
type outcome uint8

const (
	outHit         outcome = iota // fresh cache hit
	outShared                     // another request's in-flight fetch, shared
	outDetached                   // a follower whose context ended before its flight (504)
	outPeer                       // served by the key's ring owner
	outMiss                       // cold key fetched from the origin (200)
	outRefetched                  // stale copy replaced by a 200
	outRevalidated                // stale copy validated by a 304
	outDelta                      // stale copy patched by a 226
	outStale                      // expired copy served because the upstream failed
	outBadUpstream                // unusable origin answer: a 502, or the cached copy
	outPassthrough                // any other origin status, forwarded uncached
	outFailed                     // no exchange and no servable copy: the proxy's 502/504
)

// xCache is each outcome's X-Cache value; an empty one sets no header.
var xCache = [outFailed + 1]string{
	outHit:         "HIT",
	outShared:      "SHARED",
	outPeer:        "PEER",
	outMiss:        "MISS",
	outRefetched:   "MISS",
	outRevalidated: "MISS",
	outDelta:       "MISS",
	outStale:       "STALE",
	outBadUpstream: "MISS",
	outPassthrough: "MISS",
}

// respond is the one place a request's outcome becomes its X-Cache header
// (plus Warning: 110 for a stale serve) and the per-outcome counters.
func (p *Proxy) respond(o outcome, resp *httpwire.Response) *httpwire.Response {
	switch o {
	case outHit:
		p.c.freshHits.Inc()
	case outShared, outDetached:
		p.c.singleflightShared.Inc()
	case outPeer:
		p.mesh.c.serves.Inc()
	case outMiss:
		p.c.missFetches.Inc()
	case outRefetched:
		p.c.validations.Inc()
	case outRevalidated:
		p.c.validations.Inc()
		p.c.notModified.Inc()
	case outDelta:
		p.c.validations.Inc()
		p.c.deltaUpdates.Inc()
	case outStale:
		p.c.staleServes.Inc()
		resp.Header.Set("Warning", `110 - "Response is Stale"`)
	case outBadUpstream:
		p.c.upstreamErrors.Inc()
	}
	if x := xCache[o]; x != "" {
		resp.Header.Set("X-Cache", x)
	}
	return resp
}

// fetchRouted is the mesh-aware upstream exchange: when the mesh is on,
// the request is not itself peer-forwarded, and the key's ring owner is a
// remote peer, the owner is asked first; a nil answer (dead peer, open
// circuit, unusable status) falls back to the ordinary origin fetch, so
// peering never adds a client-visible failure mode.
func (p *Proxy) fetchRouted(ctx context.Context, st upstreamState, now int64, fromPeer bool) (outcome, *httpwire.Response) {
	if p.mesh != nil && !fromPeer {
		if owner, remote := p.mesh.owner(st.key); remote {
			if out := p.forwardToPeer(ctx, owner, st, now); out != nil {
				return outPeer, out
			}
		}
	}
	return p.fetch(ctx, st, now)
}

// lookup runs the cache-side half of a request. It returns a response for
// a fresh hit, or the state the upstream exchange needs. The only lock it
// takes is the shard lock inside cache.Lookup, which also copies out the
// servable state and clears the prefetch mark atomically.
func (p *Proxy) lookup(key, host, path string, now int64) (upstreamState, *httpwire.Response) {
	st := upstreamState{key: key, host: host, path: path}
	v, hit := p.cache.Lookup(key, now)
	if hit && v.WasPrefetched {
		p.c.usefulPrefetches.Inc()
	}
	if hit && v.Fresh(now) {
		if p.cfg.ReportHits && !p.hits.add(host, path) {
			p.c.hitsDropped.Inc()
		}
		return st, serveCopy(v.Body, v.LastModified, v.LastModifiedHTTP, v.ContentType)
	}
	st.hit = hit
	if hit {
		st.cachedLM = v.LastModified
		st.cachedLMDate = v.LastModifiedHTTP
		st.cachedBody = v.Body
		st.cachedCT = v.ContentType
		st.cachedExpires = v.Expires
	}
	return st, nil
}

// cached serves the stale copy st carries.
func (st *upstreamState) cached() *httpwire.Response {
	return serveCopy(st.cachedBody, st.cachedLM, st.cachedLMDate, st.cachedCT)
}

// joinFlight waits on an existing flight for key and returns its shared
// response, or registers the caller as the flight leader (ok == false). A
// follower whose ctx ends detaches with a gateway-timeout response; the
// leader's fetch — and the other waiters — are unaffected.
func (p *Proxy) joinFlight(ctx context.Context, key string) (outcome, *httpwire.Response, bool) {
	p.sfMu.Lock()
	if f, ok := p.flights[key]; ok {
		p.sfMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return outDetached, httpwire.NewResponse(504), true
		}
		out := httpwire.NewResponse(f.resp.Status)
		for k, v := range f.resp.Header {
			out.Header[k] = v
		}
		out.Body = f.resp.Body // bodies are never mutated once built
		return outShared, out, true
	}
	p.flights[key] = &flight{done: make(chan struct{})}
	p.sfMu.Unlock()
	return 0, nil, false
}

// finishFlight publishes the leader's response and releases the waiters.
func (p *Proxy) finishFlight(key string, out *httpwire.Response) {
	p.sfMu.Lock()
	f := p.flights[key]
	delete(p.flights, key)
	p.sfMu.Unlock()
	f.resp = out
	close(f.done)
}

// fetch runs the origin exchange for st — conditional when a stale copy
// exists (§2.1) — and the cache update that follows. On an open circuit or
// a qualifying upstream failure it degrades to the expired cached copy
// (X-Cache: STALE) when one is within MaxStaleOnError.
func (p *Proxy) fetch(ctx context.Context, st upstreamState, now int64) (outcome, *httpwire.Response) {
	// Snapshot the filter state (the RPV table locks internally) and
	// drain this host's pending hit reports from its stripe.
	filter := p.cfg.BaseFilter
	filter.RPV = p.rpv.Snapshot(st.host, now)
	oreq := httpwire.NewRequest("GET", st.path)
	oreq.Header.Set("Host", st.host)
	if st.hit {
		ims := st.cachedLMDate
		if ims == "" {
			ims = httpwire.FormatHTTPDate(st.cachedLM)
		}
		oreq.Header.Set("If-Modified-Since", ims)
		if p.cfg.DeltaEncoding {
			oreq.Header.Set("A-IM", "blockdiff")
		}
	}
	httpwire.SetFilter(oreq, filter)
	if p.cfg.ReportHits {
		reportHits := p.hits.take(st.host)
		p.c.hitsReported.Add(int64(len(reportHits)))
		httpwire.SetHits(oreq, reportHits)
	}

	resp, err := p.upstream(ctx, st.host, oreq)
	if err != nil {
		return p.degrade(st, now, err)
	}
	var o outcome
	var out *httpwire.Response
	lm, _ := resp.LastModified()
	lmDate, ct := resp.Header.Get("Last-Modified"), resp.Header.Get("Content-Type")
	switch {
	case resp.Status == 226 && st.hit:
		// Delta response: reconstruct the new version from the cached
		// body and the patch (§4, ref [23]).
		newBody, err := applyDelta(st.cachedBody, resp)
		if err != nil {
			// A malformed delta falls back to a plain refetch next
			// time; serve the stale copy rather than failing the
			// client.
			o, out = outBadUpstream, st.cached()
			break
		}
		p.c.deltaBytesSaved.Add(int64(len(newBody) - len(resp.Body)))
		if ct == "" {
			// The delta carries the patched body of the same resource:
			// its type is the cached copy's.
			ct = st.cachedCT
		}
		o, out = outDelta, p.admit(st.key, newBody, lm, lmDate, ct, now, false)
	case resp.Status == 304 && st.hit:
		p.cache.Freshen(st.key, now+p.delta(st.key))
		// Serve the validated copy, not whatever the cache holds now —
		// a concurrent fetch may have replaced the entry since lookup.
		o, out = outRevalidated, st.cached()
	case resp.Status == 200:
		o = outMiss
		if st.hit {
			o = outRefetched
		}
		out = p.admit(st.key, resp.Body, lm, lmDate, ct, now, false)
	case resp.Status == 304 || resp.Status == 226:
		// Conditional-only statuses for a request that carried no
		// condition (or no cached base for a delta): the origin is
		// confused; a client that sent a plain GET cannot interpret
		// them, so surface a gateway error instead of forwarding.
		o, out = outBadUpstream, httpwire.NewResponse(502)
	default:
		// Pass other statuses through without caching.
		o, out = outPassthrough, httpwire.NewResponse(resp.Status)
		out.Body = resp.Body
	}

	if m, ok := httpwire.ExtractPiggyback(resp); ok {
		p.processPiggyback(st.host, m, now)
		if p.mesh != nil {
			// We just heard fresh volume state from the origin for a
			// partition we (mostly) own: push it to the peers that
			// recently requested into it, so one proxy's piggyback
			// freshens the whole fleet.
			p.enqueuePropagation(st.host, m, now)
		}
	}
	return o, out
}

// errResolve marks a failed Resolve: no exchange was attempted, and the
// request fails with 502 even when a stale copy is at hand. The resolver's
// error is kept as text (%v) so it never matches a wire error class.
var errResolve = errors.New("proxy: resolve")

// upstream is the origin leg of every fetch and prefetch: it resolves host
// and runs the guarded exchange, counting each failure except an open
// circuit as an upstream error.
func (p *Proxy) upstream(ctx context.Context, host string, req *httpwire.Request) (*httpwire.Response, error) {
	addr, err := p.cfg.Resolve(host)
	if err != nil {
		p.c.upstreamErrors.Inc()
		return nil, fmt.Errorf("%w %s: %v", errResolve, host, err)
	}
	resp, err := exchange(ctx, p.client, p.breaker, host, addr, req)
	if err != nil && !errors.Is(err, wireerr.ErrCircuitOpen) {
		p.c.upstreamErrors.Inc()
	}
	return resp, err
}

// exchange is the one breaker-guarded upstream call, shared by origin
// fetches, prefetches, peer forwards and peer propagation: an open circuit
// for key refuses without dialing (ErrCircuitOpen), a completed exchange
// closes it whatever its status, and any failure but the caller's own
// cancellation counts against it.
func exchange(ctx context.Context, client *httpwire.Client, b *breaker, key, addr string, req *httpwire.Request) (*httpwire.Response, error) {
	if !b.Allow(key) {
		client.Obs.CountErrClass("circuit_open")
		return nil, wireerr.ErrCircuitOpen
	}
	resp, err := client.DoContext(ctx, addr, req)
	if err != nil {
		if qualifyingFailure(err) {
			b.Failure(key)
		}
		return nil, err
	}
	b.Success(key)
	return resp, nil
}

// admit is the one store step: it caches body as key's new entry, feeds
// the freshness estimator, and returns the response serving it.
func (p *Proxy) admit(key string, body []byte, lm int64, lmDate, ct string, now int64, prefetched bool) *httpwire.Response {
	e := cache.Entry{
		URL:              key,
		Size:             int64(len(body)),
		LastModified:     lm,
		LastModifiedHTTP: lmDate,
		Expires:          now + p.delta(key),
		FetchedAt:        now,
		Body:             body,
		ContentType:      ct,
		Prefetched:       prefetched,
	}
	if p.fresh != nil {
		p.fresh.Observe(key, lm)
	}
	p.cache.Put(e, now)
	return serveCopy(body, lm, lmDate, ct)
}

// applyDelta reconstructs the new body from a 226 response.
func applyDelta(cachedBody []byte, resp *httpwire.Response) ([]byte, error) {
	if !strings.EqualFold(strings.TrimSpace(resp.Header.Get("IM")), "blockdiff") {
		return nil, fmt.Errorf("proxy: 226 without IM: blockdiff")
	}
	patch, err := delta.Decode(resp.Body)
	if err != nil {
		return nil, err
	}
	return delta.Apply(cachedBody, patch)
}

// serveCopy builds a 200 response from a body, Last-Modified, and
// Content-Type copied out of the cache earlier; it never touches a live
// *cache.Entry. lmDate is the pre-rendered HTTP-date of lastModified when
// the caller has one (a cached View, an origin header) — empty falls back
// to formatting, so the hit path normally skips FormatHTTPDate entirely.
func serveCopy(body []byte, lastModified int64, lmDate, contentType string) *httpwire.Response {
	resp := httpwire.NewResponse(200)
	resp.Body = body
	if lastModified > 0 {
		if lmDate == "" {
			lmDate = httpwire.FormatHTTPDate(lastModified)
		}
		resp.Header.Set("Last-Modified", lmDate)
	}
	if contentType != "" {
		resp.Header.Set("Content-Type", contentType)
	}
	return resp
}

// qualifyingFailure reports whether an upstream error should feed the
// circuit breaker. Caller cancellation is the client's fault, not the
// origin's.
func qualifyingFailure(err error) bool {
	return err != nil && !errors.Is(err, wireerr.ErrCanceled)
}

// degrade answers a request whose upstream exchange failed (err carries
// the wireerr class; it may be ErrCircuitOpen). The coherency/availability
// tradeoff of §5 tilts toward availability: an expired-but-present cached
// copy that expired no more than MaxStaleOnError seconds ago is served
// with X-Cache: STALE and Warning: 110 rather than failing the client.
// With no servable copy, timeouts map to 504 and everything else to 502.
func (p *Proxy) degrade(st upstreamState, now int64, err error) (outcome, *httpwire.Response) {
	if st.hit && p.cfg.MaxStaleOnError >= 0 && qualifyingFailure(err) && !errors.Is(err, errResolve) &&
		now <= st.cachedExpires+p.cfg.MaxStaleOnError {
		return outStale, st.cached()
	}
	if errors.Is(err, wireerr.ErrRequestTimeout) || errors.Is(err, wireerr.ErrDialTimeout) {
		return outFailed, httpwire.NewResponse(504)
	}
	return outFailed, httpwire.NewResponse(502)
}

// delta returns the freshness interval for key.
func (p *Proxy) delta(key string) int64 {
	if p.fresh != nil {
		return p.fresh.Delta(key)
	}
	return p.cfg.Delta
}

// processPiggyback applies a P-Volume message (§2.1): note the volume in
// the server's RPV list, freshen or invalidate cached copies, pin predicted
// entries for replacement, queue prefetches, and feed the freshness
// estimator. Each element is one shard-local critical section
// (cache.ApplyPiggyback), so a large trailer never stalls hits on
// unrelated shards — it only ever holds one shard's lock at a time.
func (p *Proxy) processPiggyback(host string, m core.Message, now int64) {
	p.c.piggybacksReceived.Inc()
	p.c.piggybackElements.Add(int64(len(m.Elements)))
	p.rpv.Note(host, m.Volume, now)
	for _, el := range m.Elements {
		// A transparent volume center may piggyback host-qualified
		// elements covering multiple sites; plain servers send
		// server-relative paths.
		key := host + el.URL
		elHost, elPath := host, el.URL
		if !strings.HasPrefix(el.URL, "/") {
			key = el.URL
			if i := strings.IndexByte(el.URL, '/'); i >= 0 {
				elHost, elPath = el.URL[:i], el.URL[i:]
			} else {
				elHost, elPath = el.URL, "/"
			}
		}
		if p.fresh != nil {
			p.fresh.Observe(key, el.LastModified)
		}
		switch p.cache.ApplyPiggyback(key, el.LastModified, now+p.delta(key), now+p.cfg.RPVTimeout, now) {
		case cache.PiggybackInvalidated:
			// Stale copy: deleted; a fresh copy could be prefetched
			// (§2.1).
			p.c.invalidations.Inc()
			if p.cfg.Prefetch {
				p.queue.Push(FetchItem{Host: elHost, URL: elPath, Size: el.Size, LastModified: el.LastModified})
			}
		case cache.PiggybackRefreshed:
			p.c.refreshes.Inc()
		case cache.PiggybackMiss:
			if p.cfg.Prefetch {
				p.queue.Push(FetchItem{Host: elHost, URL: elPath, Size: el.Size, LastModified: el.LastModified})
			}
		}
	}
}

// DrainPrefetchesContext synchronously services up to max queued
// prefetches (smallest first), returning how many were fetched; it stops
// early when ctx ends. Prefetch requests disable piggybacking to avoid
// speculative cascades. Each fetch goes through the same single-flight map
// as client misses, closing the Peek-then-fetch window where two
// concurrent drains — or a drain racing a client miss — would both fetch
// one key: the loser joins the winner's flight (or skips) instead of
// issuing its own origin exchange.
func (p *Proxy) DrainPrefetchesContext(ctx context.Context, max int) int {
	fetched := 0
	for fetched < max {
		if ctx.Err() != nil {
			return fetched
		}
		it, ok := p.queue.Pop()
		if !ok {
			return fetched
		}
		now := p.cfg.Clock()
		key := it.Key()
		if p.cache.Contains(key) {
			continue
		}
		if _, _, shared := p.joinFlight(ctx, key); shared {
			// Another drain or a client miss is already fetching this
			// key; its Put will populate the cache.
			continue
		}
		out, ok := p.prefetchOne(ctx, it, key, now)
		p.finishFlight(key, out)
		if ok {
			fetched++
		}
	}
	return fetched
}

// prefetchOne runs one speculative origin fetch as a flight leader. It
// always returns a response for the flight's waiters (a joined client miss
// is served the prefetched body) and reports whether a 200 was cached. An
// open circuit refuses it like any other exchange, so a tripped host burns
// no speculative fetches.
func (p *Proxy) prefetchOne(ctx context.Context, it FetchItem, key string, now int64) (*httpwire.Response, bool) {
	oreq := httpwire.NewRequest("GET", it.URL)
	oreq.Header.Set("Host", it.Host)
	httpwire.SetFilter(oreq, core.Filter{Disabled: true})
	resp, err := p.upstream(ctx, it.Host, oreq)
	if err != nil {
		return httpwire.NewResponse(502), false
	}
	if resp.Status != 200 {
		out := httpwire.NewResponse(resp.Status)
		out.Body = resp.Body
		return out, false
	}
	p.c.prefetches.Inc()
	lm, _ := resp.LastModified()
	return p.admit(key, resp.Body, lm, resp.Header.Get("Last-Modified"), resp.Header.Get("Content-Type"), now, true), true
}
