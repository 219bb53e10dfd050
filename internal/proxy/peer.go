package proxy

import (
	"context"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/peer"
)

// The cooperative proxy mesh (ROADMAP item 1, in the spirit of the
// cooperative-proxy and chained-transfer architectures of PAPERS.md): a
// consistent-hash ring partitions the URL key space across a fleet of
// proxies. A local miss or stale copy of a key owned elsewhere is routed
// to its owner over the ordinary wire client before falling back to the
// origin, so N proxies fetch each resource from the origin once instead of
// N times. The forwarded request carries the Piggy-Peer hop marker: the
// owner serves it locally (cache or origin) and never forwards again, so a
// dead owner or a transient ring disagreement costs at most one hop — no
// loops. Peer-served responses are cached locally (the fleet is an L1
// everywhere, the owner its L2) and tagged X-Cache: PEER for the client.
//
// The mesh also carries the paper's coherency story at fleet scale: when
// an owner receives a P-Volume trailer from the origin, it re-propagates
// the message to the peers that recently requested into its partition
// (peer.Tracker), so one peer's invalidation/refresh freshens every cache
// in the fleet without extra origin traffic.

// mesh holds the proxy's peer-tier state: the ring, the recent-requester
// tracker, a dedicated wire client and circuit breaker for peer traffic,
// the async propagation queue, and the peer.* counters.
type mesh struct {
	self    string
	ring    *peer.Ring
	tracker *peer.Tracker
	client  *httpwire.Client
	breaker *breaker
	timeout time.Duration

	// Propagation runs off the request path: jobs queue here and one
	// worker drains them; a full queue drops (and counts) rather than
	// stalling a client response.
	jobs   chan propagation
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	c meshCounters
}

// propagation is one queued piggyback re-propagation: the origin host the
// message describes, its wire encoding, and the peers to send it to.
type propagation struct {
	originHost string
	msg        core.Message
	targets    []string
}

// meshCounters are the peer.* telemetry counters.
type meshCounters struct {
	forwards             *obs.Counter // forward attempts to an owner peer
	serves               *obs.Counter // forwards answered with a usable response
	fallbacks            *obs.Counter // forwards that fell back to the origin
	requestsServed       *obs.Counter // peer-marked requests served for our partition
	propagationsSent     *obs.Counter // piggyback messages pushed to peers
	elementsPropagated   *obs.Counter // elements in those messages (per target)
	propagationsReceived *obs.Counter // messages received from peers
	elementsReceived     *obs.Counter // elements in received messages
	propagationDrops     *obs.Counter // queue-full drops + failed sends
	peersGauge           *obs.Counter // gauge: ring size
	recentGauge          *obs.Counter // gauge-ish: recent requesters at last propagation
}

// propagationQueueLen bounds the async propagation backlog; beyond it, new
// piggybacks are dropped (and counted) instead of blocking the fetch path.
const propagationQueueLen = 256

// newMesh wires the peer tier for cfg; returns nil when the config does
// not describe a mesh (fewer than two peers or no self identity).
func newMesh(cfg Config, reg *obs.Registry) *mesh {
	if cfg.PeerSelf == "" {
		return nil
	}
	ring := peer.NewRing(append(append([]string{}, cfg.Peers...), cfg.PeerSelf), 0)
	if ring.Size() < 2 {
		return nil
	}
	timeout := cfg.PeerTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &mesh{
		self:    cfg.PeerSelf,
		ring:    ring,
		tracker: peer.NewTracker(cfg.RPVTimeout),
		client:  httpwire.NewClient(),
		breaker: configBreaker(cfg, reg, "peer.breaker"),
		timeout: timeout,
		jobs:    make(chan propagation, propagationQueueLen),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		c: meshCounters{
			forwards:             reg.Counter("peer.forwards"),
			serves:               reg.Counter("peer.serves"),
			fallbacks:            reg.Counter("peer.fallbacks"),
			requestsServed:       reg.Counter("peer.requests_served"),
			propagationsSent:     reg.Counter("peer.propagations_sent"),
			elementsPropagated:   reg.Counter("peer.elements_propagated"),
			propagationsReceived: reg.Counter("peer.propagations_received"),
			elementsReceived:     reg.Counter("peer.elements_received"),
			propagationDrops:     reg.Counter("peer.propagation_drops"),
			peersGauge:           reg.Counter("peer.peers"),
			recentGauge:          reg.Counter("peer.recent_requesters"),
		},
	}
	m.c.peersGauge.Add(int64(ring.Size()))
	m.client.Obs = obs.NewWireMetrics(reg, "wire.peer")
	m.client.RequestTimeout = timeout
	go m.propagateLoop()
	return m
}

// close stops the propagation worker and shuts the peer client.
func (m *mesh) close() {
	m.cancel()
	<-m.done
	m.client.Close()
}

// owner returns the ring owner for key and whether it is a remote peer.
func (m *mesh) owner(key string) (string, bool) {
	o := m.ring.Owner(key)
	return o, o != m.self
}

// forwardToPeer routes one request to the owner peer and returns the
// response to serve, or nil when the caller should fall back to the origin.
// A usable peer response is cached locally — the mesh is an L1 everywhere
// with the owner as its partition's L2.
func (p *Proxy) forwardToPeer(ctx context.Context, owner string, st upstreamState, now int64) *httpwire.Response {
	m := p.mesh
	m.c.forwards.Inc()
	req := httpwire.NewRequest("GET", "http://"+st.host+st.path)
	httpwire.SetPeerFrom(req, m.self)
	resp, err := exchange(ctx, m.client, m.breaker, owner, owner, req)
	if err != nil || resp.Status != 200 {
		// An open circuit, a wire failure, or an owner that could not
		// produce a body (its own origin leg failed, or the resource is
		// gone): let the local origin path decide.
		m.c.fallbacks.Inc()
		return nil
	}
	lm, _ := resp.LastModified()
	return p.admit(st.key, resp.Body, lm, resp.Header.Get("Last-Modified"), resp.Header.Get("Content-Type"), now, false)
}

// servePeerPiggyback handles a POST to PeerPiggybackPath: a peer
// re-propagating origin volume state into our cache. The message is
// applied exactly like a trailer received from the origin (freshen,
// invalidate, prefetch, adaptive Δ) but is never propagated onward —
// propagation is one hop deep by construction, mirroring the request-path
// hop marker.
func (p *Proxy) servePeerPiggyback(req *httpwire.Request) *httpwire.Response {
	if _, ok := httpwire.PeerFrom(req); !ok {
		return httpwire.NewResponse(400)
	}
	host, m, err := httpwire.ParsePeerPiggyback(req)
	if err != nil {
		return httpwire.NewResponse(400)
	}
	p.mesh.c.propagationsReceived.Inc()
	p.mesh.c.elementsReceived.Add(int64(len(m.Elements)))
	p.processPiggyback(host, m, p.cfg.Clock())
	return httpwire.NewResponse(200)
}

// notePeerRequest records a peer-forwarded request into our partition: the
// sender becomes a re-propagation target for the tracker window.
func (p *Proxy) notePeerRequest(from string, now int64) {
	p.mesh.tracker.Note(from, now)
	p.mesh.c.requestsServed.Inc()
}

// enqueuePropagation queues an origin piggyback for re-propagation to the
// peers that recently requested into this proxy's partition. Never blocks:
// with the queue full the message is dropped and counted.
func (p *Proxy) enqueuePropagation(originHost string, msg core.Message, now int64) {
	m := p.mesh
	targets := m.tracker.Recent(now)
	if g := m.c.recentGauge; g != nil {
		g.Add(int64(len(targets)) - g.Load())
	}
	if len(targets) == 0 {
		return
	}
	select {
	case m.jobs <- propagation{originHost: originHost, msg: msg, targets: targets}:
	default:
		m.c.propagationDrops.Inc()
	}
}

// propagateLoop is the mesh's single background sender: it drains queued
// piggybacks and POSTs each to its targets, bounded per send by the peer
// timeout. Failed or refused sends count as drops; failures feed the
// per-peer breaker so a dead peer stops costing dials.
func (m *mesh) propagateLoop() {
	defer close(m.done)
	for {
		select {
		case <-m.ctx.Done():
			return
		case job := <-m.jobs:
			for _, target := range job.targets {
				if m.ctx.Err() != nil {
					return
				}
				req := httpwire.NewPeerPiggybackRequest(job.originHost, m.self, job.msg)
				ctx, cancel := context.WithTimeout(m.ctx, m.timeout)
				resp, err := exchange(ctx, m.client, m.breaker, target, target, req)
				cancel()
				if err != nil || resp.Status != 200 {
					m.c.propagationDrops.Inc()
					continue
				}
				m.c.propagationsSent.Inc()
				m.c.elementsPropagated.Add(int64(len(job.msg.Elements)))
			}
		}
	}
}
