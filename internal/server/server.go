// Package server implements the cooperating origin server (§2.1): an
// in-memory resource store served over httpwire with If-Modified-Since
// validation, a pluggable volume engine, and piggyback generation — the
// P-Volume message rides in the chunked trailer of each response when the
// request carries a Piggy-Filter and accepts chunked coding (§2.3).
package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"

	"piggyback/internal/core"
	"piggyback/internal/delta"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/trace"
)

// Resource is one resource at the origin.
type Resource struct {
	URL string
	// Size is the authoritative resource size (advertised in piggyback
	// elements and Content-Length).
	Size int64
	// LastModified is the current version's modification time.
	LastModified int64
	// ContentType is the MIME type; empty derives it from the URL.
	ContentType string
	// lmDate caches the HTTP-date rendering of LastModified, computed when
	// the store learns the time (Put, Modify) instead of on every response.
	lmDate string
}

// httpDate returns the resource's Last-Modified as an HTTP-date, using the
// cached rendering when the store filled it.
func (r *Resource) httpDate() string {
	if r.lmDate == "" {
		return httpwire.FormatHTTPDate(r.LastModified)
	}
	return r.lmDate
}

// maxBodyBytes caps synthesized bodies: huge resources are served
// truncated (this is a protocol testbed, not a file server), with
// Content-Length matching the bytes actually sent.
const maxBodyBytes = 256 << 10

// body synthesizes deterministic content for the given version of the
// resource: mostly version-independent blocks, with the version stamped
// into block 0 and one version-dependent block — so successive versions
// differ in at most a few blocks, the regime where delta encoding shines
// (§4, ref [23]). Determinism in (URL, size, version) stands in for a
// server that retains recent versions for delta generation.
func (r *Resource) body(version int64) []byte {
	n := r.Size
	if n > maxBodyBytes {
		n = maxBodyBytes
	}
	if n <= 0 {
		return nil
	}
	pattern := []byte("<!-- " + r.URL + " -->\n")
	out := bytes.Repeat(pattern, int(n)/len(pattern)+1)[:n]
	stamp := []byte(fmt.Sprintf("<!-- version %d -->", version))
	copy(out, stamp)
	if nBlocks := int(n) / delta.DefaultBlockSize; nBlocks > 1 {
		b := 1 + int(version)%(nBlocks-1)
		copy(out[b*delta.DefaultBlockSize:], stamp)
	}
	return out
}

// Store is a concurrent resource table.
type Store struct {
	mu  sync.RWMutex
	res map[string]*Resource
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{res: make(map[string]*Resource)} }

// Put inserts or replaces a resource.
func (s *Store) Put(r Resource) {
	if r.ContentType == "" {
		r.ContentType = trace.ContentType(r.URL)
	}
	r.lmDate = httpwire.FormatHTTPDate(r.LastModified)
	s.mu.Lock()
	s.res[r.URL] = &r
	s.mu.Unlock()
}

// Get returns a copy of the resource.
func (s *Store) Get(url string) (Resource, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.res[url]
	if !ok {
		return Resource{}, false
	}
	// Copy under the lock: Modify writes through the same pointer.
	return *r, true
}

// Remove deletes a resource.
func (s *Store) Remove(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.res[url]; !ok {
		return false
	}
	delete(s.res, url)
	return true
}

// Modify bumps the resource's Last-Modified time (and optionally its
// size), modeling a content update.
func (s *Store) Modify(url string, lastModified, newSize int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.res[url]
	if !ok {
		return false
	}
	r.LastModified = lastModified
	r.lmDate = httpwire.FormatHTTPDate(lastModified)
	if newSize > 0 {
		r.Size = newSize
	}
	return true
}

// Len returns the number of resources.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.res)
}

// Server is the piggybacking origin server.
type Server struct {
	store *Store
	vols  core.Provider
	// Clock returns the current Unix time; injectable so trace replays
	// and tests control time. nil panics at first use — set it.
	Clock func() int64

	obs *obs.Registry
	c   serverCounters
}

// serverCounters caches the registry's counter pointers so the request
// path is pure atomic adds — no map lookups, no locks.
type serverCounters struct {
	requests        *obs.Counter
	notModified     *obs.Counter
	notFound        *obs.Counter
	piggybacksSent  *obs.Counter
	piggybackElems  *obs.Counter
	piggybackBytes  *obs.Counter
	hitReports      *obs.Counter
	deltasSent      *obs.Counter
	deltaBytesSaved *obs.Counter
}

// Stats counts server-side protocol activity.
type Stats struct {
	Requests       int
	NotModified    int
	NotFound       int
	PiggybacksSent int
	PiggybackElems int
	PiggybackBytes int64
	// HitReports counts cache-hit URLs received via Piggy-Hits headers
	// (§5): proxy-satisfied accesses folded back into volume upkeep.
	HitReports int
	// DeltasSent counts 226 delta responses; DeltaBytesSaved the body
	// bytes they avoided transferring (§4, ref [23]).
	DeltasSent      int
	DeltaBytesSaved int64
}

// New returns a Server over the store and volume engine.
func New(store *Store, vols core.Provider, clock func() int64) *Server {
	reg := obs.NewRegistry()
	return &Server{store: store, vols: vols, Clock: clock, obs: reg,
		c: serverCounters{
			requests:        reg.Counter("server.requests"),
			notModified:     reg.Counter("server.not_modified"),
			notFound:        reg.Counter("server.not_found"),
			piggybacksSent:  reg.Counter("server.piggybacks_sent"),
			piggybackElems:  reg.Counter("server.piggyback_elems"),
			piggybackBytes:  reg.Counter("server.piggyback_bytes"),
			hitReports:      reg.Counter("server.hit_reports"),
			deltasSent:      reg.Counter("server.deltas_sent"),
			deltaBytesSaved: reg.Counter("server.delta_bytes_saved"),
		}}
}

// Store returns the resource store (for administrative updates).
func (s *Server) Store() *Store { return s.store }

// Volumes returns the volume engine.
func (s *Server) Volumes() core.Provider { return s.vols }

// Obs returns the server's telemetry registry (also served live on
// obs.StatsPath).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        int(s.c.requests.Load()),
		NotModified:     int(s.c.notModified.Load()),
		NotFound:        int(s.c.notFound.Load()),
		PiggybacksSent:  int(s.c.piggybacksSent.Load()),
		PiggybackElems:  int(s.c.piggybackElems.Load()),
		PiggybackBytes:  s.c.piggybackBytes.Load(),
		HitReports:      int(s.c.hitReports.Load()),
		DeltasSent:      int(s.c.deltasSent.Load()),
		DeltaBytesSaved: s.c.deltaBytesSaved.Load(),
	}
}

// refreshElements overwrites piggyback element attributes with the store's
// authoritative values — the server "has considerable knowledge about each
// resource, including the size... as well as the frequency of resource
// modifications" (§2.1), so piggybacked Last-Modified times reflect
// modifications made since the volume last saw a request for the resource.
// Elements for resources no longer in the store are dropped. Delegating to
// core keeps the message's pre-serialized segments coherent with the
// refreshed attributes.
func (s *Server) refreshElements(m *core.Message) {
	m.RefreshElements(func(url string) (int64, int64, bool) {
		res, ok := s.store.Get(url)
		if !ok {
			return 0, 0, false
		}
		return res.Size, res.LastModified, true
	})
}

// acceptsBlockdiff reports whether the request advertises the blockdiff
// instance manipulation (A-IM, RFC 3229 style).
func acceptsBlockdiff(req *httpwire.Request) bool {
	for _, im := range strings.Split(req.Header.Get("A-IM"), ",") {
		if strings.EqualFold(strings.TrimSpace(im), "blockdiff") {
			return true
		}
	}
	return false
}

// ServeWire implements httpwire.Handler: GET/HEAD with If-Modified-Since
// validation, delta encoding (A-IM: blockdiff), and piggyback trailers.
// The origin answers from memory, so the request context is unused beyond
// satisfying the handler contract.
func (s *Server) ServeWire(_ context.Context, req *httpwire.Request) *httpwire.Response {
	if resp := httpwire.AdminResponse(req, s.obs); resp != nil {
		return resp
	}
	now := s.Clock()
	s.c.requests.Inc()

	if req.Method != "GET" && req.Method != "HEAD" {
		return httpwire.NewResponse(501)
	}
	res, ok := s.store.Get(req.Path)
	if !ok {
		s.c.notFound.Inc()
		return httpwire.NewResponse(404)
	}

	// The server observes every request to maintain its volumes; the
	// source is the requesting proxy (§3.3: pairwise probabilities are
	// per-source).
	elem := core.Element{URL: res.URL, Size: res.Size, LastModified: res.LastModified}
	if s.vols != nil {
		s.vols.Observe(core.Access{Source: req.RemoteAddr, Time: now, Element: elem})
		// Piggy-Hits: accesses the proxy satisfied from its cache
		// count toward volume popularity too (§5 future work).
		if hits := httpwire.GetHits(req); len(hits) > 0 {
			for _, h := range hits {
				if r, ok := s.store.Get(h); ok {
					s.vols.Observe(core.Access{Source: req.RemoteAddr, Time: now,
						Element: core.Element{URL: r.URL, Size: r.Size, LastModified: r.LastModified}})
				}
			}
			s.c.hitReports.Add(int64(len(hits)))
		}
	}

	var resp *httpwire.Response
	ims, hasIMS := req.IfModifiedSince()
	switch {
	case hasIMS && ims >= res.LastModified:
		// §2.1: "if the proxy-specified Last-Modified time is greater
		// or equal to the Last-Modified time at the server, the
		// server simply validates the resource".
		resp = httpwire.NewResponse(304)
		s.c.notModified.Inc()
	case hasIMS && acceptsBlockdiff(req):
		// §4 delta encoding [23]: the resource changed; transmit only
		// the difference between the proxy's version and the current
		// one. Fall back to a full response when the delta does not
		// pay off.
		oldBody := res.body(ims)
		newBody := res.body(res.LastModified)
		patch := delta.Make(oldBody, newBody, delta.DefaultBlockSize)
		if enc := patch.Encode(); len(enc) < len(newBody) {
			resp = httpwire.NewResponse(226)
			resp.Body = enc
			resp.Header.Set("IM", "blockdiff")
			resp.Header.Set("Content-Type", res.ContentType)
			s.c.deltasSent.Inc()
			s.c.deltaBytesSaved.Add(int64(len(newBody) - len(enc)))
		} else {
			resp = httpwire.NewResponse(200)
			resp.Body = newBody
			resp.Header.Set("Content-Type", res.ContentType)
		}
	default:
		resp = httpwire.NewResponse(200)
		resp.Body = res.body(res.LastModified)
		resp.Header.Set("Content-Type", res.ContentType)
	}
	resp.Header.Set("Last-Modified", res.httpDate())

	// Piggyback generation: only for cooperating proxies that sent a
	// filter and accept chunked trailers (§2.3).
	if s.vols != nil {
		if f, ok := httpwire.GetFilter(req); ok && req.AcceptsChunkedTrailer() {
			if m, ok := s.vols.Piggyback(req.Path, now, f); ok {
				s.refreshElements(&m)
				if !m.Empty() {
					httpwire.AttachPiggyback(resp, m)
					s.c.piggybacksSent.Inc()
					s.c.piggybackElems.Add(int64(len(m.Elements)))
					s.c.piggybackBytes.Add(int64(m.WireBytes()))
				}
			}
		}
	}
	return resp
}
