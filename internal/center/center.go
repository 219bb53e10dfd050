// Package center implements the transparent volume center: "volume
// maintenance and piggyback generation [performed] transparently at a
// router or gateway along the path between the proxy and server. This
// volume center can construct volumes, apply filters, and generate
// piggyback messages on behalf of several servers, allowing piggyback
// messages to include information about resources at multiple sites"
// (§1), obviating server modifications (§5).
//
// The center is an httpwire relay: it forwards requests upstream with the
// piggybacking headers stripped (the origin need not cooperate), observes
// the request/response stream to maintain volumes keyed by host-qualified
// URL, and injects P-Volume trailers into responses for proxies that sent
// a Piggy-Filter.
package center

import (
	"context"
	"fmt"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
)

// Config parameterizes a Center.
type Config struct {
	// Volumes is the volume engine, keyed by host-qualified URL so one
	// center can cover several origin servers. nil defaults to 1-level
	// directory volumes with move-to-front (host-qualified level 1 is
	// the site's first-level directory).
	Volumes core.Provider
	// Resolve maps a host name to the origin's dialable address.
	Resolve func(host string) (string, error)
	// Clock returns the current Unix time.
	Clock func() int64
}

// Stats counts center activity.
type Stats struct {
	Relayed         int
	PiggybacksSent  int
	PiggybackElems  int
	UpstreamErrors  int
	OriginPiggyback int // responses that already carried a P-Volume
	// HitReports counts cache-hit URLs consumed from Piggy-Hits headers
	// (§5): the center folds proxy-satisfied accesses into its volumes
	// and strips the header before the origin sees it.
	HitReports int
}

// Center is a transparent piggybacking intermediary.
type Center struct {
	cfg    Config
	vols   core.Provider
	client *httpwire.Client
	obs    *obs.Registry
	c      centerCounters
}

// centerCounters caches the registry's counter pointers so relaying does
// pure atomic adds.
type centerCounters struct {
	relayed         *obs.Counter
	piggybacksSent  *obs.Counter
	piggybackElems  *obs.Counter
	upstreamErrors  *obs.Counter
	originPiggyback *obs.Counter
	hitReports      *obs.Counter
}

// New returns a Center for cfg.
func New(cfg Config) *Center {
	vols := cfg.Volumes
	if vols == nil {
		vols = core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, PartitionByType: true})
	}
	reg := obs.NewRegistry()
	ctr := &Center{cfg: cfg, vols: vols, client: httpwire.NewClient(), obs: reg,
		c: centerCounters{
			relayed:         reg.Counter("center.relayed"),
			piggybacksSent:  reg.Counter("center.piggybacks_sent"),
			piggybackElems:  reg.Counter("center.piggyback_elems"),
			upstreamErrors:  reg.Counter("center.upstream_errors"),
			originPiggyback: reg.Counter("center.origin_piggyback"),
			hitReports:      reg.Counter("center.hit_reports"),
		}}
	ctr.client.Obs = obs.NewWireMetrics(reg, "wire.upstream")
	return ctr
}

// Volumes returns the engine maintained by the center.
func (c *Center) Volumes() core.Provider { return c.vols }

// Obs returns the center's telemetry registry (also served live on
// obs.StatsPath).
func (c *Center) Obs() *obs.Registry { return c.obs }

// Stats returns a snapshot of the counters.
func (c *Center) Stats() Stats {
	return Stats{
		Relayed:         int(c.c.relayed.Load()),
		PiggybacksSent:  int(c.c.piggybacksSent.Load()),
		PiggybackElems:  int(c.c.piggybackElems.Load()),
		UpstreamErrors:  int(c.c.upstreamErrors.Load()),
		OriginPiggyback: int(c.c.originPiggyback.Load()),
		HitReports:      int(c.c.hitReports.Load()),
	}
}

// Close releases upstream connections.
func (c *Center) Close() { c.client.Close() }

// ServeWire implements httpwire.Handler: relay, observe, inject. The
// request context bounds the upstream relay, so a torn-down client
// connection abandons its origin exchange.
func (c *Center) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	if httpwire.IsStatsRequest(req) {
		return httpwire.StatsResponse(c.obs)
	}
	if httpwire.IsPprofRequest(req) {
		return httpwire.PprofResponse(req)
	}
	now := c.cfg.Clock()
	host, path, err := httpwire.SplitTarget(req)
	if err != nil {
		return httpwire.NewResponse(400)
	}
	filter, hasFilter := httpwire.GetFilter(req)
	wantsTrailer := req.AcceptsChunkedTrailer()

	// Consume Piggy-Hits here (§5): the center maintains the volumes,
	// so proxy-satisfied accesses feed its popularity order directly.
	if hits := httpwire.GetHits(req); len(hits) > 0 {
		hitTime := c.cfg.Clock()
		for _, h := range hits {
			c.vols.Observe(core.Access{Source: req.RemoteAddr, Time: hitTime,
				Element: core.Element{URL: host + h}})
		}
		c.c.hitReports.Add(int64(len(hits)))
	}

	// Forward upstream with the piggybacking headers stripped — the
	// origin server need not know the protocol exists.
	oreq := httpwire.NewRequest(req.Method, path)
	oreq.Header = req.Header.Clone()
	oreq.Header.Del(httpwire.FieldPiggyFilter)
	oreq.Header.Del(httpwire.FieldPiggyHits)
	oreq.Header.Del("TE")
	oreq.Header.Set("Host", host)
	oreq.Body = req.Body

	addr, err := c.cfg.Resolve(host)
	if err != nil {
		c.countError()
		return httpwire.NewResponse(502)
	}
	resp, err := c.client.DoContext(ctx, addr, oreq)
	if err != nil {
		c.countError()
		return httpwire.NewResponse(502)
	}

	c.c.relayed.Inc()

	qualified := host + path
	if resp.Status == 200 || resp.Status == 304 {
		lm, _ := resp.LastModified()
		size := int64(len(resp.Body))
		if cl := resp.Header.Get("Content-Length"); resp.Status == 304 && cl != "" {
			// Keep the advertised size for validations.
			fmt.Sscanf(cl, "%d", &size)
		}
		c.vols.Observe(core.Access{
			Source:  req.RemoteAddr,
			Time:    now,
			Element: core.Element{URL: qualified, Size: size, LastModified: lm},
		})
	}

	out := &httpwire.Response{
		Proto:   "HTTP/1.1",
		Status:  resp.Status,
		Reason:  resp.Reason,
		Header:  resp.Header.Clone(),
		Body:    resp.Body,
		Trailer: resp.Trailer,
	}
	out.Header.Del("Connection")
	// Framing is recomputed on write.
	out.Header.Del("Transfer-Encoding")
	out.Header.Del("Trailer")

	if len(resp.Trailer) > 0 && resp.Trailer.Get(httpwire.FieldPVolume) != "" {
		// A cooperating origin already piggybacked; pass it through.
		c.c.originPiggyback.Inc()
		return out
	}
	if hasFilter && wantsTrailer {
		if m, ok := c.vols.Piggyback(qualified, now, filter); ok {
			httpwire.AttachPiggyback(out, m)
			c.c.piggybacksSent.Inc()
			c.c.piggybackElems.Add(int64(len(m.Elements)))
		}
	}
	return out
}

func (c *Center) countError() { c.c.upstreamErrors.Inc() }
