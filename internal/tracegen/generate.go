package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"piggyback/internal/trace"
)

// GenerateServerLog produces a synthetic server access log for cfg: client
// sessions arrive over the log duration, each browsing the site page by
// page, fetching embedded images seconds after each page — the reference
// locality that directory volumes (Fig 1) and probability volumes (§3.3)
// exploit. The log is returned sorted by time along with the site, whose
// resources carry the authoritative sizes and modification processes.
func GenerateServerLog(cfg SiteConfig) (trace.Log, *Site) {
	site := BuildSite(cfg)
	cfg = site.Config // defaults filled
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	pageZipf := NewZipf(rng, cfg.ZipfPages, len(site.Pages))
	clientZipf := NewZipf(rng, cfg.ZipfClients, cfg.Clients)
	clients := make(clientStates, clientZipf.N())

	log := make(trace.Log, 0, cfg.Requests+cfg.Requests/8)
	for len(log) < cfg.Requests {
		c := clients.at(clientZipf.Next())
		// Sources are proxies fronting user populations: activity
		// clusters, so a fair share of sessions start within a couple
		// of hours of the source's previous one — producing the
		// repeat-access spacing of Table 1.
		var start int64
		if c.hasLastEnd && rng.Float64() < cfg.SessionReturnProb {
			start = c.lastEnd + int64(expDuration(rng, cfg.ReturnGapMean, 60))
			if start >= cfg.StartTime+cfg.Duration {
				start = diurnalStart(rng, &cfg)
			}
		} else {
			start = diurnalStart(rng, &cfg)
		}
		log = appendSession(log, site, rng, c, start, pageZipf)
		if len(log) > 0 {
			c.lastEnd, c.hasLastEnd = log[len(log)-1].Time, true
		}
	}
	if len(log) > cfg.Requests {
		log = log[:cfg.Requests]
	}
	log.SortByTime()
	return log, site
}

// diurnalStart draws a session start time, modulated by the configured
// diurnal cycle via rejection sampling (uniform when amplitude is 0).
func diurnalStart(rng *rand.Rand, cfg *SiteConfig) int64 {
	for {
		t := cfg.StartTime + int64(rng.Int63n(cfg.Duration))
		if cfg.DiurnalAmplitude <= 0 {
			return t
		}
		hour := float64(t%86400) / 3600
		density := 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*hour/24-math.Pi/2)
		if rng.Float64()*(1+cfg.DiurnalAmplitude) < density {
			return t
		}
	}
}

// clientState is one source's generator state.
type clientState struct {
	// name is the rendered client id, "c" and the zero-padded rank.
	name string
	// lastFetch is the client's last fetch time per resource, modeling
	// the downstream browser/proxy cache that keeps most quick repeats
	// out of real server logs.
	lastFetch map[*Resource]int64
	// lastEnd is the time of the log's last record when the client's
	// latest session ended: that session's last request, or an earlier
	// one when the session emitted none. hasLastEnd is false until set.
	lastEnd    int64
	hasLastEnd bool
}

// clientStates holds per-client state indexed by the client's Zipf rank.
type clientStates []clientState

// at returns rank i's state, setting it up on the client's first session.
func (cs clientStates) at(i int) *clientState {
	c := &cs[i]
	if c.lastFetch == nil {
		c.name = fmt.Sprintf("c%05d", i)
		c.lastFetch = make(map[*Resource]int64)
	}
	return c
}

// appendSession simulates one browsing session by client c.
func appendSession(log trace.Log, site *Site, rng *rand.Rand, c *clientState, start int64, pageZipf *Zipf) trace.Log {
	cfg := &site.Config
	now := float64(start)
	pageIdx := pageZipf.Next()
	fetchImages := rng.Float64() < cfg.ImageFetchProb

	emit := func(t int64, res *Resource, embedded bool) {
		if cfg.ClientCacheTTL > 0 {
			if last, ok := c.lastFetch[res]; ok {
				gap := t - last
				if gap < 0 {
					gap = -gap // sessions are generated out of order
				}
				if gap < cfg.ClientCacheTTL && rng.Float64() < cfg.CacheSuppressProb {
					return // served from the client's own cache
				}
			}
		}
		c.lastFetch[res] = t
		log = append(log, requestRecord(site, rng, c.name, t, res, embedded))
	}

	for {
		page := site.Pages[pageIdx]
		emit(int64(now), page.Res, false)
		if fetchImages {
			t := now
			for _, img := range page.Images {
				t += expDuration(rng, cfg.MeanImageGap, 0.1)
				emit(int64(t), img, true)
			}
			if t > now {
				now = t
			}
		}
		if len(page.Links) == 0 || rng.Float64() >= cfg.FollowLinkProb {
			return log
		}
		pageIdx = page.Links[rng.Intn(len(page.Links))]
		now += expDuration(rng, cfg.MeanThinkTime, 1)
	}
}

// requestRecord renders one request for res at time t. A share of requests
// to unmodified resources arrive with If-Modified-Since and yield 304s with
// zero size, matching the 15-25% Not-Modified share the paper reports.
func requestRecord(site *Site, rng *rand.Rand, client string, t int64, res *Resource, embedded bool) trace.Record {
	cfg := &site.Config
	method := "GET"
	if cfg.PostFraction > 0 && rng.Float64() < cfg.PostFraction {
		method = "POST"
	}
	rec := trace.Record{
		Time:         t,
		Client:       client,
		Method:       method,
		URL:          res.URL,
		Status:       200,
		Size:         res.Size,
		LastModified: res.LastModifiedAt(t),
		Embedded:     embedded,
	}
	// ~18% of GETs validate a cached copy and see 304 Not Modified
	// (App. A: 15.8% and 18.7% for the Digital and AT&T logs).
	if method == "GET" && rng.Float64() < 0.18 {
		rec.Status = 304
		rec.Size = 0
	}
	return rec
}

// ClientLogConfig describes a proxy-side client log spanning many servers
// (the Digital and AT&T logs of Table 2).
type ClientLogConfig struct {
	Name string
	Seed int64
	// Servers is the number of distinct sites.
	Servers int
	// Clients is the proxy's client population.
	Clients int
	// Requests is the target total request count.
	Requests int
	// Duration is the covered time span in seconds.
	Duration int64
	// ZipfServers skews traffic across servers (App. A: the top 1% of
	// servers draw over half the requests).
	ZipfServers float64
	// PagesPerServer is the mean pages per site; individual sites vary
	// around it.
	PagesPerServer int
	// StartTime as in SiteConfig.
	StartTime int64
}

func (c *ClientLogConfig) fillDefaults() {
	if c.Servers <= 0 {
		c.Servers = 100
	}
	if c.Clients <= 0 {
		c.Clients = 200
	}
	if c.Requests <= 0 {
		c.Requests = 50000
	}
	if c.Duration <= 0 {
		c.Duration = 7 * 24 * 3600
	}
	if c.ZipfServers <= 0 {
		c.ZipfServers = 1.1
	}
	if c.PagesPerServer <= 0 {
		c.PagesPerServer = 40
	}
	if c.StartTime == 0 {
		c.StartTime = 899251200
	}
}

// GenerateClientLog produces a proxy-side client log: sessions pick a
// server by Zipf popularity, browse it for a while, and sometimes hop to
// another server within the same session — yielding the multi-level
// directory locality of Fig 1.
func GenerateClientLog(cfg ClientLogConfig) (trace.Log, map[string]*Site) {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	sites := make(map[string]*Site, cfg.Servers)
	hostPages := make([]*Zipf, cfg.Servers)
	hosts := make([]string, cfg.Servers)
	hostRngs := make([]*rand.Rand, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		host := fmt.Sprintf("www.server-%04d.example.com", i)
		hosts[i] = host
		pages := cfg.PagesPerServer/2 + rng.Intn(cfg.PagesPerServer+1)
		sc := SiteConfig{
			Name:              host,
			Host:              host,
			Seed:              cfg.Seed + int64(i)*977,
			Pages:             pages,
			Dirs:              3 + pages/20,
			MaxDepth:          4,
			MeanImagesPerPage: 2.5,
			Clients:           cfg.Clients,
			StartTime:         cfg.StartTime,
			Duration:          cfg.Duration,
			FollowLinkProb:    0.75,
			MeanThinkTime:     25,
		}
		site := BuildSite(sc)
		sites[host] = site
		hostRngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*131 + 7))
		hostPages[i] = NewZipf(hostRngs[i], 0.8, len(site.Pages))
	}
	serverZipf := NewZipf(rng, cfg.ZipfServers, cfg.Servers)
	clientZipf := NewZipf(rng, 0.9, cfg.Clients)
	clients := make(clientStates, clientZipf.N())

	log := make(trace.Log, 0, cfg.Requests+cfg.Requests/8)
	for len(log) < cfg.Requests {
		c := clients.at(clientZipf.Next())
		start := cfg.StartTime + int64(rng.Int63n(cfg.Duration))
		// A session may visit a few servers in sequence.
		now := start
		for hop := 0; hop == 0 || (hop < 4 && rng.Float64() < 0.3); hop++ {
			si := serverZipf.Next()
			site := sites[hosts[si]]
			log = appendSession(log, site, hostRngs[si], c, now, hostPages[si])
			if len(log) > 0 {
				now = log[len(log)-1].Time + int64(expDuration(rng, 45, 2))
			}
		}
	}
	if len(log) > cfg.Requests {
		log = log[:cfg.Requests]
	}
	log.SortByTime()
	return log, sites
}

// ResourceTable returns the site's resources sorted by URL — handy for
// loading an origin server's store.
func (s *Site) ResourceTable() []*Resource {
	out := make([]*Resource, 0, len(s.Resources))
	for _, r := range s.Resources {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
