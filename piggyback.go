// Package piggyback is an implementation of the end-to-end Web performance
// architecture of Cohen, Krishnamurthy, and Rexford, "Improving End-to-End
// Performance of the Web Using Server Volumes and Proxy Filters" (SIGCOMM
// 1998): servers group related resources into volumes, proxies send
// filters, and servers piggyback customized volume information (URL, size,
// Last-Modified) onto response messages as HTTP/1.1 chunked trailers. The
// proxy uses the piggybacked information for cache coherency, cache
// replacement, prefetching, adaptive freshness intervals, and informed
// fetching.
//
// The package re-exports the building blocks:
//
//   - Volume engines: NewDirVolumes (directory-based, §3.2) and
//     NewProbBuilder/ProbVolumes (probability-based with thinning, §3.3).
//   - Filters and piggyback messages: Filter, Message, Element, RPV lists.
//   - A from-scratch HTTP/1.1 wire layer with chunked trailers
//     (WireServer, WireClient, WireRequest, WireResponse).
//   - A cooperating origin server (NewOriginServer), a caching proxy
//     (NewProxy) with replacement policies, prefetching, and adaptive
//     freshness, and a transparent volume center (NewVolumeCenter).
//   - Synthetic workload generation (GenerateServerLog, profiles matching
//     the paper's logs) and the trace-driven evaluation harness
//     (NewSimulator) computing the paper's §3.1 metrics.
//
// See examples/ for runnable end-to-end setups and cmd/experiments for the
// harness that regenerates every table and figure in the paper.
package piggyback

import (
	"context"
	"io"
	"net"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/center"
	"piggyback/internal/core"
	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/loadgen"
	"piggyback/internal/obs"
	"piggyback/internal/peer"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/sim"
	"piggyback/internal/trace"
	"piggyback/internal/tracegen"
)

// Core protocol types (§2).
type (
	// Filter is a proxy-generated piggyback filter (§2.2).
	Filter = core.Filter
	// Element is one piggyback element: URL, size, Last-Modified (§2.1).
	Element = core.Element
	// Message is a piggyback message: volume id plus elements (§2.3).
	Message = core.Message
	// VolumeID identifies a volume within a server (2 bytes, §2.3).
	VolumeID = core.VolumeID
	// Provider is a volume engine generating piggyback messages.
	Provider = core.Provider
	// RPVList tracks recently piggybacked volumes for one server (§2.2).
	RPVList = core.RPVList
	// RPVTable maps servers to RPV lists (§2.2).
	RPVTable = core.RPVTable
	// FrequencyControl is the stateless piggyback pacing of §2.2.
	FrequencyControl = core.FrequencyControl
)

// Volume engines (§3).
type (
	// DirConfig configures directory-based volumes (§3.2).
	DirConfig = core.DirConfig
	// DirVolumes is the directory-based volume engine.
	DirVolumes = core.DirVolumes
	// ProbConfig configures probability-based volume construction (§3.3).
	ProbConfig = core.ProbConfig
	// ProbBuilder estimates pairwise implication probabilities.
	ProbBuilder = core.ProbBuilder
	// ProbVolumes is the probability-based volume engine.
	ProbVolumes = core.ProbVolumes
	// OnlineProbVolumes rebuilds probability volumes from live traffic
	// (§3.3.1 "online fashion").
	OnlineProbVolumes = core.OnlineProbVolumes
	// Implication is one probability-volume membership pair.
	Implication = core.Implication
)

// NewOnlineProbVolumes returns an online probability-volume engine that
// rebuilds its snapshot every rebuildEvery observations.
func NewOnlineProbVolumes(cfg ProbConfig, rebuildEvery int) *OnlineProbVolumes {
	return core.NewOnlineProbVolumes(cfg, rebuildEvery)
}

// ParseFilter parses a Piggy-Filter header value.
func ParseFilter(s string) (Filter, error) { return core.ParseFilter(s) }

// ParseMessage parses a P-Volume trailer value.
func ParseMessage(s string) (Message, error) { return core.ParseMessage(s) }

// NewDirVolumes returns a directory-based volume engine.
func NewDirVolumes(cfg DirConfig) *DirVolumes { return core.NewDirVolumes(cfg) }

// NewProbBuilder returns a probability-volume builder.
func NewProbBuilder(cfg ProbConfig) *ProbBuilder { return core.NewProbBuilder(cfg) }

// NewRPVList returns an RPV list with the given timeout and max length.
func NewRPVList(timeout int64, maxLen int) *RPVList { return core.NewRPVList(timeout, maxLen) }

// NewRPVTable returns a per-server RPV table.
func NewRPVTable(timeout int64, maxLen int) *RPVTable { return core.NewRPVTable(timeout, maxLen) }

// HTTP/1.1 wire layer (§2.3).
type (
	// WireRequest is an HTTP/1.1 request message.
	WireRequest = httpwire.Request
	// WireResponse is an HTTP/1.1 response message with trailer support.
	WireResponse = httpwire.Response
	// WireHeader holds header fields.
	WireHeader = httpwire.Header
	// WireServer serves HTTP/1.1 with persistent connections.
	WireServer = httpwire.Server
	// WireClient issues requests over persistent connections.
	WireClient = httpwire.Client
	// WireHandler responds to requests; the per-request context is
	// cancelled on connection teardown and server shutdown.
	WireHandler = httpwire.Handler
	// WireHandlerFunc adapts a context-taking function to WireHandler.
	WireHandlerFunc = httpwire.HandlerFunc
)

// Wire-layer failure taxonomy (errors.Is-able; see internal/httpwire/wireerr).
var (
	// ErrDialTimeout: upstream connection establishment timed out.
	ErrDialTimeout = wireerr.ErrDialTimeout
	// ErrRequestTimeout: an exchange exceeded its deadline (flat timeout
	// or context deadline).
	ErrRequestTimeout = wireerr.ErrRequestTimeout
	// ErrCanceled: the caller's context was cancelled mid-exchange.
	ErrCanceled = wireerr.ErrCanceled
	// ErrCircuitOpen: the proxy's per-host circuit breaker refused the
	// request without dialing.
	ErrCircuitOpen = wireerr.ErrCircuitOpen
	// ErrTruncatedBody: the connection closed before a complete response.
	ErrTruncatedBody = wireerr.ErrTruncatedBody
)

// WireErrClass buckets a wire-layer error into its taxonomy class name
// ("dial_timeout", "request_timeout", "canceled", "circuit_open",
// "truncated", or "other") — the suffixes of the wire.upstream.err.*
// telemetry counters.
func WireErrClass(err error) string { return wireerr.Class(err) }

// PprofPathPrefix is the reserved origin-form path prefix serving live
// runtime profiles when EnablePprof(true) has been called.
const PprofPathPrefix = httpwire.PprofPathPrefix

// EnablePprof turns the /.piggy/pprof/ profiling endpoint on or off
// process-wide for every wire handler (server, proxy, volume center).
func EnablePprof(on bool) { httpwire.EnablePprof(on) }

// Fault injection (testing and load scenarios).
type (
	// Fault describes what one connection does to its traffic: first-byte
	// latency, mid-body truncation, blackholing, or an immediate reset.
	Fault = faultconn.Fault
	// FaultProfile is a probabilistic per-connection fault schedule.
	FaultProfile = faultconn.Profile
	// FaultListener wraps a net.Listener, applying a seeded deterministic
	// fault schedule to accepted connections.
	FaultListener = faultconn.Listener
)

// NewFaultListener wraps inner with the profile, drawing per-connection
// faults deterministically from seed.
func NewFaultListener(inner net.Listener, profile FaultProfile, seed int64) *FaultListener {
	return faultconn.NewListener(inner, profile, seed)
}

// FaultProfileByName resolves a named fault profile ("none", "latency",
// "truncate", "blackhole", "reset", "brownout").
func FaultProfileByName(name string) (FaultProfile, bool) {
	return faultconn.Profiles(name)
}

// NewWireRequest returns a request for the given method and path.
func NewWireRequest(method, path string) *WireRequest { return httpwire.NewRequest(method, path) }

// NewWireClient returns a client with persistent connections.
func NewWireClient() *WireClient { return httpwire.NewClient() }

// SetFilter attaches a proxy filter (and TE: chunked) to a request.
func SetFilter(req *WireRequest, f Filter) { httpwire.SetFilter(req, f) }

// ExtractPiggyback parses the P-Volume trailer from a response.
func ExtractPiggyback(resp *WireResponse) (Message, bool) { return httpwire.ExtractPiggyback(resp) }

// Origin server (§2.1).
type (
	// OriginServer is a cooperating piggybacking origin server.
	OriginServer = server.Server
	// Store is the origin's resource table.
	Store = server.Store
	// Resource is one origin resource.
	Resource = server.Resource
)

// NewStore returns an empty resource store.
func NewStore() *Store { return server.NewStore() }

// NewOriginServer returns an origin server over the store and volume
// engine; clock supplies the current Unix time (use func() int64 {
// return time.Now().Unix() } outside simulations).
func NewOriginServer(st *Store, vols Provider, clock func() int64) *OriginServer {
	return server.New(st, vols, clock)
}

// Caching proxy (§2.1, §4).
type (
	// Proxy is the caching piggybacking proxy.
	Proxy = proxy.Proxy
	// ProxyConfig parameterizes a proxy.
	ProxyConfig = proxy.Config
	// ProxyStats counts proxy activity.
	ProxyStats = proxy.Stats
	// FetchItem is one pending (pre)fetch with piggybacked attributes.
	FetchItem = proxy.FetchItem
	// InformedQueue is the smallest-first fetch queue (§4).
	InformedQueue = proxy.InformedQueue
	// FreshnessEstimator adapts per-resource freshness intervals (§4).
	FreshnessEstimator = proxy.FreshnessEstimator
)

// NewProxy returns a caching proxy.
func NewProxy(cfg ProxyConfig) *Proxy { return proxy.New(cfg) }

// Cooperative proxy mesh (§1 hierarchical caching as a wire-level tier).
type (
	// PeerRing is the immutable consistent-hash ring partitioning the URL
	// key space across a proxy fleet. Proxies join a mesh via
	// ProxyConfig.PeerSelf/Peers; local misses route to the key's ring
	// owner before the origin (X-Cache: PEER).
	PeerRing = peer.Ring
	// PeerTracker records which peers recently requested into a proxy's
	// partition — the targets of piggyback re-propagation.
	PeerTracker = peer.Tracker
)

// DefaultPeerVNodes is the virtual-node count per peer on a proxy's ring,
// and on NewPeerRing's when vnodes <= 0.
const DefaultPeerVNodes = peer.DefaultVNodes

// NewPeerRing builds a consistent-hash ring over the given peer addresses;
// vnodes <= 0 means DefaultPeerVNodes.
func NewPeerRing(peers []string, vnodes int) *PeerRing { return peer.NewRing(peers, vnodes) }

// NewPeerTracker returns a requester tracker with the given interest
// window in seconds (<= 0 means 60).
func NewPeerTracker(window int64) *PeerTracker { return peer.NewTracker(window) }

// Cache policies (§4 cache replacement).
type (
	// Cache is the byte-capacity proxy cache (single-threaded; the
	// trace-driven simulators use it directly).
	Cache = cache.Cache
	// ShardedCache is the concurrent sharded cache the proxy serves from:
	// power-of-two shards keyed by URL hash, each with its own lock and
	// policy instance.
	ShardedCache = cache.Sharded
	// CacheView is one entry's servable state, copied out of a
	// ShardedCache under its shard lock.
	CacheView = cache.View
	// CacheEntry is one cached resource.
	CacheEntry = cache.Entry
	// CachePolicy assigns eviction priorities.
	CachePolicy = cache.Policy
	// LRU, LFU, GDSize, PiggybackLRU, and ServerGD are replacement
	// policies.
	LRU          = cache.LRU
	LFU          = cache.LFU
	GDSize       = cache.GDSize
	PiggybackLRU = cache.PiggybackLRU
	ServerGD     = cache.ServerGD
	// CacheStore is the cache surface the proxy serves from; Cache,
	// ShardedCache, and TieredCache all satisfy it, so ProxyConfig.Store
	// accepts any of them.
	CacheStore = cache.Store
	// CacheStoreStats is a Store's aggregate counters, including the
	// disk-tier fields (zero for RAM-only stores).
	CacheStoreStats = cache.StoreStats
	// TieredCache layers an append-only segment-file disk tier under a
	// ShardedCache: RAM evictions worth keeping demote to disk, disk
	// hits promote back to RAM, and Close snapshots the index so a
	// restarted proxy serves warm from the same directory.
	TieredCache = tiered.Tiered
	// TieredCacheConfig parameterizes a TieredCache.
	TieredCacheConfig = tiered.Config
)

// NewCache returns a cache with the given capacity and policy.
func NewCache(capacity int64, p CachePolicy) *Cache { return cache.New(capacity, p) }

// NewShardedCache returns a concurrent sharded cache. shards is rounded up
// to a power of two (zero means DefaultCacheShards); each shard gets an
// independent policy instance from CachePolicyFactory(p).
func NewShardedCache(capacity int64, shards int, p CachePolicy) *ShardedCache {
	return cache.NewSharded(capacity, shards, cache.PolicyFactory(p))
}

// DefaultCacheShards returns the shard count used when none is configured:
// the smallest power of two covering the machine's CPUs, clamped to [8, 64].
func DefaultCacheShards() int { return cache.DefaultShards() }

// CachePolicyFactory derives a per-shard policy constructor from a
// prototype instance (stateless built-ins shared, stateful ones cloned per
// shard, unknown implementations serialized behind one lock).
func CachePolicyFactory(p CachePolicy) func() CachePolicy { return cache.PolicyFactory(p) }

// NewTieredCache layers a disk tier under ram per cfg. An empty cfg.Dir
// yields a RAM-only store (a transparent wrapper). Close the returned
// store (directly or via the owning proxy's Close) to flush the RAM
// working set and snapshot the index for a warm restart.
func NewTieredCache(ram *ShardedCache, cfg TieredCacheConfig) (*TieredCache, error) {
	return tiered.New(ram, cfg)
}

// Transparent volume center (§1, §5).
type (
	// VolumeCenter is the transparent piggybacking intermediary.
	VolumeCenter = center.Center
	// CenterConfig parameterizes a volume center.
	CenterConfig = center.Config
)

// NewVolumeCenter returns a transparent volume center.
func NewVolumeCenter(cfg CenterConfig) *VolumeCenter { return center.New(cfg) }

// Traces and workloads (Appendix A).
type (
	// TraceRecord is one access-log entry.
	TraceRecord = trace.Record
	// TraceLog is a time-ordered access log.
	TraceLog = trace.Log
	// SiteConfig describes a synthetic site and client population.
	SiteConfig = tracegen.SiteConfig
	// ClientLogConfig describes a synthetic proxy-side client log.
	ClientLogConfig = tracegen.ClientLogConfig
	// Site is a generated resource tree.
	Site = tracegen.Site
)

// GenerateServerLog produces a synthetic server log and its site.
func GenerateServerLog(cfg SiteConfig) (TraceLog, *Site) { return tracegen.GenerateServerLog(cfg) }

// GenerateClientLog produces a synthetic proxy-side client log.
func GenerateClientLog(cfg ClientLogConfig) (TraceLog, map[string]*Site) {
	return tracegen.GenerateClientLog(cfg)
}

// ParseCLF parses a Common Log Format line.
func ParseCLF(line string) (TraceRecord, error) { return trace.ParseCLF(line) }

// ParseSquid parses a Squid native access.log line.
func ParseSquid(line string) (TraceRecord, error) { return trace.ParseSquid(line) }

// ParseAnyLog parses a line in any supported log dialect (CLF or Squid).
func ParseAnyLog(line string) (TraceRecord, error) { return trace.ParseAny(line) }

// FormatCLF renders a record as a Common Log Format line.
func FormatCLF(r TraceRecord) string { return trace.FormatCLF(r) }

// Evaluation harness (§3.1).
type (
	// Simulator replays a log through the piggyback protocol.
	Simulator = sim.Simulator
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimResult holds the §3.1 metrics.
	SimResult = sim.Result
)

// NewSimulator returns a trace-driven protocol simulator.
func NewSimulator(cfg SimConfig) *Simulator { return sim.New(cfg) }

// LoadSite populates a store from a generated site — convenience for
// standing up an origin server on a synthetic workload.
func LoadSite(st *Store, site *Site) {
	for _, r := range site.ResourceTable() {
		st.Put(Resource{URL: r.URL, Size: r.Size, LastModified: r.LastModifiedAt(site.Config.StartTime)})
	}
}

// Extensions and analysis helpers.

type (
	// PopularProvider adds the §5 popular-resources fallback volume.
	PopularProvider = core.PopularProvider
	// HierarchyConfig parameterizes the two-level caching replay.
	HierarchyConfig = sim.HierarchyConfig
	// HierarchyResult reports the two-level caching replay.
	HierarchyResult = sim.HierarchyResult
	// CoherencyReport summarizes the §4 cache-coherency arithmetic.
	CoherencyReport = sim.CoherencyReport
	// PrefetchPoint is one point of the §4 prefetching tradeoff.
	PrefetchPoint = sim.PrefetchPoint
	// ReplacementResult reports a cache-replacement replay.
	ReplacementResult = sim.ReplacementResult
	// LocalityStats summarizes directory-prefix locality (Fig 1).
	LocalityStats = sim.LocalityStats
)

// NewPopularProvider wraps a volume engine with a popular-resources
// fallback volume (§5).
func NewPopularProvider(inner Provider, topN int) *PopularProvider {
	return core.NewPopularProvider(inner, topN)
}

// ReadProbVolumes loads probability volumes written by
// (*ProbVolumes).WriteTo — servers build volumes offline (§3.3.1) and
// reload them at startup.
func ReadProbVolumes(r io.Reader) (*ProbVolumes, error) { return core.ReadProbVolumes(r) }

// ReplayHierarchy replays a log through a two-level proxy tree with
// piggyback coherency propagation (§1 hierarchical caching).
func ReplayHierarchy(log TraceLog, cfg HierarchyConfig) HierarchyResult {
	return sim.ReplayHierarchy(log, cfg)
}

// Coherency derives the §4 coherency report from a simulation result.
func Coherency(r SimResult) CoherencyReport { return sim.Coherency(r) }

// PrefetchTradeoff sweeps probability thresholds to produce the §4
// prefetching tradeoff curve.
func PrefetchTradeoff(log TraceLog, vols *ProbVolumes, thresholds []float64) []PrefetchPoint {
	return sim.PrefetchTradeoff(log, vols, thresholds)
}

// ReplayReplacement replays a log through a cache policy, optionally with
// piggyback pinning (§4 cache replacement).
func ReplayReplacement(log TraceLog, capacity int64, policy CachePolicy, provider Provider, t int64) ReplacementResult {
	return sim.ReplayReplacement(log, capacity, policy, provider, t)
}

// AnalyzeLocality computes the directory-prefix locality of Fig 1.
func AnalyzeLocality(log TraceLog, levels []int, includeEmbedded bool) []LocalityStats {
	return sim.AnalyzeLocality(log, levels, includeEmbedded)
}

// --- Telemetry and load generation ---

type (
	// ObsRegistry is the live telemetry registry every wire-speaking
	// component (origin, proxy, center) maintains and serves as JSON on
	// GET /.piggy/stats.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time copy of a registry, with Sub/Merge
	// algebra for windowed measurements.
	ObsSnapshot = obs.Snapshot
	// LoadConfig configures a load-generation run (closed or open loop).
	LoadConfig = loadgen.Config
	// LoadReport is the run's client-side report.
	LoadReport = loadgen.Report
)

// WireMetrics instruments a WireServer or WireClient (requests, errors,
// retries, dials, bytes, latency histogram) into an ObsRegistry.
type WireMetrics = obs.WireMetrics

// NewWireMetrics registers wire counters under prefix (e.g. "wire.server")
// in r and returns them for assignment to a WireServer/WireClient Obs
// field.
func NewWireMetrics(r *ObsRegistry, prefix string) *WireMetrics {
	return obs.NewWireMetrics(r, prefix)
}

// StatsPath is the origin-form URL path serving a live ObsSnapshot.
const StatsPath = obs.StatsPath

// RunLoadContext drives a workload against a live stack; cancelling ctx
// stops the run. See internal/loadgen.
func RunLoadContext(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	return loadgen.RunContext(ctx, cfg)
}

// FetchStats retrieves a live telemetry snapshot from addr's stats
// endpoint.
func FetchStats(addr string) (ObsSnapshot, error) { return loadgen.FetchStats(addr) }
