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
// Each mechanism lives in one internal package:
//
//   - internal/core: filters, piggyback messages and elements, RPV lists
//     (§2.2, §2.3), and the volume engines — directory-based (§3.2) and
//     probability-based with thinning (§3.3).
//   - internal/httpwire: the from-scratch HTTP/1.1 wire layer that
//     carries filters in request headers and piggyback messages in
//     chunked trailers.
//   - internal/server: the cooperating origin server (§2.1).
//   - internal/proxy: the caching proxy (§2.1, §4) with prefetching,
//     adaptive freshness, and informed fetching; internal/cache holds its
//     stores and replacement policies, internal/cache/tiered the disk
//     tier, internal/peer the cooperative proxy mesh.
//   - internal/center: the transparent volume center (§1, §5).
//   - internal/trace and internal/tracegen: access logs and the synthetic
//     workloads matching the paper's logs (Appendix A); internal/sim: the
//     trace-driven harness computing the §3.1 metrics.
//
// The entry points are the daemons and tools under cmd/ (piggyserver,
// piggyproxy, volumecenter, replay, and cmd/experiments, which regenerates
// every table and figure in the paper) and the runnable end-to-end setups
// under examples/. This root package holds only this overview and the
// cross-package tests and benchmarks.
package piggyback
