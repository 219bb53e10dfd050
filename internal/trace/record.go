// Package trace defines the access-log record model shared by the workload
// generator, the volume engine, and the trace-driven evaluation harness.
//
// A Record is one line of a Web access log: a timestamped request from a
// source (a client IP in a server log, or a client id in a proxy/client log)
// for a URL. Server logs carry server-relative paths ("/a/b.html"); client
// logs carry host-qualified URLs ("www.foo.com/a/b.html"). The directory
// prefix helpers understand both forms.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Record is a single access-log entry.
type Record struct {
	// Time is the request time in Unix seconds.
	Time int64
	// Client identifies the request source (IP address or client id).
	Client string
	// Method is the HTTP method, usually GET.
	Method string
	// URL is the requested resource. Server logs use server-relative
	// paths; client logs prepend the host name.
	URL string
	// Status is the HTTP response status (200, 304, ...).
	Status int
	// Size is the response body size in bytes.
	Size int64
	// LastModified is the resource's Last-Modified time in Unix seconds,
	// or zero when the log does not record it.
	LastModified int64
	// Embedded marks requests for resources embedded in an enclosing
	// page (inline images). Client logs with full content allow these to
	// be identified; the generator labels them directly (App. A, Fig 1).
	Embedded bool
}

// Log is an in-memory access log ordered by time.
type Log []Record

// SortByTime orders the log by timestamp, preserving the relative order of
// records with equal timestamps (stable, so per-source request order within
// one second survives).
//
// It sorts a permutation of record indices keyed on (Time, index) — the
// index tie-break is what makes the order stable — and then moves each
// record once, in place, by following the permutation's cycles. That is
// O(n log n) compares on 4-byte indices and n record moves, where a stable
// sort over the records themselves moves them O(n log² n) times.
func (l Log) SortByTime() {
	perm := make([]int32, len(l))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(l[a].Time, l[b].Time); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Position i takes the record at perm[i]. Walk each cycle from its
	// first position, marking positions done by pointing them at
	// themselves.
	for i := range perm {
		if perm[i] == int32(i) {
			continue
		}
		held := l[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				l[j] = held
				break
			}
			l[j] = l[k]
			j = k
		}
	}
}

// Clients returns the number of distinct sources in the log.
func (l Log) Clients() int {
	seen := make(map[string]struct{})
	for i := range l {
		seen[l[i].Client] = struct{}{}
	}
	return len(seen)
}

// UniqueResources returns the number of distinct URLs in the log.
func (l Log) UniqueResources() int {
	seen := make(map[string]struct{})
	for i := range l {
		seen[l[i].URL] = struct{}{}
	}
	return len(seen)
}

// Servers returns the number of distinct level-0 prefixes (hosts) in the
// log. For server-relative logs this is 1.
func (l Log) Servers() int {
	seen := make(map[string]struct{})
	for i := range l {
		seen[DirPrefix(l[i].URL, 0)] = struct{}{}
	}
	return len(seen)
}

// Duration returns the time span covered by the log in seconds.
func (l Log) Duration() int64 {
	if len(l) == 0 {
		return 0
	}
	min, max := l[0].Time, l[0].Time
	for i := range l {
		if l[i].Time < min {
			min = l[i].Time
		}
		if l[i].Time > max {
			max = l[i].Time
		}
	}
	return max - min
}

// MeanSize returns the mean response size across records with Size > 0.
func (l Log) MeanSize() float64 {
	var sum int64
	var n int
	for i := range l {
		if l[i].Size > 0 {
			sum += l[i].Size
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MedianSize returns the median response size across records with Size > 0.
func (l Log) MedianSize() int64 {
	sizes := make([]int64, 0, len(l))
	for i := range l {
		if l[i].Size > 0 {
			sizes = append(sizes, l[i].Size)
		}
	}
	if len(sizes) == 0 {
		return 0
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return sizes[len(sizes)/2]
}

// FilterPopular returns a log restricted to resources accessed at least
// minAccess times, mirroring the paper's App. A post-processing ("our
// analysis focused on resources that were accessed at least ten times").
func (l Log) FilterPopular(minAccess int) Log {
	counts := make(map[string]int, len(l)/4)
	for i := range l {
		counts[l[i].URL]++
	}
	out := make(Log, 0, len(l))
	for i := range l {
		if counts[l[i].URL] >= minAccess {
			out = append(out, l[i])
		}
	}
	return out
}

// AccessCounts returns the number of requests per URL.
func (l Log) AccessCounts() map[string]int {
	counts := make(map[string]int, len(l)/4)
	for i := range l {
		counts[l[i].URL]++
	}
	return counts
}

// TopResourceShare reports the fraction of requests that go to the most
// popular fraction `frac` of unique resources (e.g. frac=0.1 answers "what
// share of requests hit the top 10% of resources", App. A).
func (l Log) TopResourceShare(frac float64) float64 {
	if len(l) == 0 {
		return 0
	}
	counts := l.AccessCounts()
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	k := int(frac * float64(len(cs)))
	if k < 1 {
		k = 1
	}
	var top, total int
	for i, c := range cs {
		total += c
		if i < k {
			top += c
		}
	}
	return float64(top) / float64(total)
}

// DirPrefix returns the level-k directory prefix of url.
//
// For a host-qualified URL ("www.foo.com/a/b/c.html"), level 0 is the host,
// level 1 is "www.foo.com/a", and so on. For a server-relative path
// ("/a/b/c.html"), level 0 is "/" (the whole site) and level 1 is "/a".
// A prefix deeper than the resource's own directory is the directory itself:
// the file component never contributes to the prefix.
func DirPrefix(url string, level int) string {
	host := ""
	path := url
	if !strings.HasPrefix(url, "/") {
		// Host-qualified.
		if i := strings.IndexByte(url, '/'); i >= 0 {
			host, path = url[:i], url[i:]
		} else {
			host, path = url, "/"
		}
	}
	if level <= 0 {
		if host != "" {
			return host
		}
		return "/"
	}
	// Walk path segments; the last segment is the file and is excluded.
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(segs) > 0 {
		segs = segs[:len(segs)-1] // drop file component
	}
	if level < len(segs) {
		segs = segs[:level]
	}
	if len(segs) == 0 {
		if host != "" {
			return host
		}
		return "/"
	}
	return host + "/" + strings.Join(segs, "/")
}

// PathDepth returns the number of directory levels in the URL's path (the
// file component excluded). "www.foo.com/a/b/c.html" and "/a/b/c.html" both
// have depth 2.
func PathDepth(url string) int {
	path := url
	if !strings.HasPrefix(url, "/") {
		if i := strings.IndexByte(url, '/'); i >= 0 {
			path = url[i:]
		} else {
			return 0
		}
	}
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(segs) == 0 {
		return 0
	}
	return len(segs) - 1
}

// ContentType guesses a coarse content type from the URL extension,
// matching the classes the paper's filters distinguish (§2.2: a proxy for
// low-bandwidth clients may exclude images; volumes partition elements by
// content type).
func ContentType(url string) string {
	u := url
	if i := strings.IndexByte(u, '?'); i >= 0 {
		u = u[:i]
	}
	dot := strings.LastIndexByte(u, '.')
	slash := strings.LastIndexByte(u, '/')
	if dot < 0 || dot < slash {
		return "text/html"
	}
	switch strings.ToLower(u[dot+1:]) {
	case "html", "htm", "shtml":
		return "text/html"
	case "txt", "text":
		return "text/plain"
	case "gif":
		return "image/gif"
	case "jpg", "jpeg":
		return "image/jpeg"
	case "png":
		return "image/png"
	case "ps":
		return "application/postscript"
	case "pdf":
		return "application/pdf"
	case "gz", "z", "zip", "tar":
		return "application/octet-stream"
	case "class", "jar":
		return "application/java"
	case "js":
		return "application/javascript"
	case "css":
		return "text/css"
	default:
		return "application/octet-stream"
	}
}

// IsImage reports whether the URL names an image resource.
func IsImage(url string) bool {
	return strings.HasPrefix(ContentType(url), "image/")
}

// Uncachable reports whether the URL should be treated as uncachable, using
// the paper's App. A cleaning rule: resources containing "cgi" or query
// URLs with "?" are deleted from the logs before analysis.
func Uncachable(url string) bool {
	return strings.Contains(url, "cgi") || strings.ContainsRune(url, '?')
}

// Clean applies the paper's App. A log-cleaning rules: drop uncachable
// responses and canonicalize trailing slashes so identical resources merge
// (http://www.foo.com/ and http://www.foo.com).
func (l Log) Clean() Log {
	out := make(Log, 0, len(l))
	for i := range l {
		r := l[i]
		if Uncachable(r.URL) {
			continue
		}
		r.URL = Canonical(r.URL)
		out = append(out, r)
	}
	return out
}

// Canonical merges identical resources that differ only by a trailing
// slash: a URL ending in "/" maps to the same resource as the URL without
// it, except the bare root path.
func Canonical(url string) string {
	if len(url) > 1 && strings.HasSuffix(url, "/") {
		trimmed := strings.TrimRight(url, "/")
		if trimmed == "" {
			return "/"
		}
		return trimmed
	}
	return url
}

// String renders the record compactly for debugging.
func (r Record) String() string {
	return fmt.Sprintf("%d %s %s %s %d %d", r.Time, r.Client, r.Method, r.URL, r.Status, r.Size)
}
