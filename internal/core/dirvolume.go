package core

import (
	"sync"

	"piggyback/internal/trace"
)

// DirConfig configures directory-based volumes (§3.2).
type DirConfig struct {
	// Level is the directory-prefix depth defining volume membership:
	// 0 groups the whole site into one volume, 1 groups by first-level
	// directory, and so on.
	Level int
	// MaxVolumeElements trims each volume to this many elements by
	// "removing unpopular entries from the tail of the logical FIFO"
	// (§3.2.1). Zero means unlimited.
	MaxVolumeElements int
	// ServerMaxPiggy is the server-side cap on elements per piggyback
	// message, combined with the filter's maxpiggy. Zero means no
	// server-side cap.
	ServerMaxPiggy int
	// PartitionByType maintains separate FIFO lists per content class
	// within each volume ("one list for large images, and another list
	// for small text pages", §3.2.1), so type- and size-restricted
	// filters skip whole lists. Off, a single list is kept.
	PartitionByType bool
	// MTF enables move-to-front reordering on access. Off, elements
	// keep plain FIFO (insertion) order — the ablation baseline.
	MTF bool
}

// contentClass buckets a resource into one of the partition lists.
func contentClass(contentType string, size int64) string {
	const smallLimit = 8 << 10
	var kind string
	switch {
	case contentType == "text/html":
		kind = "html"
	case len(contentType) >= 6 && contentType[:6] == "image/":
		kind = "image"
	default:
		kind = "other"
	}
	if size > smallLimit {
		return kind + "/large"
	}
	return kind + "/small"
}

// DirVolumes is the directory-based volume engine (§3.2): resources with a
// common level-k directory prefix form a volume, maintained as move-to-
// front FIFO lists partitioned by content class, with per-element access
// counts to apply the proxy's access filter.
//
// DirVolumes is safe for concurrent use.
type DirVolumes struct {
	cfg DirConfig

	mu     sync.Mutex
	vols   map[string]*dirVolume
	nextID VolumeID
}

type dirVolume struct {
	id     VolumeID
	prefix string
	lists  map[string]*mtfList
	order  []string // deterministic iteration order over lists
}

// NewDirVolumes returns a directory-based volume engine with the given
// configuration. The zero DirConfig gives site-wide (level-0) volumes with
// move-to-front disabled; most callers want Level >= 1 and MTF true.
func NewDirVolumes(cfg DirConfig) *DirVolumes {
	return &DirVolumes{cfg: cfg, vols: make(map[string]*dirVolume)}
}

// Level returns the configured prefix depth.
func (d *DirVolumes) Level() int { return d.cfg.Level }

// Observe records a request, creating the resource's volume on first sight
// and updating popularity order and access counts.
func (d *DirVolumes) Observe(a Access) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.volume(trace.DirPrefix(a.Element.URL, d.cfg.Level))
	l := v.list(d.contentClassOf(a.Element))
	if d.cfg.MTF {
		l.Touch(a.Element, trace.ContentType(a.Element.URL), a.Time)
	} else {
		// FIFO ablation: count the access but keep insertion order.
		if n, ok := l.Get(a.Element.URL); ok {
			n.access(a.Element, a.Time)
		} else {
			l.Touch(a.Element, trace.ContentType(a.Element.URL), a.Time)
		}
	}
	if d.cfg.MaxVolumeElements > 0 {
		// Trim across the volume's lists proportionally: each list is
		// individually capped so the volume total stays bounded.
		per := d.cfg.MaxVolumeElements
		if len(v.order) > 1 {
			per = (d.cfg.MaxVolumeElements + len(v.order) - 1) / len(v.order)
		}
		for _, key := range v.order {
			v.lists[key].TrimTail(per)
		}
	}
}

// Update refreshes a resource's attributes (e.g. a new Last-Modified after
// a modification at the server) without recording an access.
func (d *DirVolumes) Update(e Element) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.vols[trace.DirPrefix(e.URL, d.cfg.Level)]
	if !ok {
		return false
	}
	for _, key := range v.order {
		if v.lists[key].Update(e) {
			return true
		}
	}
	return false
}

// Remove deletes a resource from its volume (e.g. the file was removed).
func (d *DirVolumes) Remove(url string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.vols[trace.DirPrefix(url, d.cfg.Level)]
	if !ok {
		return false
	}
	for _, key := range v.order {
		if v.lists[key].Remove(url) {
			return true
		}
	}
	return false
}

// Piggyback builds the piggyback message for a request for url under
// filter f (§2.1, §3.2): the most recently accessed elements of the
// requested resource's volume, excluding the requested resource itself and
// anything the filter rejects. It returns ok=false when piggybacking is
// disabled, the volume is unknown, the volume appears in the filter's RPV
// list, or no elements survive filtering.
func (d *DirVolumes) Piggyback(url string, now int64, f Filter) (Message, bool) {
	if f.Disabled {
		return Message{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.vols[trace.DirPrefix(url, d.cfg.Level)]
	if !ok {
		return Message{}, false
	}
	if f.HasRPV(v.id) {
		return Message{}, false
	}
	cap := f.Cap(d.cfg.ServerMaxPiggy)
	elems, segs := v.collect(url, f, cap)
	if len(elems) == 0 {
		return Message{}, false
	}
	return Message{Volume: v.id, Elements: elems, enc: segs}, true
}

// VolumeOf returns the volume id currently assigned to url's prefix.
func (d *DirVolumes) VolumeOf(url string) (VolumeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.vols[trace.DirPrefix(url, d.cfg.Level)]
	if !ok {
		return 0, false
	}
	return v.id, true
}

// NumVolumes returns the number of volumes created so far.
func (d *DirVolumes) NumVolumes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.vols)
}

// NumElements returns the total elements across all volumes.
func (d *DirVolumes) NumElements() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, v := range d.vols {
		for _, key := range v.order {
			n += v.lists[key].Len()
		}
	}
	return n
}

func (d *DirVolumes) contentClassOf(e Element) string {
	if !d.cfg.PartitionByType {
		return "all"
	}
	return contentClass(trace.ContentType(e.URL), e.Size)
}

// volume returns the volume for prefix, creating it with the next id.
// Caller holds d.mu.
func (d *DirVolumes) volume(prefix string) *dirVolume {
	v, ok := d.vols[prefix]
	if !ok {
		id := d.nextID
		d.nextID++
		if d.nextID > MaxVolumeID {
			d.nextID = 0 // wrap: ids are transient hints, not keys
		}
		v = &dirVolume{id: id, prefix: prefix, lists: make(map[string]*mtfList)}
		d.vols[prefix] = v
	}
	return v
}

func (v *dirVolume) list(class string) *mtfList {
	l, ok := v.lists[class]
	if !ok {
		l = newMTFList()
		v.lists[class] = l
		v.order = append(v.order, class)
	}
	return l
}

// collect merges the volume's lists most-recently-accessed-first and
// returns up to max elements passing the filter, alongside each element's
// cached wire segment so the response path never re-serializes.
func (v *dirVolume) collect(requested string, f Filter, max int) ([]Element, []string) {
	if max <= 0 {
		max = 1 << 30
	}
	// k-way merge by lastAccess (k = number of content classes, small).
	cursors := make([]*mtfNode, 0, len(v.order))
	for _, key := range v.order {
		if n := v.lists[key].head; n != nil {
			cursors = append(cursors, n)
		}
	}
	var out []Element
	var segs []string
	for len(out) < max {
		best := -1
		for i, c := range cursors {
			if c == nil {
				continue
			}
			if best < 0 || c.lastAccess > cursors[best].lastAccess {
				best = i
			}
		}
		if best < 0 {
			break
		}
		n := cursors[best]
		cursors[best] = n.next
		if n.elem.URL == requested {
			continue
		}
		if f.MinAccess > 0 && n.accessCount < f.MinAccess {
			continue
		}
		if !f.Admits(n.elem, n.contentType) {
			continue
		}
		out = append(out, n.elem)
		segs = append(segs, n.segment())
	}
	return out, segs
}
