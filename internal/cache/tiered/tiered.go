package tiered

import (
	"log"
	"math"
	"sync"
	"sync/atomic"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
)

// Config parameterizes the disk tier under a Tiered store.
type Config struct {
	// Dir is the segment directory. Empty disables the disk tier: the
	// Tiered store becomes a transparent wrapper over its RAM tier
	// (useful for differential tests and for -disk-dir-less deployments
	// sharing one code path).
	Dir string
	// DiskBytes caps the on-disk segment footprint; zero means 256 MiB.
	DiskBytes int64
	// SegmentBytes is the rotation size of one append-only segment file;
	// zero means 4 MiB.
	SegmentBytes int64
	// CompactLiveRatio: a sealed segment whose live-byte ratio falls
	// below this is rewritten into the active segment (hole compaction);
	// zero means 0.5.
	CompactLiveRatio float64
	// QueueLen bounds the async demotion queue between the RAM tier's
	// eviction path and the disk writer; evictions arriving on a full
	// queue are dropped (counted), never blocked on. Zero means 256.
	QueueLen int
	// Demote decides whether an evicted entry is worth disk space. Nil
	// means DefaultDemote: keep entries the paper's policy machinery
	// showed utility for (hits, piggyback hints/pins, prefetches) —
	// GD-Size/PB-informed, not blind spill-everything.
	Demote func(e *cache.Entry, now int64) bool
	// Logf reports quarantines and I/O degradations; nil means log.Printf.
	Logf func(format string, args ...interface{})
}

// DefaultDemote keeps an evicted entry when the replacement machinery saw
// utility in it: it served hits, a piggyback message named it (hint) or
// pinned it, or it was prefetched on a server's prediction. Entries
// evicted without ever showing utility are the policy's losers (GD-Size
// aged them out, PB-LRU never protected them) and are not worth a disk
// write.
func DefaultDemote(e *cache.Entry, now int64) bool {
	return e.Hits() > 0 || e.HintCount() > 0 || e.PinnedUntil() > now || e.Prefetched
}

// demoteItem is one eviction crossing from the shard lock to the disk
// writer: a value copy of the entry (the body slice is shared — cached
// bodies are immutable once stored).
type demoteItem struct {
	e   cache.Entry
	now int64
	// seq orders the eviction against later supersessions of its URL.
	seq uint64
	// flush, when non-nil, marks a synchronization barrier instead of a
	// demotion: the writer closes it once every earlier item is on disk
	// and maintenance has run.
	flush chan struct{}
}

// tierCounters mirrors the internal atomics into an obs registry
// (cache.tier.* when instrumented with prefix "cache").
type tierCounters struct {
	demotions   *obs.Counter
	promotions  *obs.Counter
	diskHits    *obs.Counter
	diskBytes   *obs.Counter
	compactions *obs.Counter
	drops       *obs.Counter
}

// Tiered is a two-tier cache.Store: a Sharded RAM tier over an
// append-only segment-file disk tier. The RAM-hit path is a single
// delegation with no extra allocation; only misses touch the disk tier's
// mutex.
type Tiered struct {
	ram  *cache.Sharded
	cfg  Config
	disk *diskTier // nil in RAM-only mode

	mu sync.Mutex // guards disk and superseded

	// evictSeq numbers queued demotions; queued counts those the writer
	// has not handled yet. superseded holds, per URL, the evictSeq value
	// at the URL's latest Put, Delete or piggyback invalidation while
	// demotions were queued, and the Last-Modified below which a queued
	// copy counts as outdated. The writer skips a queued copy it
	// outdates, so a demotion that lands late never resurrects a version
	// the origin or the caller replaced. The map empties whenever the
	// queue drains.
	evictSeq   atomic.Uint64
	queued     atomic.Int64
	superseded map[string]supersession

	demoteQ chan demoteItem
	kick    chan struct{} // wakes the writer for post-promotion maintenance
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once

	demotions   atomic.Int64
	promotions  atomic.Int64
	diskHits    atomic.Int64
	compactions atomic.Int64
	drops       atomic.Int64

	obsC atomic.Pointer[tierCounters]
}

var _ cache.Store = (*Tiered)(nil)

// supersession marks a URL's queued demotions up to seq whose entry is
// older than lm as outdated.
type supersession struct {
	seq uint64
	lm  int64
}

// New layers a disk tier under ram. With cfg.Dir == "" it returns a
// RAM-only wrapper (no files, no goroutine). Otherwise it opens the
// segment directory, loads the index snapshot when a valid one exists
// (restart-warm), installs the demotion hook on ram, and starts the
// background writer.
func New(ram *cache.Sharded, cfg Config) (*Tiered, error) {
	t, err := open(ram, cfg)
	if err != nil || t.disk == nil {
		return t, err
	}
	t.wg.Add(1)
	go t.writer()
	return t, nil
}

// open is New without the writer goroutine: queued demotions wait until
// something calls handle.
func open(ram *cache.Sharded, cfg Config) (*Tiered, error) {
	if cfg.DiskBytes <= 0 {
		cfg.DiskBytes = 256 << 20
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.CompactLiveRatio <= 0 {
		cfg.CompactLiveRatio = 0.5
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.Demote == nil {
		cfg.Demote = DefaultDemote
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	t := &Tiered{ram: ram, cfg: cfg}
	if cfg.Dir == "" {
		return t, nil
	}
	disk, err := openDisk(cfg.Dir, cfg.DiskBytes, cfg.SegmentBytes, cfg.CompactLiveRatio, cfg.Logf)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	t.demoteQ = make(chan demoteItem, cfg.QueueLen)
	t.kick = make(chan struct{}, 1)
	t.stop = make(chan struct{})
	t.superseded = make(map[string]supersession)
	ram.SetEvictObserver(t.observeEvict)
	return t, nil
}

// RAM exposes the RAM tier (tests and callers that need shard controls).
func (t *Tiered) RAM() *cache.Sharded { return t.ram }

// observeEvict runs under the evicting shard's lock: gate, copy, and a
// non-blocking channel send — the disk write happens on the writer
// goroutine so eviction never waits on I/O.
func (t *Tiered) observeEvict(e *cache.Entry, now int64) {
	if !t.cfg.Demote(e, now) {
		return
	}
	t.queued.Add(1)
	select {
	case t.demoteQ <- demoteItem{e: *e, now: now, seq: t.evictSeq.Add(1)}:
	case <-t.stop:
		t.queued.Add(-1)
	default:
		t.queued.Add(-1)
		t.drops.Add(1)
		if c := t.obsC.Load(); c != nil {
			c.drops.Inc()
		}
	}
}

// writer drains the demotion queue and runs disk maintenance (capacity
// enforcement, hole compaction) off the serving path.
func (t *Tiered) writer() {
	defer t.wg.Done()
	for {
		select {
		case it := <-t.demoteQ:
			t.handle(it)
		case <-t.kick:
			t.maintain()
		case <-t.stop:
			for {
				select {
				case it := <-t.demoteQ:
					t.handle(it)
				default:
					return
				}
			}
		}
	}
}

func (t *Tiered) handle(it demoteItem) {
	if it.flush != nil {
		t.maintain()
		close(it.flush)
		return
	}
	t.mu.Lock()
	m, marked := t.superseded[it.e.URL]
	outdated := marked && it.seq <= m.seq && it.e.LastModified < m.lm
	ok := !outdated && t.disk.append(&it.e)
	if t.queued.Add(-1) == 0 {
		clear(t.superseded)
	}
	t.mu.Unlock()
	if ok {
		t.demotions.Add(1)
		if c := t.obsC.Load(); c != nil {
			c.demotions.Inc()
		}
	}
	t.maintain()
}

// supersedeLocked outdates url's queued demotions with Last-Modified
// below lm. Callers hold t.mu and have already changed the RAM tier, so
// every eviction of the replaced copy has taken its sequence number.
func (t *Tiered) supersedeLocked(url string, lm int64) {
	if t.queued.Load() == 0 {
		return
	}
	m := t.superseded[url]
	t.superseded[url] = supersession{seq: t.evictSeq.Load(), lm: max(m.lm, lm)}
}

// Flush blocks until every demotion enqueued before the call is on disk
// (or was dropped) and maintenance has run — a barrier for tests and for
// reading consistent tier stats mid-run. RAM-only stores return
// immediately.
func (t *Tiered) Flush() {
	if t.disk == nil {
		return
	}
	ch := make(chan struct{})
	select {
	case t.demoteQ <- demoteItem{flush: ch}:
		select {
		case <-ch:
		case <-t.stop:
		}
	case <-t.stop:
	}
}

// maintain runs disk-tier upkeep and syncs the telemetry gauges.
func (t *Tiered) maintain() {
	t.mu.Lock()
	n := t.disk.maintain()
	bytes := t.disk.bytes
	t.mu.Unlock()
	if n > 0 {
		t.compactions.Add(int64(n))
	}
	if c := t.obsC.Load(); c != nil {
		if n > 0 {
			c.compactions.Add(int64(n))
		}
		c.diskBytes.Add(bytes - c.diskBytes.Load())
	}
}

// Lookup serves from RAM when possible; on a RAM miss it probes the disk
// index, and a disk hit promotes the entry back into RAM (the Sharded
// tier re-runs its replacement policy; displaced entries may in turn
// demote). Accounting: the RAM tier counted the miss, the disk hit
// re-classifies it — Stats() folds the two so one logical lookup counts
// once.
func (t *Tiered) Lookup(url string, now int64) (cache.View, bool) {
	if v, ok := t.ram.Lookup(url, now); ok {
		return v, true
	}
	if t.disk == nil {
		return cache.View{}, false
	}
	t.mu.Lock()
	e, ok := t.disk.get(url, true)
	t.mu.Unlock()
	if !ok {
		return cache.View{}, false
	}
	t.diskHits.Add(1)
	t.promotions.Add(1)
	if c := t.obsC.Load(); c != nil {
		c.diskHits.Inc()
		c.promotions.Inc()
	}
	v := cache.View{
		Body:             e.Body,
		Size:             e.Size,
		LastModified:     e.LastModified,
		Expires:          e.Expires,
		ContentType:      e.ContentType,
		LastModifiedHTTP: e.LastModifiedHTTP,
	}
	if e.Prefetched {
		// First client touch of a speculative fetch, same as the RAM
		// tier's semantics: report it once and clear the mark.
		v.WasPrefetched = true
		e.Prefetched = false
	}
	// Promote: the RAM tier re-runs its replacement policy on insert, so
	// the promoted entry lands as a just-used entry.
	t.ram.Put(e, now)
	t.kickWriter()
	return v, true
}

func (t *Tiered) kickWriter() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// PeekView checks RAM then disk without side effects (no promotion).
func (t *Tiered) PeekView(url string) (cache.View, bool) {
	if v, ok := t.ram.PeekView(url); ok {
		return v, true
	}
	if t.disk == nil {
		return cache.View{}, false
	}
	t.mu.Lock()
	e, ok := t.disk.get(url, false)
	t.mu.Unlock()
	if !ok {
		return cache.View{}, false
	}
	return cache.View{
		Body:             e.Body,
		Size:             e.Size,
		LastModified:     e.LastModified,
		Expires:          e.Expires,
		ContentType:      e.ContentType,
		LastModifiedHTTP: e.LastModifiedHTTP,
	}, true
}

// Contains reports whether url is cached in either tier.
func (t *Tiered) Contains(url string) bool {
	if t.ram.Contains(url) {
		return true
	}
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	_, ok := t.disk.index[url]
	t.mu.Unlock()
	return ok
}

// Put inserts into the RAM tier (demotion of displaced entries happens
// via the eviction hook). A stale disk copy of the same URL is dropped,
// and so is a queued demotion of one, so the tiers never disagree about
// a key's version.
func (t *Tiered) Put(e cache.Entry, now int64) []string {
	evicted := t.ram.Put(e, now)
	if t.disk != nil {
		t.mu.Lock()
		t.disk.dropIndexed(e.URL)
		t.supersedeLocked(e.URL, math.MaxInt64)
		t.mu.Unlock()
	}
	return evicted
}

// Delete removes url from both tiers. Deletion is invalidation: the disk
// copy is dropped, not demoted to, and a queued demotion never lands.
func (t *Tiered) Delete(url string) bool {
	ok := t.ram.Delete(url)
	if t.disk != nil {
		t.mu.Lock()
		dok := t.disk.dropIndexed(url)
		t.supersedeLocked(url, math.MaxInt64)
		t.mu.Unlock()
		ok = ok || dok
	}
	return ok
}

// Freshen extends the expiration wherever the entry lives.
func (t *Tiered) Freshen(url string, expires int64) bool {
	if t.ram.Freshen(url, expires) {
		return true
	}
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	ok := t.disk.freshen(url, expires)
	t.mu.Unlock()
	return ok
}

// Pin protects a RAM entry from eviction preference. A disk-resident
// entry has no eviction rank to protect; presence is still reported so
// callers treating false as "not cached" stay correct.
func (t *Tiered) Pin(url string, until, now int64) bool {
	if t.ram.Pin(url, until, now) {
		return true
	}
	return t.diskContains(url)
}

// Hint records a piggyback mention on a RAM entry (and pins it); for a
// disk-resident entry it reports presence.
func (t *Tiered) Hint(url string, until, now int64) bool {
	if t.ram.Hint(url, until, now) {
		return true
	}
	return t.diskContains(url)
}

func (t *Tiered) diskContains(url string) bool {
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	_, ok := t.disk.index[url]
	t.mu.Unlock()
	return ok
}

// ApplyPiggyback applies one piggyback element to whichever tier holds
// the entry: the RAM tier's shard-local critical section first, then the
// disk index (invalidate an outdated record, freshen a current one). When
// both miss, a queued demotion of a copy older than lastModified is
// outdated too.
func (t *Tiered) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) cache.PiggybackOutcome {
	out := t.ram.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	if out != cache.PiggybackMiss || t.disk == nil {
		return out
	}
	t.mu.Lock()
	out = t.disk.applyPiggyback(url, lastModified, freshenTo)
	if out == cache.PiggybackMiss {
		t.supersedeLocked(url, lastModified)
	}
	t.mu.Unlock()
	return out
}

// Stats folds the two tiers into one logical accounting: every disk hit
// was first counted as a RAM miss, so it moves from Misses to Hits —
// a lookup satisfied anywhere is exactly one hit.
func (t *Tiered) Stats() cache.StoreStats {
	s := t.ram.Stats()
	dh := t.diskHits.Load()
	s.Hits += dh
	s.Misses -= dh
	s.DiskHits = dh
	s.Demotions = t.demotions.Load()
	s.Promotions = t.promotions.Load()
	s.Compactions = t.compactions.Load()
	if t.disk != nil {
		t.mu.Lock()
		s.DiskBytes = t.disk.bytes
		t.mu.Unlock()
	}
	return s
}

// HitRate returns the tier-folded hit rate.
func (t *Tiered) HitRate() float64 { return t.Stats().HitRate() }

// Instrument registers the RAM tier's gauges plus the tier counters:
// prefix.tier.{demotions,promotions,disk_hits,disk_bytes,compactions,
// demote_drops}. Safe to call again with a fresh registry (a restarted
// proxy re-instruments the store it reopened).
func (t *Tiered) Instrument(reg *obs.Registry, prefix string) {
	t.ram.Instrument(reg, prefix)
	if t.disk == nil {
		return
	}
	c := &tierCounters{
		demotions:   reg.Counter(prefix + ".tier.demotions"),
		promotions:  reg.Counter(prefix + ".tier.promotions"),
		diskHits:    reg.Counter(prefix + ".tier.disk_hits"),
		diskBytes:   reg.Counter(prefix + ".tier.disk_bytes"),
		compactions: reg.Counter(prefix + ".tier.compactions"),
		drops:       reg.Counter(prefix + ".tier.demote_drops"),
	}
	c.demotions.Add(t.demotions.Load() - c.demotions.Load())
	c.promotions.Add(t.promotions.Load() - c.promotions.Load())
	c.diskHits.Add(t.diskHits.Load() - c.diskHits.Load())
	c.compactions.Add(t.compactions.Load() - c.compactions.Load())
	c.drops.Add(t.drops.Load() - c.drops.Load())
	t.mu.Lock()
	bytes := t.disk.bytes
	t.mu.Unlock()
	c.diskBytes.Add(bytes - c.diskBytes.Load())
	t.obsC.Store(c)
}

// Capacity is the combined byte capacity of both tiers.
func (t *Tiered) Capacity() int64 {
	c := t.ram.Capacity()
	if t.disk != nil {
		c += t.cfg.DiskBytes
	}
	return c
}

// Used is the bytes held across both tiers (disk counts live record
// bytes, not hole-laden file footprint).
func (t *Tiered) Used() int64 {
	u := t.ram.Used()
	if t.disk != nil {
		t.mu.Lock()
		for _, s := range t.disk.segs {
			u += s.live
		}
		t.mu.Unlock()
	}
	return u
}

// Len is the number of entries across both tiers.
func (t *Tiered) Len() int {
	n := t.ram.Len()
	if t.disk != nil {
		t.mu.Lock()
		n += len(t.disk.index)
		t.mu.Unlock()
	}
	return n
}

// Close makes the store restart-warm: it detaches the eviction hook,
// drains the demotion queue, flushes the entire RAM working set to disk
// (bypassing the demotion gate — on shutdown everything resident is the
// working set), snapshots the index, and closes the segment files.
func (t *Tiered) Close() error {
	var err error
	t.closed.Do(func() {
		t.ram.SetEvictObserver(nil)
		if t.disk == nil {
			return
		}
		close(t.stop)
		t.wg.Wait()
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, e := range t.ram.Dump() {
			if l, ok := t.disk.index[e.URL]; ok && l.lm == e.LastModified && l.expires >= e.Expires {
				continue // identical copy already on disk
			}
			if t.disk.append(&e) {
				t.demotions.Add(1)
			}
		}
		t.disk.maintain()
		err = t.disk.writeSnapshot()
		t.disk.closeFiles()
	})
	return err
}
