package core

import (
	"math/rand"
	"slices"
	"sync"
)

// RPVList tracks recently piggybacked volumes for one server (§2.2): "the
// proxy stores a list of recently piggybacked volumes (RPVs) for each
// server... Each list element includes the volume identifier and the time
// the last piggyback message for that volume was received. The proxy can
// limit the RPV list based on a timeout or a maximum size basis."
//
// Entries expire after Timeout seconds and the list holds at most MaxLen
// entries (oldest evicted first, FIFO). An RPVList is not safe for
// concurrent use; RPVTable provides the synchronized per-server map.
//
// Concurrent responses note their piggybacks with each request's start
// time, so Note calls arrive out of time order: FIFO position is arrival
// order, not seen order, and expiry checks every entry.
type RPVList struct {
	// Timeout is the entry lifetime in seconds. It must not exceed the
	// cache's freshness interval Δ, "since this would preclude the
	// server from sending refresh information for resources in this
	// volume"; smaller values trade piggyback traffic for freshness.
	Timeout int64
	// MaxLen caps the number of entries; zero means 32.
	MaxLen int

	entries []rpvEntry // FIFO: first noted first
}

type rpvEntry struct {
	id   VolumeID
	seen int64
}

// NewRPVList returns an RPV list with the given timeout (seconds) and
// maximum length.
func NewRPVList(timeout int64, maxLen int) *RPVList {
	return &RPVList{Timeout: timeout, MaxLen: maxLen}
}

func (l *RPVList) maxLen() int {
	if l.MaxLen <= 0 {
		return 32
	}
	return l.MaxLen
}

// Note records that a piggyback for volume id arrived at time now. An
// existing entry for the same volume is refreshed (and moved to the back of
// the FIFO); a late note with an earlier time never moves its seen time
// backwards.
func (l *RPVList) Note(id VolumeID, now int64) {
	l.expire(now)
	for i := range l.entries {
		if e := l.entries[i]; e.id == id {
			copy(l.entries[i:], l.entries[i+1:])
			l.entries[len(l.entries)-1] = rpvEntry{id: id, seen: max(e.seen, now)}
			return
		}
	}
	if len(l.entries) >= l.maxLen() {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:len(l.entries)-1]
	}
	l.entries = append(l.entries, rpvEntry{id: id, seen: now})
}

// Snapshot returns the live volume ids at time now, in FIFO order. The
// result is what the proxy places in the request filter's rpv attribute.
func (l *RPVList) Snapshot(now int64) []VolumeID {
	l.expire(now)
	if len(l.entries) == 0 {
		return nil
	}
	ids := make([]VolumeID, len(l.entries))
	for i, e := range l.entries {
		ids[i] = e.id
	}
	return ids
}

// Contains reports whether volume id is live at time now.
func (l *RPVList) Contains(id VolumeID, now int64) bool {
	l.expire(now)
	for _, e := range l.entries {
		if e.id == id {
			return true
		}
	}
	return false
}

// Len returns the number of live entries at time now.
func (l *RPVList) Len(now int64) int {
	l.expire(now)
	return len(l.entries)
}

// expire drops every entry at least Timeout old, wherever it sits.
func (l *RPVList) expire(now int64) {
	if l.Timeout <= 0 {
		return
	}
	l.entries = slices.DeleteFunc(l.entries, func(e rpvEntry) bool { return now-e.seen >= l.Timeout })
}

// RPVTable maintains RPV lists for the servers a proxy talks to, "as FIFO
// lists in a hash table keyed on the server IP address" (§2.2). It is safe
// for concurrent use.
type RPVTable struct {
	timeout int64
	maxLen  int

	mu    sync.Mutex
	lists map[string]*RPVList
}

// NewRPVTable returns a table whose per-server lists use the given timeout
// (seconds) and maximum length.
func NewRPVTable(timeout int64, maxLen int) *RPVTable {
	return &RPVTable{timeout: timeout, maxLen: maxLen, lists: make(map[string]*RPVList)}
}

// Note records a piggyback for volume id from the given server.
func (t *RPVTable) Note(server string, id VolumeID, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.lists[server]
	if !ok {
		l = NewRPVList(t.timeout, t.maxLen)
		t.lists[server] = l
	}
	l.Note(id, now)
}

// Snapshot returns the live RPV ids for the server at time now.
func (t *RPVTable) Snapshot(server string, now int64) []VolumeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.lists[server]
	if !ok {
		return nil
	}
	ids := l.Snapshot(now)
	if len(l.entries) == 0 {
		// Drop empty lists so the table holds only transient
		// per-server state for recently visited servers.
		delete(t.lists, server)
	}
	return ids
}

// Servers returns the number of servers with live lists.
func (t *RPVTable) Servers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.lists)
}

// FrequencyControl implements the stateless piggyback pacing of §2.2 for
// servers with many volumes, where RPV lists are impractical: "the proxy
// can randomly set an enable/disable bit, or employ simple frequency
// control techniques, such as disabling piggybacks from servers which have
// sent piggybacks within the last minute. The frequency control techniques
// can be randomized."
//
// A FrequencyControl is not safe for concurrent use.
type FrequencyControl struct {
	// MinInterval disables piggybacks from a server for this many
	// seconds after one arrives; zero disables interval control.
	MinInterval int64
	// EnableProb, when in (0,1), randomly enables piggybacking with this
	// probability per request; 0 or 1 means always enabled (subject to
	// MinInterval).
	EnableProb float64

	rng  *rand.Rand
	last map[string]int64 // server -> time of last piggyback received
}

// NewFrequencyControl returns a frequency controller. Seed fixes the random
// enable/disable stream for reproducibility.
func NewFrequencyControl(minInterval int64, enableProb float64, seed int64) *FrequencyControl {
	return &FrequencyControl{
		MinInterval: minInterval,
		EnableProb:  enableProb,
		rng:         rand.New(rand.NewSource(seed)),
		last:        make(map[string]int64),
	}
}

// Enabled reports whether the proxy should enable piggybacking on a request
// to server at time now.
func (c *FrequencyControl) Enabled(server string, now int64) bool {
	if c.MinInterval > 0 {
		if t, ok := c.last[server]; ok && now-t < c.MinInterval {
			return false
		}
	}
	if c.EnableProb > 0 && c.EnableProb < 1 {
		return c.rng.Float64() < c.EnableProb
	}
	return true
}

// Received records that a piggyback arrived from server at time now.
func (c *FrequencyControl) Received(server string, now int64) {
	if c.MinInterval > 0 {
		c.last[server] = now
	}
}
