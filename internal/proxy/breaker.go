package proxy

import (
	"math/rand"
	"sync"
	"time"

	"piggyback/internal/obs"
)

// The paper's piggyback exchange is best-effort (§2.1): a proxy must keep
// serving when an origin stalls or disappears. The per-host circuit
// breaker turns repeated upstream failures into fast local refusals —
// after breakerSettings.failures consecutive qualifying failures the host
// trips open and requests short-circuit without dialing; after a jittered
// backoff a single half-open probe is let through, and its outcome either
// closes the circuit or re-opens it with doubled backoff.

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breakerSettings are the proxy's breaker knobs after defaulting.
type breakerSettings struct {
	failures   int           // consecutive failures to trip
	backoff    time.Duration // initial open interval
	maxBackoff time.Duration // backoff doubling cap
}

// breaker tracks one state machine per upstream host. A nil *breaker
// (breaker disabled) allows everything and counts nothing.
type breaker struct {
	cfg breakerSettings
	// now is injectable for deterministic state-machine tests.
	now func() time.Time

	opens         *obs.Counter // cumulative open transitions
	openGauge     *obs.Counter // gauge: hosts currently tripped (open or half-open)
	shortCircuits *obs.Counter // requests refused without dialing

	mu    sync.Mutex
	rng   *rand.Rand
	hosts map[string]*hostBreaker
}

type hostBreaker struct {
	state     breakerState
	fails     int           // consecutive failures while closed
	openUntil time.Time     // when the open circuit admits a probe
	backoff   time.Duration // current open interval
	probing   bool          // a half-open probe is in flight
}

// newBreaker wires a breaker's counters into the proxy registry under
// prefix ("proxy.breaker" for the upstream breaker, "peer.breaker" for the
// mesh's per-peer one); empty means "proxy.breaker".
func newBreaker(cfg breakerSettings, reg *obs.Registry, prefix string, seed int64) *breaker {
	if prefix == "" {
		prefix = "proxy.breaker"
	}
	if cfg.failures <= 0 {
		cfg.failures = 5
	}
	if cfg.backoff <= 0 {
		cfg.backoff = 500 * time.Millisecond
	}
	if cfg.maxBackoff <= 0 {
		cfg.maxBackoff = 30 * time.Second
	}
	return &breaker{
		cfg:           cfg,
		now:           time.Now,
		opens:         reg.Counter(prefix + ".opens"),
		openGauge:     reg.Counter(prefix + ".open"),
		shortCircuits: reg.Counter(prefix + ".short_circuits"),
		rng:           rand.New(rand.NewSource(seed)),
		hosts:         make(map[string]*hostBreaker),
	}
}

// configBreaker returns the per-host breaker cfg describes, counted under
// prefix, or nil when cfg disables breakers.
func configBreaker(cfg Config, reg *obs.Registry, prefix string) *breaker {
	if cfg.BreakerDisabled {
		return nil
	}
	seed := cfg.BreakerSeed
	if seed == 0 {
		seed = 1
	}
	return newBreaker(breakerSettings{failures: cfg.BreakerFailures, backoff: cfg.BreakerBackoff}, reg, prefix, seed)
}

// Allow reports whether a request to host may dial upstream. An open
// circuit past its backoff admits exactly one half-open probe; refusals
// are counted as short-circuits.
func (b *breaker) Allow(host string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		return true
	}
	switch hb.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if !b.now().Before(hb.openUntil) {
			hb.state = breakerHalfOpen
			hb.probing = true
			return true
		}
	case breakerHalfOpen:
		if !hb.probing {
			hb.probing = true
			return true
		}
	}
	b.shortCircuits.Inc()
	return false
}

// Success records a completed exchange with host: the circuit closes and
// the failure run resets.
func (b *breaker) Success(host string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		return
	}
	if hb.state != breakerClosed {
		b.openGauge.Add(-1)
	}
	delete(b.hosts, host)
}

// Failure records a qualifying upstream failure (anything but caller
// cancellation) for host.
func (b *breaker) Failure(host string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		hb = &hostBreaker{backoff: b.cfg.backoff}
		b.hosts[host] = hb
	}
	switch hb.state {
	case breakerClosed:
		hb.fails++
		if hb.fails >= b.cfg.failures {
			b.openGauge.Inc()
			b.tripLocked(hb)
		}
	case breakerHalfOpen:
		// The probe failed: re-open with doubled backoff. The gauge
		// already counts this host (half-open is still tripped).
		hb.probing = false
		hb.backoff *= 2
		if hb.backoff > b.cfg.maxBackoff {
			hb.backoff = b.cfg.maxBackoff
		}
		b.tripLocked(hb)
	case breakerOpen:
		// A straggler from before the trip; no state change.
	}
}

// tripLocked moves hb to open with a jittered backoff window (0.5×–1.5×
// the nominal interval, so a fleet of proxies doesn't probe in lockstep).
// Caller holds b.mu.
func (b *breaker) tripLocked(hb *hostBreaker) {
	hb.state = breakerOpen
	hb.fails = 0
	jittered := time.Duration(float64(hb.backoff) * (0.5 + b.rng.Float64()))
	hb.openUntil = b.now().Add(jittered)
	b.opens.Inc()
}

// OpenHosts returns how many hosts are currently tripped (the
// proxy.breaker.open gauge).
func (b *breaker) OpenHosts() int {
	if b == nil {
		return 0
	}
	return int(b.openGauge.Load())
}
