package gateway

import (
	"errors"
	"sort"

	"paella/internal/sim"
)

// ErrTenantShed is the typed failure a request receives when its tenant's
// token bucket is empty: the gateway refuses the request at the front
// door, before it consumes any replica resources. It rides the same
// error plumbing as internal/core's typed failures — delivered through
// the connection's OnFailed callback and recorded as a failed JobRecord —
// so the fault layer's conservation invariant (every request ends in
// exactly one completion or one typed error) extends through the gateway.
var ErrTenantShed = errors.New("gateway: tenant admission shed (rate limit)")

// TenantLimit configures one tenant's token bucket.
type TenantLimit struct {
	// RatePerSec is the sustained admission rate (tokens per second).
	RatePerSec float64
	// Burst is the bucket depth: how far a tenant may briefly exceed its
	// sustained rate. Zero selects max(1, RatePerSec/10) — a tenth of a
	// second of slack.
	Burst float64
}

func (l TenantLimit) withDefaults() TenantLimit {
	if l.Burst <= 0 {
		l.Burst = l.RatePerSec / 10
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// tokenBucket is one tenant's admission state: a classic token bucket on
// virtual time, refilled lazily at Take.
type tokenBucket struct {
	limit  TenantLimit
	tokens float64
	last   sim.Time
}

func (b *tokenBucket) take(now sim.Time) bool {
	if b.limit.RatePerSec <= 0 {
		return true
	}
	if now > b.last {
		b.tokens += float64(now-b.last) / float64(sim.Second) * b.limit.RatePerSec
		if b.tokens > b.limit.Burst {
			b.tokens = b.limit.Burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Admission is the gateway's per-tenant token-bucket admission controller.
// It is pure virtual-time state — lazily refilled buckets keyed by tenant
// name — so admission decisions are deterministic functions of the
// request sequence, preserving the cluster's bit-identity guarantees.
type Admission struct {
	limit   TenantLimit
	buckets map[string]*tokenBucket
	// admitted and shed count per-tenant outcomes (Stats exposes them in
	// sorted order for deterministic reporting).
	admitted map[string]int
	shed     map[string]int
}

// NewAdmission returns an admission controller that gives every tenant its
// own bucket with the same limit. A zero RatePerSec admits every request.
func NewAdmission(limit TenantLimit) *Admission {
	return &Admission{
		limit:    limit.withDefaults(),
		buckets:  make(map[string]*tokenBucket),
		admitted: make(map[string]int),
		shed:     make(map[string]int),
	}
}

// Admit charges one request against the tenant's bucket at virtual time
// now. It returns nil when the request may proceed and ErrTenantShed when
// the tenant is over its rate. Untenanted requests (empty tenant) bypass
// admission entirely — rate management is a property of tenancy.
func (a *Admission) Admit(tenant string, now sim.Time) error {
	if a == nil || tenant == "" {
		return nil
	}
	b, ok := a.buckets[tenant]
	if !ok {
		b = &tokenBucket{limit: a.limit, tokens: a.limit.Burst, last: now}
		a.buckets[tenant] = b
	}
	if !b.take(now) {
		a.shed[tenant]++
		return ErrTenantShed
	}
	a.admitted[tenant]++
	return nil
}

// TenantStats is one tenant's admission outcome counts.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string
	// Admitted and Shed count requests that passed and were refused.
	Admitted int
	Shed     int
}

// Stats returns per-tenant admission counts, sorted by tenant name.
func (a *Admission) Stats() []TenantStats {
	if a == nil {
		return nil
	}
	names := make([]string, 0, len(a.admitted)+len(a.shed))
	seen := make(map[string]bool)
	for t := range a.admitted {
		if !seen[t] {
			seen[t], names = true, append(names, t)
		}
	}
	for t := range a.shed {
		if !seen[t] {
			seen[t], names = true, append(names, t)
		}
	}
	sort.Strings(names)
	out := make([]TenantStats, len(names))
	for i, t := range names {
		out[i] = TenantStats{Tenant: t, Admitted: a.admitted[t], Shed: a.shed[t]}
	}
	return out
}

// TotalShed returns the number of requests shed across all tenants.
func (a *Admission) TotalShed() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, s := range a.shed {
		n += s
	}
	return n
}
