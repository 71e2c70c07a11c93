package serve

// Tenancy: per-client API keys, per-tenant token-bucket rate limits and a
// fair-share admission queue. With no tenants configured the server runs
// open, exactly as before, behind a single anonymous tenant with no rate
// limit — the fair queue then degenerates to the old global slot gate
// (Workers running, QueueDepth queued, 429 beyond).
//
// With tenants configured every job request must carry
// "Authorization: Bearer <key>"; an unknown or missing key is a 401 with
// the typed envelope. Each tenant owns a token bucket (Rate jobs/second up
// to Burst) consulted at submission, its own bounded FIFO of queued jobs,
// and a fair share of the execution slots: freed slots are granted
// round-robin across tenants with queued work, so one tenant saturating
// its bucket or queue cannot starve the others — the saturator sees 429
// (rate_limited or queue_full) while everyone else keeps their share.
//
// Tenancy is admission-only by design: it never reaches the simulation, the
// canonical fingerprint or the result cache, so identical configs submitted
// by different tenants still share one cache entry and stay byte-identical.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tenant declares one API client: its metrics name, its bearer key and its
// token-bucket rate limit.
type Tenant struct {
	// Name labels the tenant's metrics series and job records.
	Name string
	// Key is the bearer token presented in the Authorization header.
	Key string
	// Rate is the token-bucket refill in jobs per second; <= 0 means no
	// rate limit (queue bounds still apply).
	Rate float64
	// Burst is the bucket capacity; <= 0 takes max(1, ceil(Rate)).
	Burst int
}

// ParseTenant parses the "name:key[:rate[:burst]]" form used by the
// -api-key flag and keyfile lines.
func ParseTenant(s string) (Tenant, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return Tenant{}, fmt.Errorf("serve: tenant %q: want name:key[:rate[:burst]]", s)
	}
	t := Tenant{Name: parts[0], Key: parts[1]}
	if len(parts) >= 3 && parts[2] != "" {
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return Tenant{}, fmt.Errorf("serve: tenant %q: bad rate: %w", s, err)
		}
		// A NaN rate would never admit the tenant and an infinite one has
		// no burst; neither is a rate.
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			return Tenant{}, fmt.Errorf("serve: tenant %q: rate %v is not finite", s, rate)
		}
		t.Rate = rate
	}
	if len(parts) >= 4 && parts[3] != "" {
		burst, err := strconv.Atoi(parts[3])
		if err != nil {
			return Tenant{}, fmt.Errorf("serve: tenant %q: bad burst: %w", s, err)
		}
		t.Burst = burst
	}
	if len(parts) > 4 {
		return Tenant{}, fmt.Errorf("serve: tenant %q: too many fields", s)
	}
	return t, nil
}

// LoadKeyfile reads tenants from path: one name:key[:rate[:burst]] per
// line, blank lines and #-comments ignored.
func LoadKeyfile(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tenants []Tenant
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTenant(line)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, t)
	}
	return tenants, sc.Err()
}

// anonTenant is the single open tenant of a server with no keys configured.
const anonTenant = "default"

// tokenBucket is a standard lazily-refilled token bucket. rate <= 0 means
// unlimited.
type tokenBucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time
}

// take spends one token, reporting success and — on refusal — how long
// until the next token accrues.
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// tenantState is the runtime of one tenant: its bucket, its FIFO of queued
// submissions and its slice of the shared counters.
type tenantState struct {
	cfg    Tenant
	bucket tokenBucket // guarded by admission.mu
	queue  []*waiter   // guarded by admission.mu
	run    int         // running jobs, guarded by admission.mu
}

// waiter is one submission parked in a tenant queue until a slot is
// granted (ready closes) or the submitter gives up.
type waiter struct {
	ready chan struct{}
	t     *tenantState
}

// admission is the fair-share gate: Workers execution slots shared across
// tenants, one bounded FIFO per tenant, freed slots granted round-robin
// over tenants with queued work.
type admission struct {
	mu       sync.Mutex
	slots    int // concurrent executions (Config.Workers)
	used     int
	perQueue int // per-tenant queued-job bound (Config.QueueDepth)
	order    []*tenantState
	byKey    map[string]*tenantState
	byName   map[string]*tenantState
	cursor   int
	open     bool // no keys configured: byName[anonTenant] serves everyone
}

func newAdmission(slots, perQueue int, tenants []Tenant) (*admission, error) {
	a := &admission{
		slots:    slots,
		perQueue: perQueue,
		byKey:    make(map[string]*tenantState),
		byName:   make(map[string]*tenantState),
	}
	if len(tenants) == 0 {
		a.open = true
		tenants = []Tenant{{Name: anonTenant}}
	}
	for _, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := a.byName[t.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", t.Name)
		}
		if t.Rate > 0 && t.Burst <= 0 {
			t.Burst = int(math.Max(1, math.Ceil(t.Rate)))
		}
		st := &tenantState{cfg: t, bucket: tokenBucket{rate: t.Rate, burst: float64(t.Burst)}}
		if !a.open {
			if t.Key == "" {
				return nil, fmt.Errorf("serve: tenant %q has no key", t.Name)
			}
			if _, dup := a.byKey[t.Key]; dup {
				return nil, fmt.Errorf("serve: tenants share a key")
			}
			a.byKey[t.Key] = st
		}
		a.byName[t.Name] = st
		a.order = append(a.order, st)
	}
	return a, nil
}

// names lists the tenant names in registration order (the metrics label
// value set).
func (a *admission) names() []string {
	out := make([]string, len(a.order))
	for i, t := range a.order {
		out[i] = t.cfg.Name
	}
	return out
}

// authenticate resolves the Authorization header to a tenant. On an open
// server everyone is the anonymous tenant; otherwise only a known
// "Bearer <key>" passes.
func (a *admission) authenticate(header string) *tenantState {
	if a.open {
		return a.byName[anonTenant]
	}
	key, ok := strings.CutPrefix(header, "Bearer ")
	if !ok {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byKey[strings.TrimSpace(key)]
}

// lookup resolves a tenant name (for resumed stored jobs).
func (a *admission) lookup(name string) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byName[name]
}

// takeToken spends one rate-limit token for t, reporting the back-off on
// refusal.
func (a *admission) takeToken(t *tenantState, now time.Time) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return t.bucket.take(now)
}

// acquire claims an execution slot for t. It returns (nil, true) when a
// slot was free, (w, true) when the job was queued — wait for w.ready —
// and (nil, false) when t's queue is full. forced queues past the bound
// (restart recovery must never drop stored work). Every successful acquire
// (immediate or after w.ready closes) must be paired with release.
func (a *admission) acquire(t *tenantState, forced bool) (*waiter, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used < a.slots {
		a.used++
		t.run++
		return nil, true
	}
	if !forced && len(t.queue) >= a.perQueue {
		return nil, false
	}
	w := &waiter{ready: make(chan struct{}), t: t}
	t.queue = append(t.queue, w)
	return w, true
}

// cancelWait withdraws a queued waiter whose submitter gave up. It reports
// false when the waiter was already granted — the caller then owns a slot
// and must release it.
func (a *admission) cancelWait(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, q := range w.t.queue {
		if q == w {
			w.t.queue = append(w.t.queue[:i], w.t.queue[i+1:]...)
			return true
		}
	}
	return false
}

// release returns t's slot. If any tenant has queued work the slot
// transfers to the next one round-robin from the cursor — the fairness
// rule: a tenant with a deep backlog gets one grant per cycle, no more.
func (a *admission) release(t *tenantState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t.run--
	n := len(a.order)
	for i := 1; i <= n; i++ {
		idx := (a.cursor + i) % n
		next := a.order[idx]
		if len(next.queue) > 0 {
			w := next.queue[0]
			next.queue = next.queue[1:]
			next.run++
			a.cursor = idx
			close(w.ready)
			return
		}
	}
	a.used--
}

// queued and running sample one tenant's gauges.
func (a *admission) queued(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.byName[name]; ok {
		return len(t.queue)
	}
	return 0
}

func (a *admission) running(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.byName[name]; ok {
		return t.run
	}
	return 0
}
