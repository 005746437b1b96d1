// Package tenant implements sgfd's multi-tenant access control: API-key
// authentication, per-tenant roles, and per-tenant resource limits (request
// rate, in-flight synthesis workers).
//
// The operator describes tenants in a JSON key file (see KeyFile) loaded at
// boot and hot-reloaded on SIGHUP. Authentication is by API key; keys are
// never kept in memory — only their SHA-256 digests — and lookup compares
// digests in constant time across every configured tenant, so response
// timing reveals nothing about how much of a guessed key matched, or which
// tenant it almost matched.
//
// A Registry separates tenant *configuration* (replaced wholesale on
// reload) from tenant *runtime state* (rate-limiter buckets, in-flight
// worker grants, request counters — keyed by tenant name and preserved
// across reloads, so rotating a key neither resets a tenant's metrics nor
// forgives a throttle it was already under).
package tenant

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Role orders a tenant's capabilities. Roles are hierarchical: writer
// implies reader, admin implies writer.
type Role string

const (
	// RoleReader may read models and run synthesize.
	RoleReader Role = "reader"
	// RoleWriter may additionally fit and import models.
	RoleWriter Role = "writer"
	// RoleAdmin may additionally delete models and their snapshots, read
	// request traces, and sees every tenant's models.
	RoleAdmin Role = "admin"
)

// rank maps roles onto their hierarchy level.
func (r Role) rank() int {
	switch r {
	case RoleReader:
		return 1
	case RoleWriter:
		return 2
	case RoleAdmin:
		return 3
	}
	return 0
}

// Allows reports whether a holder of role r may perform an action requiring
// the given role.
func (r Role) Allows(required Role) bool { return r.rank() >= required.rank() }

// Valid reports whether r is one of the three known roles.
func (r Role) Valid() bool { return r.rank() > 0 }

// KeyFile is the on-disk tenant description (JSON):
//
//	{
//	  "tenants": [
//	    {
//	      "name": "acme",
//	      "key": "acme-secret-key",
//	      "role": "writer",
//	      "rate_per_sec": 5,
//	      "burst": 10,
//	      "max_workers": 4
//	    }
//	  ]
//	}
//
// rate_per_sec/burst bound the request rate (token bucket; 0 = unlimited)
// and max_workers the synthesis workers a tenant may hold from the shared
// pool at once (0 = no per-tenant bound beyond the pool itself). The file
// is decoded strictly: a field this package does not know (a misspelled
// "budget_eps", or "max_jobs" from releases that ran evaluation jobs) is
// an error naming the field, not a silently ignored setting.
type KeyFile struct {
	Tenants []Config `json:"tenants"`
}

// Config is one tenant's declaration in the key file.
type Config struct {
	Name string `json:"name"`
	// Key authenticates with the tenant's full Role.
	Key  string `json:"key"`
	Role Role   `json:"role"`
	// ReadKey optionally authenticates as the same tenant — same
	// ownership, counters and quotas — but clamped to the reader role:
	// a credential safe to hand to dashboards and consumers that lets
	// them read and synthesize against the tenant's models without being
	// able to fit, import or delete anything.
	ReadKey    string  `json:"read_key,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	MaxWorkers int     `json:"max_workers,omitempty"`
	// BudgetEps/BudgetDelta override the server-wide lifetime privacy
	// budget for this tenant: the total (ε, δ) its released synthetic
	// records may ever cost under the composed Theorem 1 guarantee, as
	// accounted by the server's records-released ledger. 0 means "use the
	// server default" (including a disabled default); the override only
	// takes effect when BudgetEps > 0.
	BudgetEps   float64 `json:"budget_eps,omitempty"`
	BudgetDelta float64 `json:"budget_delta,omitempty"`
}

// minKeyLen rejects keys short enough to stumble into by accident. 16 bytes
// of entropy-bearing text is the floor, not a recommendation.
const minKeyLen = 16

// validName constrains tenant names to characters safe everywhere a name
// travels: Prometheus label values (whose text format only escapes \\, \"
// and newline — a control character in a label would corrupt the whole
// /metrics exposition), log lines, and snapshot owner sets.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// validate rejects configs that would make authentication ambiguous or
// meaningless.
func (c *Config) validate() error {
	if !validName(c.Name) {
		return fmt.Errorf("tenant name %q must be 1-64 characters of [A-Za-z0-9._-]", c.Name)
	}
	if len(c.Key) < minKeyLen {
		return fmt.Errorf("tenant %q: key shorter than %d characters", c.Name, minKeyLen)
	}
	if c.ReadKey != "" && len(c.ReadKey) < minKeyLen {
		return fmt.Errorf("tenant %q: read_key shorter than %d characters", c.Name, minKeyLen)
	}
	if !c.Role.Valid() {
		return fmt.Errorf("tenant %q: unknown role %q (want reader, writer or admin)", c.Name, c.Role)
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("tenant %q: negative rate_per_sec", c.Name)
	}
	if c.Burst < 0 {
		return fmt.Errorf("tenant %q: negative burst", c.Name)
	}
	if c.RatePerSec > 0 && c.Burst == 0 {
		// A rate with no burst would reject every request; give the bucket
		// at least one token of depth.
		c.Burst = 1
	}
	if c.MaxWorkers < 0 {
		return fmt.Errorf("tenant %q: negative max_workers", c.Name)
	}
	if c.BudgetEps < 0 {
		return fmt.Errorf("tenant %q: negative budget_eps", c.Name)
	}
	if c.BudgetDelta < 0 || c.BudgetDelta >= 1 {
		return fmt.Errorf("tenant %q: budget_delta must be in [0, 1)", c.Name)
	}
	if c.BudgetDelta > 0 && c.BudgetEps == 0 {
		return fmt.Errorf("tenant %q: budget_delta without budget_eps has no effect; set both", c.Name)
	}
	return nil
}

// Tenant is one authenticated principal. Name is immutable (it is the
// identity runtime state is carried under across reloads); everything else
// — configuration refreshed by Reload and the runtime counters — is
// guarded by mu, so a SIGHUP reload cannot race in-flight request
// handlers.
type Tenant struct {
	// Name identifies the tenant in listings, model ownership and metrics.
	Name string

	mu           sync.Mutex
	role         Role
	maxWorkers   int
	budgetEps    float64
	budgetDelta  float64
	limiter      *bucket
	workersInUse int
	requests     int64
	throttled    int64
}

// busy reports whether the tenant holds worker grants — the condition
// under which a removed tenant must keep draining instead of being
// dropped.
func (t *Tenant) busy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workersInUse > 0
}

// Role returns the tenant's capability level.
func (t *Tenant) Role() Role {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.role
}

// MaxWorkers returns the in-flight synthesis-worker bound (0 = unbounded).
func (t *Tenant) MaxWorkers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxWorkers
}

// Budget returns the tenant's lifetime privacy-budget override. ok=false
// means no override is configured and the server default applies.
func (t *Tenant) Budget() (eps, delta float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.budgetEps, t.budgetDelta, t.budgetEps > 0
}

// Stats is a point-in-time snapshot of one tenant's counters, exported as
// sgfd_tenant_* metrics.
type Stats struct {
	Name     string
	Role     Role
	Requests int64
	// Throttled counts requests actually refused with a 429 — by the rate
	// limiter or the worker quota.
	Throttled int64
	// WorkersInUse is the tenant's current in-flight worker grant total.
	WorkersInUse int
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Name:         t.Name,
		Role:         t.role,
		Requests:     t.requests,
		Throttled:    t.throttled,
		WorkersInUse: t.workersInUse,
	}
}

// CountRequest records one authenticated request by this tenant.
func (t *Tenant) CountRequest() {
	t.mu.Lock()
	t.requests++
	t.mu.Unlock()
}

// CountThrottle records a quota refusal the HTTP layer answered with 429
// (a synthesize request bounced off the worker quota), so the counter
// stays an honest total of 429s.
func (t *Tenant) CountThrottle() {
	t.mu.Lock()
	t.throttled++
	t.mu.Unlock()
}

// Allow consumes one rate-limit token. When the bucket is empty it refuses
// and reports how long until the next token — the Retry-After hint. Tenants
// with no configured rate always pass.
func (t *Tenant) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	t.mu.Lock()
	limiter := t.limiter
	t.mu.Unlock()
	if limiter == nil {
		return true, 0
	}
	ok, retryAfter = limiter.take(now)
	if !ok {
		t.CountThrottle()
	}
	return ok, retryAfter
}

// ReserveWorker reserves one in-flight worker unit against the tenant's
// MaxWorkers quota and returns the function that gives it back, which must
// be called exactly once. It refuses — ok=false — when the quota is fully
// committed. Refusals are not counted as throttles here; a caller that
// turns one into a 429 records it with CountThrottle.
func (t *Tenant) ReserveWorker() (release func(), ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxWorkers > 0 && t.workersInUse >= t.maxWorkers {
		return nil, false
	}
	t.workersInUse++
	return func() {
		t.mu.Lock()
		t.workersInUse--
		t.mu.Unlock()
	}, true
}

// bucket is a token-bucket rate limiter: capacity `burst`, refilled at
// `rate` tokens per second.
type bucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// take consumes one token, refilling for the time elapsed since the last
// call first. On refusal it returns the wait until a full token exists.
func (b *bucket) take(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	// Only advance the refill clock forward; out-of-order timestamps from
	// concurrent callers must not refill twice.
	if now.After(b.last) {
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// authEntry pairs a key digest with the tenant it authenticates and the
// role that key carries (a read_key clamps to reader; the primary key uses
// the tenant's configured role). Entries are immutable — Reload builds a
// fresh slice rather than mutating digests in place, so Authenticate can
// read them under the registry lock without racing a reload.
type authEntry struct {
	digest [sha256.Size]byte
	role   Role
	t      *Tenant
}

// Identity is an authenticated credential: the tenant it belongs to plus
// the role that particular key carries. Ownership, quotas and counters are
// the embedded tenant's; only the capability level is per-key.
type Identity struct {
	*Tenant
	role Role
}

// Role returns the capability level of the key that authenticated, which
// for a read_key is reader regardless of the tenant's configured role.
func (id *Identity) Role() Role { return id.role }

// Registry resolves API keys to tenants. The configuration set is replaced
// wholesale by Load/Reload; runtime state is carried over by tenant name.
type Registry struct {
	path string

	mu      sync.RWMutex
	keys    []authEntry // one per configured key (primary + read keys)
	tenants []*Tenant   // distinct tenants, sorted by name
	// draining holds tenants removed by a reload while still holding
	// worker grants: their keys no longer authenticate, but their
	// sgfd_tenant_* series keep reporting until the grants return, so pool
	// tokens never go unattributed. Re-adding the name recovers the same
	// runtime object. Pruned by Snapshot once idle.
	draining map[string]*Tenant
}

// Load reads and validates the key file at path and returns a registry
// bound to it (Reload re-reads the same path).
func Load(path string) (*Registry, error) {
	r := &Registry{path: path}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Path returns the key-file path the registry loads from.
func (r *Registry) Path() string { return r.path }

// Len returns the number of configured tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Reload re-reads the key file, replacing the tenant set. Runtime state
// (rate buckets, worker grants, counters) is preserved for tenants whose
// name survives the reload — even if their key rotated. On any error the
// previous tenant set stays in effect.
func (r *Registry) Reload() error {
	raw, err := os.ReadFile(r.path)
	if err != nil {
		return fmt.Errorf("tenant: reading key file: %w", err)
	}
	configs, err := parse(raw)
	if err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	prev := make(map[string]*Tenant, len(r.tenants)+len(r.draining))
	for name, t := range r.draining {
		prev[name] = t // a re-added name recovers its draining state
	}
	for _, t := range r.tenants {
		prev[t.Name] = t
	}
	nextKeys := make([]authEntry, 0, len(configs))
	nextTenants := make([]*Tenant, 0, len(configs))
	for _, c := range configs {
		t := prev[c.Name]
		if t == nil {
			t = &Tenant{Name: c.Name}
		}
		// Config fields follow the file — written under the tenant lock,
		// because request handlers for this tenant may be in flight;
		// runtime counters and the limiter bucket carry over unless the
		// rate changed.
		t.mu.Lock()
		t.role = c.Role
		t.maxWorkers = c.MaxWorkers
		t.budgetEps = c.BudgetEps
		t.budgetDelta = c.BudgetDelta
		switch {
		case c.RatePerSec <= 0:
			t.limiter = nil
		case t.limiter == nil || t.limiter.rate != c.RatePerSec || t.limiter.burst != float64(c.Burst):
			t.limiter = newBucket(c.RatePerSec, c.Burst)
		}
		t.mu.Unlock()
		nextKeys = append(nextKeys, authEntry{digest: sha256.Sum256([]byte(c.Key)), role: c.Role, t: t})
		if c.ReadKey != "" {
			nextKeys = append(nextKeys, authEntry{digest: sha256.Sum256([]byte(c.ReadKey)), role: RoleReader, t: t})
		}
		nextTenants = append(nextTenants, t)
	}
	sort.Slice(nextTenants, func(i, j int) bool { return nextTenants[i].Name < nextTenants[j].Name })
	inNext := make(map[string]bool, len(nextTenants))
	for _, t := range nextTenants {
		inNext[t.Name] = true
	}
	for name := range r.draining {
		if inNext[name] {
			delete(r.draining, name) // re-added: live again
		}
	}
	for _, t := range r.tenants {
		if !inNext[t.Name] && t.busy() {
			if r.draining == nil {
				r.draining = make(map[string]*Tenant)
			}
			r.draining[t.Name] = t
		}
	}
	r.keys = nextKeys
	r.tenants = nextTenants
	return nil
}

// parse decodes and validates the key-file bytes.
func parse(raw []byte) ([]Config, error) {
	var kf KeyFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&kf); err != nil {
		return nil, fmt.Errorf("tenant: parsing key file: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("tenant: parsing key file: data after the top-level object")
	}
	if len(kf.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: key file declares no tenants")
	}
	names := make(map[string]bool, len(kf.Tenants))
	digests := make(map[[sha256.Size]byte]string, len(kf.Tenants))
	for i := range kf.Tenants {
		c := &kf.Tenants[i]
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
		if names[c.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", c.Name)
		}
		names[c.Name] = true
		keys := []string{c.Key}
		if c.ReadKey != "" {
			keys = append(keys, c.ReadKey)
		}
		for _, k := range keys {
			d := sha256.Sum256([]byte(k))
			if other, dup := digests[d]; dup {
				return nil, fmt.Errorf("tenant: tenants %q and %q share a key", other, c.Name)
			}
			digests[d] = c.Name
		}
	}
	return kf.Tenants, nil
}

// Authenticate resolves an API key to an identity: the tenant it belongs
// to plus the role that key carries. The presented key is hashed once and
// its digest compared against every configured key's digest in constant
// time, with no early exit on match, so timing is independent of both the
// key contents and which (if any) key matched.
func (r *Registry) Authenticate(key string) (*Identity, bool) {
	digest := sha256.Sum256([]byte(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	var found *Identity
	for i := range r.keys {
		e := &r.keys[i]
		if subtle.ConstantTimeCompare(digest[:], e.digest[:]) == 1 {
			found = &Identity{Tenant: e.t, role: e.role}
		}
	}
	return found, found != nil
}

// Snapshot returns every tenant's counters — the configured set plus any
// removed tenants still draining worker grants — sorted by name: the data
// behind the sgfd_tenant_* metric series. Draining tenants that have gone
// idle are pruned here.
func (r *Registry) Snapshot() []Stats {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants)+len(r.draining))
	tenants = append(tenants, r.tenants...)
	for name, t := range r.draining {
		if !t.busy() {
			delete(r.draining, name)
			continue
		}
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	out := make([]Stats, len(tenants))
	for i, t := range tenants {
		out[i] = t.Stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
