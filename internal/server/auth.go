package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/tenant"
)

// This file is the tenant middleware: API-key authentication, role
// enforcement and per-tenant rate limiting in front of every /v1/* route.
// /healthz and /metrics stay open — probes and scrapers carry no keys.
//
// Without Config.Auth the server behaves exactly as before: every helper
// here treats a nil tenant as "authentication disabled, allow everything",
// so the single-tenant deployment pays no new branches beyond nil checks.

// errWorkerQuota reports a tenant whose in-flight worker grant quota is
// fully committed; the HTTP layer maps it to 429 + Retry-After.
var errWorkerQuota = errors.New("server: tenant worker quota exhausted, retry later")

// authenticate resolves the request's API key when authentication is
// enabled. It writes the 401/429 response itself and returns ok=false when
// the request must not proceed. With authentication disabled it returns
// (nil, true).
//
// Keys travel as "Authorization: Bearer <key>" or "X-Api-Key: <key>".
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (*tenant.Identity, bool) {
	if s.cfg.Auth == nil {
		return nil, true
	}
	key := r.Header.Get("X-Api-Key")
	if h := r.Header.Get("Authorization"); key == "" && h != "" {
		// The auth scheme is case-insensitive (RFC 7235): "bearer x" is as
		// valid as "Bearer x".
		if len(h) > 7 && strings.EqualFold(h[:7], "Bearer ") {
			key = strings.TrimSpace(h[7:])
		}
	}
	if key == "" {
		w.Header().Set("WWW-Authenticate", `Bearer realm="sgfd"`)
		writeError(w, http.StatusUnauthorized, "missing API key: send Authorization: Bearer <key> or X-Api-Key")
		return nil, false
	}
	tn, ok := s.cfg.Auth.Authenticate(key)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="sgfd"`)
		writeError(w, http.StatusUnauthorized, "unknown API key")
		return nil, false
	}
	if allowed, retryAfter := tn.Allow(time.Now()); !allowed {
		setRetryAfter(w, retryAfter)
		writeError(w, http.StatusTooManyRequests, "tenant %s is rate limited; retry later", tn.Name)
		return nil, false
	}
	tn.CountRequest()
	return tn, true
}

// setRetryAfter renders a wait as the Retry-After header (whole seconds,
// rounded up — the header cannot express fractions).
func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

// requireRole enforces the route's role requirement, writing the 403 itself
// when the tenant falls short. A nil tenant (authentication disabled)
// passes everything.
func requireRole(w http.ResponseWriter, tn *tenant.Identity, required tenant.Role) bool {
	if tn == nil || tn.Role().Allows(required) {
		return true
	}
	writeError(w, http.StatusForbidden, "tenant %s has role %s; this endpoint requires %s",
		tn.Name, tn.Role(), required)
	return false
}

// canSeeModel reports whether the tenant may observe a model entry. Admins
// see every model; other tenants only models they registered themselves
// (models are content-addressed, so "registered" means "supplied the same
// data" — see Registry.AddOwner). A nil tenant sees everything.
func canSeeModel(tn *tenant.Identity, e *ModelEntry) bool {
	if tn == nil || tn.Role() == tenant.RoleAdmin {
		return true
	}
	return e.OwnedBy(tn.Name)
}

// modelVisible is THE tenant visibility policy for a model ID — every
// handler that resolves an ID (status, synthesize, export) routes through
// it, so the authorization decision has exactly one implementation. It
// consults only the resident set (a side-effect-free probe). A store-only
// snapshot does carry its owner set, but reading it means loading it: the
// registry's store fallback decodes the snapshot into the LRU and can evict
// a resident model, deleting that model's snapshot for good. A non-admin
// probing IDs it may never see could then churn the cache and destroy
// other tenants' persisted models, so only admins (and the no-auth server)
// may proceed to a loading lookup for a non-resident ID.
func (s *Server) modelVisible(id string, tn *tenant.Identity) bool {
	if tn == nil {
		return true
	}
	if e, ok := s.reg.Resident(id); ok {
		return canSeeModel(tn, e)
	}
	return tn.Role() == tenant.RoleAdmin
}

// getModelFor resolves a model ID for a tenant: the modelVisible gate
// first, then the loading registry lookup (which also marks the entry
// recently used). A false return reads as 404 upstream.
func (s *Server) getModelFor(id string, tn *tenant.Identity) (*ModelEntry, bool) {
	if !s.modelVisible(id, tn) {
		return nil, false
	}
	return s.reg.Get(id)
}

// ownerOf names the owner this tenant's models and ledger account are
// recorded under ("" with authentication off).
func ownerOf(tn *tenant.Identity) string {
	if tn == nil {
		return ""
	}
	return tn.Name
}

// acquireWorkers obtains the one pool token a synthesize request holds for
// its stream: it reserves one unit of the tenant's worker-grant quota first
// (when authentication is on), then takes the token, and folds both
// releases into one. Workers the request borrows for its chunks count
// against neither: any waiting request, of any tenant, recalls them within
// a batch (see WorkerPool), so max_workers bounds how many requests a
// tenant streams at once and one tenant still cannot drain the pool.
//
// It fails fast with errWorkerQuota when the tenant's quota is fully
// committed — ahead of the pool, so a quota-bound tenant queues on its own
// budget, never on the shared tokens.
func (s *Server) acquireWorkers(ctx context.Context, tn *tenant.Identity) (func(), error) {
	if tn == nil {
		return s.pool.Acquire(ctx)
	}
	giveBack, ok := tn.ReserveWorker()
	if !ok {
		return nil, errWorkerQuota
	}
	release, err := s.pool.Acquire(ctx)
	if err != nil {
		giveBack()
		return nil, err
	}
	return func() {
		release()
		giveBack()
	}, nil
}
