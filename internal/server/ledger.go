package server

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/tenant"
)

// This file implements the per-tenant records-released privacy ledger: the
// serving-layer half of the paper's end-to-end guarantee. Theorem 1 bounds
// one record; what a tenant actually holds after a month of /synthesize
// calls is the composition over every record it ever drew, and that total
// (privacy.PlanRelease / LifetimeSpend) is a function of lifetime counts —
// not of anything a single request can see. The ledger keeps those counts,
// admission-checks each synthesize request against a configurable lifetime
// (ε, δ) budget before any generation work starts (403 when exhausted),
// and, with a store attached, writes settled spend behind the stream so a
// restart cannot silently reset the accounting.
//
// Counts are kept per (k, γ, ε0) tuple because the per-record guarantee —
// and therefore the composed total — depends on the exact mechanism
// parameters. Within a tuple the n releases compose via the better of
// sequential and advanced composition; across tuples the totals sum
// (sequential composition; the homogeneous theorems do not span differing
// mechanisms).

// defaultBudgetDelta is the lifetime δ cap used when a budget ε is
// configured without an explicit δ.
const defaultBudgetDelta = 1e-6

// maxAccountableK bounds the k the budget check will account: Theorem 1's
// t search is O(k), so an attacker-supplied k must not buy unbounded CPU
// inside the admission gate. Real deployments use k in the tens to
// thousands.
const maxAccountableK = 100_000

// maxLedgerTuples bounds the distinct (k, γ, ε0) rows one tenant's account
// may hold. The parameters are client-controlled floats, so without a cap
// a client cycling unique ε0 values would grow the account — and the
// persisted ledger, and the O(tuples) admission math under the ledger
// mutex — without bound. Past the cap, new tuples are refused under
// enforcement and folded into a single unaccountable overflow row without
// it (records stay counted; the row, like every unaccountable tuple,
// simply cannot be admitted under a future budget).
const maxLedgerTuples = 64

// overflowKey is the sentinel row tuple-overflow records are folded into.
// k=0 makes it permanently unaccountable.
var overflowKey = releaseKey{}

// releaseKey identifies one mechanism-parameter tuple in a tenant's
// release history.
type releaseKey struct {
	k     int
	gamma float64
	eps0  float64
}

// accountable reports whether Theorem 1 applies to the tuple at all: the
// randomized privacy test (ε0 > 0) with γ > 1 and a k that admits a
// trade-off parameter. Deterministic-test releases (ε0 = 0) carry the
// paper's plausible-deniability guarantee but no (ε, δ) one, so a lifetime
// (ε, δ) budget cannot admit them.
func (k releaseKey) accountable() bool {
	return k.k >= 2 && k.k <= maxAccountableK && k.gamma > 1 && k.eps0 > 0 &&
		!math.IsInf(k.gamma, 0) && !math.IsNaN(k.gamma) &&
		!math.IsInf(k.eps0, 0) && !math.IsNaN(k.eps0)
}

// account is one tenant's ledger state. spent is durable (written to the
// store by the ledger's flusher); pending reserves in-flight requests so two
// concurrent streams cannot both squeeze through the same remaining budget;
// denied counts admission refusals for the metrics.
type account struct {
	spent   map[releaseKey]int64
	pending map[releaseKey]int64
	denied  int64
	// lastEps/lastDelta remember the budget the account was last admitted
	// against, so the metrics can report spend meaningfully. Zero until the
	// first enforced admission.
	lastEps, lastDelta float64
}

// ledger is the in-memory accounting structure. All methods are safe for
// concurrent use.
//
// With a store attached (persistTo), the ledger is write-behind: a settle
// that delivered records marks it dirty and wakes one flusher goroutine,
// which writes the settled spend through store.PutLedger. A burst of
// settles coalesces into one write, and no disk write sits between
// admission and a response's last byte. A crash can therefore drop settled
// charges the flusher has not written yet.
type ledger struct {
	mu       sync.Mutex
	accounts map[string]*account

	st      *store.Store  // nil: nothing persists
	onErr   func(error)   // reports a failed write
	dirty   bool          // settled spend not yet written; guarded by mu
	kick    chan struct{} // buffered(1): at most one pending wakeup
	stop    chan struct{} // closed by close
	stopped chan struct{} // closed when the flusher exits
	once    sync.Once     // close runs once
}

func newLedger() *ledger {
	return &ledger{accounts: make(map[string]*account)}
}

func (l *ledger) accountLocked(tenant string) *account {
	a := l.accounts[tenant]
	if a == nil {
		a = &account{spent: make(map[releaseKey]int64), pending: make(map[releaseKey]int64)}
		l.accounts[tenant] = a
	}
	return a
}

// historyLocked assembles a tenant's accountable release history — durable
// spend plus in-flight reservations, plus extra records on extraKey — as
// LifetimeSpend input. Unaccountable tuples (ε0 = 0 releases made while
// enforcement was off) are excluded: Theorem 1 never applied to them, so
// an (ε, δ) budget has nothing to say about them. Callers hold l.mu.
func (a *account) historyLocked(extraKey releaseKey, extra int64) []privacy.ReleaseCount {
	totals := make(map[releaseKey]int64, len(a.spent)+1)
	for k, n := range a.spent {
		totals[k] += n
	}
	for k, n := range a.pending {
		totals[k] += n
	}
	totals[extraKey] += extra
	out := make([]privacy.ReleaseCount, 0, len(totals))
	for k, n := range totals {
		if n > 0 && k.accountable() {
			out = append(out, privacy.ReleaseCount{Records: int(n), K: k.k, Gamma: k.gamma, Eps0: k.eps0})
		}
	}
	return out
}

// admit reserves n records for the tenant under the given mechanism
// parameters, checking the lifetime (ε, δ) budget when maxEps > 0
// (maxEps <= 0 means enforcement is off — the reservation still tracks the
// count). The returned settle function MUST be called exactly once with
// the number of records actually delivered: it releases the reservation
// and moves the delivered count into durable spend.
//
// The per-release δ target and advanced-composition slack are both derived
// from the budget δ (a quarter each), leaving headroom for the composed
// per-release deltas themselves.
func (l *ledger) admit(tenant string, k int, gamma, eps0 float64, n int, maxEps, maxDelta float64) (settle func(delivered int), err error) {
	key := releaseKey{k: k, gamma: gamma, eps0: eps0}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accountLocked(tenant)
	if _, seen := a.spent[key]; !seen {
		if _, seen = a.pending[key]; !seen && len(a.spent)+len(a.pending) >= maxLedgerTuples {
			if maxEps > 0 {
				a.denied++
				return nil, fmt.Errorf(
					"tenant already holds %d distinct release-parameter tuples; new parameter combinations cannot be admitted under a lifetime privacy budget (reuse an existing (k, γ, ε0))",
					maxLedgerTuples)
			}
			key = overflowKey
		}
	}
	if maxEps > 0 {
		if maxDelta <= 0 {
			maxDelta = defaultBudgetDelta
		}
		a.lastEps, a.lastDelta = maxEps, maxDelta
		if !key.accountable() {
			a.denied++
			return nil, fmt.Errorf(
				"release parameters (k=%d, γ=%g, ε0=%g) carry no (ε, δ) guarantee under Theorem 1 (need k in [2, %d], γ > 1, ε0 > 0) and cannot be admitted under a lifetime privacy budget",
				k, gamma, eps0, maxAccountableK)
		}
		perRecordDelta, slack := maxDelta/4, maxDelta/4
		spend, serr := privacy.LifetimeSpend(a.historyLocked(key, int64(n)), perRecordDelta, slack)
		if serr != nil {
			a.denied++
			return nil, fmt.Errorf("release of %d records at (k=%d, γ=%g, ε0=%g) cannot be accounted against the lifetime budget: %v", n, k, gamma, eps0, serr)
		}
		if !spend.Within(maxEps, maxDelta) {
			a.denied++
			already := a.spent[key] + a.pending[key]
			capacity := privacy.MaxRecordsForBudget(k, gamma, eps0, perRecordDelta, slack, maxEps, maxDelta)
			return nil, fmt.Errorf(
				"lifetime privacy budget (ε=%g, δ=%g) exhausted: releasing %d more records at (k=%d, γ=%g, ε0=%g) would cost %v; %d already released at these parameters (tuple capacity alone ≤ %d records)",
				maxEps, maxDelta, n, k, gamma, eps0, spend, already, capacity)
		}
	}
	a.pending[key] += int64(n)
	var once sync.Once
	return func(delivered int) {
		once.Do(func() {
			l.mu.Lock()
			a.pending[key] -= int64(n)
			if a.pending[key] <= 0 {
				delete(a.pending, key)
			}
			if delivered > 0 {
				a.spent[key] += int64(delivered)
				l.dirty = true
			}
			l.mu.Unlock()
			if delivered > 0 {
				l.wake()
			}
		})
	}, nil
}

// restore loads persisted spend — the warm-start path. Restored rows add
// onto whatever is already in memory (in practice the ledger is empty at
// restore time).
func (l *ledger) restore(st *store.Ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range st.Entries {
		a := l.accountLocked(e.Tenant)
		a.spent[releaseKey{k: e.K, gamma: e.Gamma, eps0: e.Eps0}] += e.Records
	}
}

// persistTo attaches the store and starts the flusher. Call it once,
// before the first admission.
func (l *ledger) persistTo(st *store.Store, onErr func(error)) {
	l.st, l.onErr = st, onErr
	l.kick, l.stop, l.stopped = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.stopped)
		for {
			select {
			case <-l.kick:
				l.flush()
			case <-l.stop:
				return
			}
		}
	}()
}

// wake nudges the flusher after a settle marked the ledger dirty. kick is
// never closed, so a wake after close only fills its buffer.
func (l *ledger) wake() {
	if l.st == nil {
		return
	}
	select {
	case l.kick <- struct{}{}:
	default: // a wakeup is already pending; the flusher will see the charge
	}
}

// flush writes the settled spend if any is unwritten. A failed write
// re-marks the ledger dirty without waking the flusher (an immediate retry
// would spin on a persistent error): the next charge or close retries it.
func (l *ledger) flush() {
	l.mu.Lock()
	dirty := l.dirty
	l.dirty = false
	l.mu.Unlock()
	if !dirty {
		return
	}
	if err := l.st.PutLedger(l.snapshot()); err != nil {
		l.mu.Lock()
		l.dirty = true
		l.mu.Unlock()
		l.onErr(err)
	}
}

// close stops the flusher and writes any spend still unwritten. It is
// idempotent and a no-op without a store.
func (l *ledger) close() {
	if l.st == nil {
		return
	}
	l.once.Do(func() {
		close(l.stop)
		<-l.stopped
		l.flush()
	})
}

// snapshot renders the durable spend as a store.Ledger — what the flusher
// writes. Pending reservations are volatile by design: a crashed stream
// delivered whatever it delivered, and only settled counts are facts.
func (l *ledger) snapshot() *store.Ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := &store.Ledger{}
	for tenant, a := range l.accounts {
		for k, n := range a.spent {
			if n > 0 {
				out.Entries = append(out.Entries, store.LedgerEntry{
					Tenant: tenant, K: k.k, Gamma: k.gamma, Eps0: k.eps0, Records: n,
				})
			}
		}
	}
	return out
}

// ledgerStat is one tenant's accounting summary for /metrics and tests.
type ledgerStat struct {
	Tenant  string
	Records int64
	Denied  int64
	// EpsSpent/DeltaSpent are the composed lifetime cost under the budget
	// the tenant was last admitted against (zero when enforcement never ran
	// or the history is unaccountable).
	EpsSpent   float64
	DeltaSpent float64
}

// stats snapshots every account, name-sorted for stable metric order.
func (l *ledger) stats() []ledgerStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ledgerStat, 0, len(l.accounts))
	for tenant, a := range l.accounts {
		st := ledgerStat{Tenant: tenant, Denied: a.denied}
		for _, n := range a.spent {
			st.Records += n
		}
		if a.lastEps > 0 {
			if spend, err := privacy.LifetimeSpend(a.historyLocked(releaseKey{}, 0), a.lastDelta/4, a.lastDelta/4); err == nil {
				st.EpsSpent, st.DeltaSpent = spend.Epsilon, spend.Delta
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// effectiveBudget resolves the lifetime privacy budget a request runs
// under: the tenant's key-file override when present, the server-wide
// default otherwise (a nil tenant — authentication disabled — always uses
// the default). eps <= 0 means enforcement is off (the ledger still
// counts).
func (s *Server) effectiveBudget(tn *tenant.Identity) (eps, delta float64) {
	eps, delta = s.cfg.TenantBudgetEps, s.cfg.TenantBudgetDelta
	if tn != nil {
		if oeps, odelta, ok := tn.Budget(); ok {
			eps, delta = oeps, odelta
		}
	}
	if delta <= 0 {
		delta = defaultBudgetDelta
	}
	return eps, delta
}

// recordsTotal sums released records across every account (the /healthz
// privacy section).
func (l *ledger) recordsTotal() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, a := range l.accounts {
		for _, n := range a.spent {
			total += n
		}
	}
	return total
}
