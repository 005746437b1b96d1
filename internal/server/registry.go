package server

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	sgf "repro"
	"repro/internal/dataset"
	"repro/internal/store"
)

// ErrTooManyFits is returned by Open when the number of models still
// fitting (or queued to fit) has reached the registry's pending limit; the
// HTTP layer maps it to 429.
var ErrTooManyFits = errors.New("server: too many models fitting or queued, retry later")

// ErrUnknownModel is returned by Remove for an ID that is neither resident
// nor persisted; the HTTP layer maps it to 404.
var ErrUnknownModel = errors.New("server: unknown model")

// ErrModelFitting is returned by Remove while the model's fit goroutine is
// still running (removing it would orphan the result); the HTTP layer maps
// it to 409.
var ErrModelFitting = errors.New("server: model is still fitting")

// ModelState is the lifecycle state of a registry entry.
type ModelState string

const (
	// StateFitting means the background fit goroutine is still running.
	StateFitting ModelState = "fitting"
	// StateReady means the model can serve synthesize requests.
	StateReady ModelState = "ready"
	// StateFailed means fitting ended with an error (recorded on the entry).
	StateFailed ModelState = "failed"
	// StateStored marks a model that exists only as a snapshot on disk, not
	// (yet) loaded into the registry. It appears in listings; loading happens
	// lazily on first use.
	StateStored ModelState = "stored"
)

// ModelEntry is one registered model. ID, Key, Created, Clean, Rows, Opts
// and the done channel are immutable after registration; the remaining
// fields are written exactly once by the fit goroutine before done is
// closed, so any reader that has observed done closed (or read the state
// under the registry lock) may read them freely.
type ModelEntry struct {
	// ID is the public handle ("m-" + 16 hex digits of the cache key).
	ID string
	// Key is the cache key: a hash of the dataset bytes and fit config.
	Key string
	// Created is the registration time.
	Created time.Time
	// Clean summarizes CSV extraction for uploaded datasets.
	Clean dataset.CleanStats
	// Rows is the number of clean input records.
	Rows int
	// Opts echoes the fit configuration (for snapshots and listings).
	Opts sgf.FitOptions

	// done is closed when fitting finishes, whatever the outcome.
	done chan struct{}

	// persistMu serializes the entry's snapshot write (Registry.persist)
	// with the deletes of eviction and Remove, so a write cannot land after
	// the entry's snapshot was deleted. Lock order: persistMu before r.mu
	// and mu, never after.
	persistMu sync.Mutex

	mu     sync.Mutex
	state  ModelState
	err    error
	fitted *sgf.FittedModel
	fitDur time.Duration
	// owners names the tenants that registered this model (fit, cache-hit
	// re-fit, or import). Models are content-addressed, so two tenants
	// uploading identical data share one entry and both own it — each
	// already holds the data, so co-ownership reveals nothing. The set is
	// persisted with the model's snapshot (format v2) and restored on
	// warm-start, so a restart preserves tenant isolation instead of
	// resetting revived models to unowned. nil until the first owner.
	owners map[string]struct{}

	elem *list.Element // LRU position, guarded by the registry lock
}

// OwnedBy reports whether the named tenant registered this model.
func (e *ModelEntry) OwnedBy(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.owners[name]
	return ok
}

// ownersLocked returns the owner set, sorted (the snapshot encoding order).
// Callers hold e.mu.
func (e *ModelEntry) ownersLocked() []string {
	if len(e.owners) == 0 {
		return nil
	}
	out := make([]string, 0, len(e.owners))
	for o := range e.owners {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// State returns the entry's state and, for StateFailed, the error.
func (e *ModelEntry) State() (ModelState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.err
}

// FitDuration returns how long fitting took (zero while fitting, and for
// entries restored from a snapshot the original fit's duration).
func (e *ModelEntry) FitDuration() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fitDur
}

// Wait blocks until fitting has finished or ctx-style done channel fires,
// then returns the fitted model or the fit error.
func (e *ModelEntry) Wait(cancel <-chan struct{}) (*sgf.FittedModel, error) {
	select {
	case <-e.done:
	case <-cancel:
		return nil, fmt.Errorf("server: cancelled while waiting for model %s", e.ID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	return e.fitted, nil
}

// Registry holds the server's models: an LRU cache keyed by dataset hash +
// fit config, with background fitting and de-duplication (two identical
// uploads share one entry and one fit).
//
// Fit load is bounded twice over: at most maxFits sgf.Fit calls run
// concurrently (the rest queue on fitSem), and at most maxPending entries
// may be unfinished at once — beyond that Open rejects with ErrTooManyFits,
// which keeps a burst of uploads from pinning unbounded datasets in memory
// (unfinished entries are exempt from LRU eviction).
//
// With a store attached the registry is write-through: persist writes a
// model's snapshot from its entry the moment its fit succeeds, and again
// when its owner set grows; LRU eviction deletes the snapshot along with
// the entry, and cache misses fall back to the store — WarmStart pre-loads
// the newest snapshots at boot and Get/Lookup lazily load anything the
// warm start skipped.
type Registry struct {
	metrics *Metrics
	store   *store.Store // nil = no persistence
	// logStoreError reports a failed snapshot load or write; New installs
	// the server's rate-limited logger.
	logStoreError func(op, id string, err error)

	fitSem  chan struct{}
	fitHook func() // test seam, called in the fit goroutine before learning

	mu      sync.Mutex
	cap     int
	pending int // unfinished entries (queued or fitting)
	maxPend int
	byID    map[string]*ModelEntry
	byKey   map[string]*ModelEntry
	lru     *list.List // front = most recently used; holds *ModelEntry
	// removing tombstones IDs with a Remove in flight, so the lazy store
	// fallback cannot resurrect a model between the registry drop and the
	// snapshot deletion.
	removing map[string]int
}

// NewRegistry returns a registry retaining at most capacity models
// (capacity <= 0 means 8), running at most maxFits concurrent fits
// (<= 0 means half of GOMAXPROCS, at least 1) and admitting at most
// maxPending unfinished models (<= 0 means 32). Models still fitting are
// never evicted. st may be nil (no persistence).
func NewRegistry(capacity, maxFits, maxPending int, metrics *Metrics, st *store.Store) *Registry {
	if capacity <= 0 {
		capacity = 8
	}
	if maxFits <= 0 {
		maxFits = runtime.GOMAXPROCS(0) / 2
		if maxFits < 1 {
			maxFits = 1
		}
	}
	if maxPending <= 0 {
		maxPending = 32
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Registry{
		metrics:       metrics,
		store:         st,
		logStoreError: func(string, string, error) {},
		fitSem:        make(chan struct{}, maxFits),
		cap:           capacity,
		maxPend:       maxPending,
		byID:          make(map[string]*ModelEntry),
		byKey:         make(map[string]*ModelEntry),
		lru:           list.New(),
		removing:      make(map[string]int),
	}
}

// Len returns the number of resident models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// PendingFull reports whether the pending-fit limit is currently reached.
// The HTTP layer uses it to refuse uploads before paying to parse them;
// Open re-checks authoritatively under the same lock.
func (r *Registry) PendingFull() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending >= r.maxPend
}

// Lookup returns the entry for a cache key, if resident or persisted,
// marking it most recently used. It lets the HTTP layer answer repeat
// uploads from the key alone, before paying to parse the dataset — across
// restarts too, since model IDs are derived from cache keys.
func (r *Registry) Lookup(key string) (*ModelEntry, bool) {
	r.mu.Lock()
	e, ok := r.byKey[key]
	if ok {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	if !ok {
		if len(key) < 16 {
			return nil, false
		}
		if e, ok = r.loadFromStore("m-" + key[:16]); !ok || e.Key != key {
			return nil, false
		}
	}
	r.metrics.CacheHit()
	return e, true
}

// Resident returns the entry for id only if it is loaded in memory —
// without consulting the snapshot store or touching the LRU order. Access
// checks use it as a side-effect-free existence probe.
func (r *Registry) Resident(id string) (*ModelEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	return e, ok
}

// Get returns the entry for id, marking it most recently used. A miss falls
// back to the snapshot store.
func (r *Registry) Get(id string) (*ModelEntry, bool) {
	r.mu.Lock()
	e, ok := r.byID[id]
	if ok {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	if ok {
		return e, true
	}
	return r.loadFromStore(id)
}

// loadFromStore revives a persisted model into the registry. Decode
// failures are handled (and the file quarantined) by the store; here they
// just read as a miss.
func (r *Registry) loadFromStore(id string) (*ModelEntry, bool) {
	if r.store == nil || !store.ValidID(id) {
		return nil, false
	}
	snap, err := r.store.Get(id)
	if err != nil {
		// A plain miss is the normal cache-fallthrough path; anything else
		// (corrupt snapshot, I/O error) was previously visible only via
		// /healthz — surface it, rate-limited per model.
		if !errors.Is(err, store.ErrNotFound) {
			r.logStoreError("load", id, err)
		}
		return nil, false
	}
	return r.revive(snap)
}

// revive registers a snapshot read from the store. A concurrent Remove
// wins: the insert is refused while a deletion is in flight, and undone if
// the snapshot vanished between the read and the insert.
func (r *Registry) revive(snap *store.Snapshot) (*ModelEntry, bool) {
	e, fresh := r.insertSnapshot(snap)
	if e == nil {
		return nil, false // Remove in flight
	}
	if fresh && !r.store.Has(snap.ID) {
		// The snapshot was deleted while we were decoding it: a Remove ran
		// to completion in between. Honour the deletion.
		r.mu.Lock()
		if r.byID[snap.ID] == e {
			r.lru.Remove(e.elem)
			delete(r.byID, e.ID)
			delete(r.byKey, e.Key)
		}
		r.mu.Unlock()
		return nil, false
	}
	return e, true
}

// insertSnapshot registers a decoded snapshot as a ready entry. If the ID
// is already resident (a concurrent load, or a fit racing a lazy load) the
// existing entry wins and fresh is false. A nil entry means a Remove for
// this ID is in flight and the insert was refused.
func (r *Registry) insertSnapshot(snap *store.Snapshot) (e *ModelEntry, fresh bool) {
	done := make(chan struct{})
	close(done)
	e = &ModelEntry{
		ID:      snap.ID,
		Key:     snap.Key,
		Created: snap.Created,
		Clean:   snap.Clean,
		Rows:    snap.Rows,
		Opts: sgf.FitOptions{
			ModelEps:   snap.ModelEps,
			ModelDelta: snap.ModelDelta,
			MaxCost:    snap.MaxCost,
			// The backend travels inside the fitted-model payload, not the
			// container; surface it on the entry so listings and status
			// reads report it for revived models too.
			Backend: snap.Model.Backend,
			Seed:    snap.Seed,
		},
		done:   done,
		state:  StateReady,
		fitted: snap.Model,
		fitDur: snap.FitDuration,
	}
	if len(snap.Owners) > 0 {
		// Restore persisted ownership, so a revived model answers to the
		// tenants that registered it — not to everyone, not to no one.
		e.owners = make(map[string]struct{}, len(snap.Owners))
		for _, o := range snap.Owners {
			e.owners[o] = struct{}{}
		}
	}
	r.mu.Lock()
	if r.removing[e.ID] > 0 {
		r.mu.Unlock()
		return nil, false
	}
	if prev, ok := r.byID[e.ID]; ok {
		r.lru.MoveToFront(prev.elem)
		r.mu.Unlock()
		return prev, false
	}
	e.elem = r.lru.PushFront(e)
	r.byID[e.ID] = e
	r.byKey[e.Key] = e
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.dropSnapshots(evicted)
	return e, true
}

// ImportSnapshot registers an externally supplied snapshot under the
// owners it names. An ID that already exists, on disk or only resident,
// keeps its model: the import succeeds, not fresh, only when snap carries
// the same cache key and fitted model, and otherwise fails having loaded,
// evicted and written nothing. A new ID is inserted and persisted. A nil
// entry with a nil error means a concurrent Remove refused the insert.
func (r *Registry) ImportSnapshot(snap *store.Snapshot) (*ModelEntry, bool, error) {
	conflict := fmt.Errorf("server: model %s already exists and the upload does not match it", snap.ID)
	if r.store != nil {
		switch disk, err := r.store.Get(snap.ID); {
		case err == nil && sameModel(disk, snap):
			e, _ := r.revive(disk)
			return e, false, nil
		case err == nil:
			return nil, false, conflict
		case !errors.Is(err, store.ErrNotFound):
			return nil, false, fmt.Errorf("server: model %s exists but cannot be read: %w", snap.ID, err)
		}
	}
	e, fresh := r.insertSnapshot(snap)
	if fresh {
		_ = r.persist(e) // persist logs a failure; the model still serves
	}
	if e == nil || fresh {
		return e, fresh, nil
	}
	if cur := r.snapshotFor(e); cur == nil || !sameModel(cur, snap) {
		return nil, false, conflict
	}
	return e, false, nil
}

// sameModel reports whether two snapshots carry the same cache key and
// fitted models that encode to the same bytes.
func sameModel(a, b *store.Snapshot) bool {
	if a.Key != b.Key {
		return false
	}
	var ab, bb bytes.Buffer
	return a.Model.Encode(&ab) == nil && b.Model.Encode(&bb) == nil && bytes.Equal(ab.Bytes(), bb.Bytes())
}

// WarmStart loads persisted snapshots into the registry, newest first, up
// to the cache capacity, and returns how many it loaded. Snapshots that
// fail to load are handled as on a lazy load, and skipped; snapshots beyond
// the capacity stay on disk and are loaded lazily on first use.
func (r *Registry) WarmStart() int {
	if r.store == nil {
		return 0
	}
	ids := r.store.IDs()
	if len(ids) > r.cap {
		ids = ids[:r.cap]
	}
	loaded := 0
	// Insert oldest-first so the newest snapshot ends up at the LRU front.
	for i := len(ids) - 1; i >= 0; i-- {
		if _, ok := r.loadFromStore(ids[i]); ok {
			loaded++
		}
	}
	return loaded
}

// Remove deletes a model from the registry and its snapshot from the store
// (the admin DELETE endpoint). Models still fitting cannot be removed. The
// snapshot is deleted first — under a tombstone that keeps the lazy store
// fallback from resurrecting the ID mid-removal — and a disk deletion that
// fails for a real reason (not absence) aborts the removal, so a 204 always
// means the model is actually gone.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	e, resident := r.byID[id]
	if resident {
		e.mu.Lock()
		fitting := e.state == StateFitting
		e.mu.Unlock()
		if fitting {
			r.mu.Unlock()
			return ErrModelFitting
		}
	}
	r.removing[id]++
	r.mu.Unlock()
	if resident {
		// A persist already past its residency check writes before the delete.
		e.persistMu.Lock()
		defer e.persistMu.Unlock()
	}

	var diskErr error = store.ErrNotFound
	if r.store != nil {
		diskErr = r.store.Delete(id)
	}

	r.mu.Lock()
	if r.removing[id]--; r.removing[id] == 0 {
		delete(r.removing, id)
	}
	if diskErr != nil && !errors.Is(diskErr, store.ErrNotFound) {
		r.mu.Unlock()
		return diskErr // snapshot survived; keep the model servable
	}
	// Re-look the entry up: it may have been inserted or evicted while the
	// lock was released.
	removedMem := false
	if cur, ok := r.byID[id]; ok {
		cur.mu.Lock()
		fitting := cur.state == StateFitting
		cur.mu.Unlock()
		if !fitting {
			r.lru.Remove(cur.elem)
			delete(r.byID, cur.ID)
			delete(r.byKey, cur.Key)
			removedMem = true
		}
	}
	r.mu.Unlock()

	if !removedMem && errors.Is(diskErr, store.ErrNotFound) {
		return ErrUnknownModel
	}
	r.metrics.ModelEvicted()
	return nil
}

// Entries returns the resident entries, most recently used first.
func (r *Registry) Entries() []*ModelEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ModelEntry, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*ModelEntry))
	}
	return out
}

// Flush writes a snapshot for every ready resident model that lacks one —
// the graceful-shutdown path. With write-through snapshotting this is
// normally a no-op; it exists to catch models whose snapshot write failed
// (disk full) or was byte-evicted, giving them one more chance to survive
// the restart. It returns the first error encountered.
func (r *Registry) Flush() error {
	var firstErr error
	for _, e := range r.Entries() {
		if r.store != nil && !r.store.Has(e.ID) {
			if err := r.persist(e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// persist writes the entry's snapshot, the one way a model snapshot
// reaches disk: only once its fit has succeeded and while it is resident,
// under persistMu, so no write lands after eviction or Remove deleted the
// snapshot. A failure is logged, counted in the store's stats (/healthz)
// and returned; the model still serves from memory.
func (r *Registry) persist(e *ModelEntry) error {
	if r.store == nil {
		return nil
	}
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	snap := r.snapshotFor(e)
	if snap == nil {
		return nil
	}
	if cur, ok := r.Resident(e.ID); !ok || cur != e {
		return nil // evicted or removed: its snapshot went with it
	}
	err := r.store.Put(snap)
	if err != nil {
		r.logStoreError("persist", e.ID, err)
	}
	return err
}

// snapshotFor assembles the persistent form of an entry, owner set
// included: nil until its fit has succeeded.
func (r *Registry) snapshotFor(e *ModelEntry) *store.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fitted == nil {
		return nil
	}
	return &store.Snapshot{
		ID:          e.ID,
		Key:         e.Key,
		Created:     e.Created,
		Rows:        e.Rows,
		Clean:       e.Clean,
		FitDuration: e.fitDur,
		ModelEps:    e.Opts.ModelEps,
		ModelDelta:  e.Opts.ModelDelta,
		MaxCost:     e.Opts.MaxCost,
		Seed:        e.Opts.Seed,
		Owners:      e.ownersLocked(),
		Model:       e.fitted,
	}
}

// AddOwner records a tenant as an owner of the model. Empty names
// (authentication disabled) are ignored. When the set grows, persist
// rewrites the snapshot before AddOwner returns, so the owner survives a
// restart. An owner added while the model fits needs no write of its own:
// persist skips an entry without a fitted model, and the fit's own
// persist, which follows the fitted model's arrival, reads the owner set
// then.
func (r *Registry) AddOwner(e *ModelEntry, name string) {
	if name == "" {
		return
	}
	e.mu.Lock()
	_, known := e.owners[name]
	if !known {
		if e.owners == nil {
			e.owners = make(map[string]struct{})
		}
		e.owners[name] = struct{}{}
	}
	e.mu.Unlock()
	if !known {
		_ = r.persist(e) // persist logs a failure; the owner holds in memory
	}
}

// Open returns the entry for the given cache key, fitting it in the
// background on first sight. The boolean reports whether the entry already
// existed (a cache hit). data/opts/clean are only consulted when a new
// entry is created. Open fails with ErrTooManyFits when the pending-fit
// limit is reached.
func (r *Registry) Open(key string, data *dataset.Dataset, opts sgf.FitOptions, clean dataset.CleanStats) (*ModelEntry, bool, error) {
	r.mu.Lock()
	if e, ok := r.byKey[key]; ok {
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.metrics.CacheHit()
		return e, true, nil
	}
	if r.pending >= r.maxPend {
		r.mu.Unlock()
		return nil, false, ErrTooManyFits
	}
	e := &ModelEntry{
		ID:      "m-" + key[:16],
		Key:     key,
		Created: time.Now(),
		Clean:   clean,
		Rows:    data.Len(),
		Opts:    opts,
		done:    make(chan struct{}),
		state:   StateFitting,
	}
	e.elem = r.lru.PushFront(e)
	r.byID[e.ID] = e
	r.byKey[key] = e
	r.pending++
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.dropSnapshots(evicted)

	go r.fit(e, data, opts)
	return e, false, nil
}

// fit runs sgf.Fit — gated by the concurrency semaphore — and publishes
// the outcome.
func (r *Registry) fit(e *ModelEntry, data *dataset.Dataset, opts sgf.FitOptions) {
	r.fitSem <- struct{}{}
	defer func() { <-r.fitSem }()
	if r.fitHook != nil {
		r.fitHook()
	}
	start := time.Now()
	fm, err := sgf.Fit(data, opts)
	e.mu.Lock()
	e.fitDur, e.fitted = time.Since(start), fm
	e.mu.Unlock()
	// Write-through before the model becomes visible: the entry is still
	// fitting, so neither eviction nor Remove can delete its snapshot before
	// the snapshot exists.
	_ = r.persist(e) // persist logs a failure; the model still serves
	e.mu.Lock()
	if err != nil {
		e.state, e.err = StateFailed, err
	} else {
		e.state = StateReady
	}
	e.mu.Unlock()
	// Count before waking the waiters, so a client that waited on the fit
	// never scrapes the counter before it moves.
	if err != nil {
		r.metrics.ModelFailed()
	} else {
		r.metrics.ModelFitted()
	}
	close(e.done)

	r.mu.Lock()
	r.pending--
	// The entry just became evictable; without this, a burst of admitted
	// fits could leave the cache over capacity until the next Open.
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.dropSnapshots(evicted)
}

// evictLocked drops least-recently-used finished entries until the cache
// fits, returning what it dropped so the caller can delete their snapshots
// outside the lock. Entries still fitting are skipped: evicting them would
// orphan the fit goroutine's result. Callers hold r.mu.
func (r *Registry) evictLocked() []*ModelEntry {
	var evicted []*ModelEntry
	over := len(r.byID) - r.cap
	for el := r.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		e := el.Value.(*ModelEntry)
		e.mu.Lock()
		fitting := e.state == StateFitting
		e.mu.Unlock()
		if !fitting {
			r.lru.Remove(el)
			delete(r.byID, e.ID)
			delete(r.byKey, e.Key)
			over--
			evicted = append(evicted, e)
			r.metrics.ModelEvicted()
		}
		el = prev
	}
	return evicted
}

// dropSnapshots deletes the snapshots of evicted entries; an evicted model
// is gone for good, exactly like before persistence existed.
func (r *Registry) dropSnapshots(evicted []*ModelEntry) {
	if r.store == nil {
		return
	}
	for _, e := range evicted {
		// persistMu waits out a persist that began before the eviction, so
		// its write cannot land after the delete.
		e.persistMu.Lock()
		_ = r.store.Delete(e.ID)
		e.persistMu.Unlock()
	}
}
