package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned by Get/ReadRaw/Delete for an unknown snapshot.
var ErrNotFound = errors.New("store: no such snapshot")

// ledgerName is the per-tenant privacy ledger, one file per store
// directory. Its name fails ValidID, so the model scan never confuses it
// with a snapshot.
const ledgerName = "ledger.v2"

// quarantineExt marks a record that failed decoding; the file is renamed,
// not deleted, so an operator can inspect it.
const quarantineExt = ".corrupt"

// fileInfo is the store's in-memory index entry for one record file.
type fileInfo struct {
	size  int64
	mtime time.Time
}

// records is one kind of ID-keyed record — model snapshots or job
// records: record X lives at <dir>/X<ext>. The index is guarded by
// Store.mu.
type records struct {
	noun  string // names the kind in errors
	ext   string
	valid func(id string) bool
	index map[string]fileInfo
}

// footprint returns how many records of the kind are on disk and their
// total size. Callers hold Store.mu.
func (k *records) footprint() (n int, bytes int64) {
	for _, fi := range k.index {
		bytes += fi.size
	}
	return len(k.index), bytes
}

// Stats is a point-in-time summary of the store, surfaced by /healthz and
// the Prometheus metrics.
type Stats struct {
	// Count and Bytes describe the model snapshots currently on disk;
	// JobRecords and JobBytes the persisted finished-job results.
	Count      int
	Bytes      int64
	JobRecords int
	JobBytes   int64
	// Saves/Loads/Deletes count successful operations since process start;
	// the *Errors counters their failures. Quarantined counts snapshots and
	// job records moved aside because they failed decoding; a ledger that
	// cannot be read or decoded is never moved, only counted in LoadErrors.
	Saves       int64
	SaveErrors  int64
	Loads       int64
	LoadErrors  int64
	Deletes     int64
	Quarantined int64
	// LedgerSaves counts successful privacy-ledger flushes; LedgerErrors
	// their failures. Ledger failures are tracked apart from snapshot save
	// errors because they mean something different to an operator: a model
	// that failed to persist refits on restart, a ledger that failed to
	// flush under-counts released records — a privacy-accounting problem,
	// not a capacity one.
	LedgerSaves  int64
	LedgerErrors int64
	// LastSaveError, LastLoadError and LastLedgerError are the most recent
	// failure messages (empty when none has occurred).
	LastSaveError   string
	LastLoadError   string
	LastLedgerError string
}

// Store is a directory of durable records: model snapshots, job records
// and the privacy ledger. All methods are safe for concurrent use. Writes
// are crash-safe: a record is streamed to a temporary file, fsynced, then
// renamed into place, so a crash leaves either the old record or the new
// one, never a torn file.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	snaps records // model id → on-disk snapshot
	jobs  records // job id → on-disk job record
	stats Stats
}

// Open opens (creating if needed) a snapshot directory. maxBytes caps the
// total snapshot bytes kept on disk (0 = unlimited): when a Put pushes the
// directory over the cap, the oldest snapshots are evicted until it fits
// (the snapshot just written is never the one evicted).
//
// Open only indexes the directory; records are decoded on Get and GetJob,
// where a corrupt file is quarantined (renamed *.corrupt) rather than
// served.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		snaps:    records{noun: "snapshot", ext: ".snap", valid: ValidID, index: make(map[string]fileInfo)},
		jobs:     records{noun: "job record", ext: ".job", valid: ValidJobID, index: make(map[string]fileInfo)},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			// A crash mid-writeAtomic leaves a partial temp file behind;
			// nothing references it, so sweep it before it accumulates. The
			// completed record (old or new) is intact — the rename is what
			// publishes a write.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		// Foreign files, the ledger and quarantined records match no kind
		// and are left alone.
		for _, k := range []*records{&s.snaps, &s.jobs} {
			if id, ok := strings.CutSuffix(name, k.ext); ok && k.valid(id) {
				if info, err := e.Info(); err == nil {
					k.index[id] = fileInfo{size: info.Size(), mtime: info.ModTime()}
				}
			}
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(k *records, id string) string { return filepath.Join(s.dir, id+k.ext) }

func (s *Store) ledgerPath() string { return filepath.Join(s.dir, ledgerName) }

// put encodes record id of kind k and writes it atomically, replacing any
// previous record with that ID, then indexes it and counts the save.
func (s *Store) put(k *records, id string, encode func() ([]byte, error)) error {
	if !k.valid(id) {
		return s.saveFailed(fmt.Errorf("store: invalid %s id %q", k.noun, id))
	}
	data, err := encode()
	if err != nil {
		return s.saveFailed(err)
	}
	if err := s.writeAtomic(s.path(k, id), data); err != nil {
		return s.saveFailed(fmt.Errorf("store: writing %s %s: %w", k.noun, id, err))
	}
	s.mu.Lock()
	k.index[id] = fileInfo{size: int64(len(data)), mtime: time.Now()}
	s.stats.Saves++
	s.mu.Unlock()
	return nil
}

// read returns the bytes of record id of kind k. An index entry whose file
// is gone is dropped and reads as ErrNotFound.
func (s *Store) read(k *records, id string) ([]byte, error) {
	if !k.valid(id) {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	_, ok := k.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	raw, err := s.readFile(s.path(k, id), k.noun+" "+id)
	if errors.Is(err, ErrNotFound) {
		s.mu.Lock()
		delete(k.index, id) // index was stale
		s.mu.Unlock()
	}
	return raw, err
}

// readFile reads one file of the store. A missing file is ErrNotFound; any
// other failure counts as a load error.
func (s *Store) readFile(path, what string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		s.loadFailed(err)
		return nil, fmt.Errorf("store: reading %s: %w", what, err)
	}
	return raw, nil
}

// load reads record id of kind k and decodes it under the store's one
// decode-failure rule. A container from another format version
// (ErrBadVersion) is intact, just written by a different binary (rollback
// or roll-forward), so it stays in place for the binary that understands
// it and counts as a load error. Any other decode failure, or a record
// naming another ID, is quarantined: renamed *.corrupt, dropped from the
// index and counted as a load error, so one bad file cannot wedge
// warm-start or be served again.
func load[T interface{ recordID() string }](s *Store, k *records, id string, decode func([]byte) (T, error)) (T, error) {
	var none T
	raw, err := s.read(k, id)
	if err != nil {
		return none, err
	}
	rec, err := decode(raw)
	if err == nil && rec.recordID() != id {
		err = fmt.Errorf("store: %s file %s contains %s", k.noun, id, rec.recordID())
	}
	switch {
	case err == nil:
		s.mu.Lock()
		s.stats.Loads++
		s.mu.Unlock()
		return rec, nil
	case errors.Is(err, ErrBadVersion):
		s.loadFailed(err)
	default:
		_ = os.Rename(s.path(k, id), s.path(k, id)+quarantineExt)
		s.mu.Lock()
		delete(k.index, id)
		s.stats.Quarantined++
		s.stats.LoadErrors++
		s.stats.LastLoadError = err.Error()
		s.mu.Unlock()
	}
	return none, err
}

// remove deletes record id of kind k. Removing a record that is neither
// indexed nor on disk returns ErrNotFound.
func (s *Store) remove(k *records, id string) error {
	if !k.valid(id) {
		return ErrNotFound
	}
	s.mu.Lock()
	_, ok := k.index[id]
	delete(k.index, id)
	s.mu.Unlock()
	err := os.Remove(s.path(k, id))
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
		if !ok {
			return ErrNotFound
		}
	}
	if err != nil {
		return fmt.Errorf("store: deleting %s %s: %w", k.noun, id, err)
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// list returns the IDs of kind k ordered by file mtime, oldest first
// (newest first with newestFirst), ties by ID.
func (s *Store) list(k *records, newestFirst bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(k.index))
	for id := range k.index {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ta, tb := k.index[ids[a]].mtime, k.index[ids[b]].mtime
		if !ta.Equal(tb) {
			return ta.Before(tb) != newestFirst
		}
		return ids[a] < ids[b]
	})
	return ids
}

// writeAtomic writes data to path via a temp file in the same directory,
// fsyncing before the rename.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Put atomically persists a snapshot, replacing any previous snapshot for
// the same ID, then enforces the byte budget.
func (s *Store) Put(snap *Snapshot) error {
	if err := s.put(&s.snaps, snap.ID, snap.Encode); err != nil {
		return err
	}
	s.mu.Lock()
	evict := s.overBudgetLocked(snap.ID)
	s.mu.Unlock()
	for _, old := range evict {
		s.Delete(old)
	}
	return nil
}

// overBudgetLocked returns the oldest snapshot IDs (by mtime) that must go
// to bring the directory back under maxBytes, never including keep.
func (s *Store) overBudgetLocked(keep string) []string {
	if s.maxBytes <= 0 {
		return nil
	}
	_, total := s.snaps.footprint()
	if total <= s.maxBytes {
		return nil
	}
	type aged struct {
		id string
		fileInfo
	}
	var candidates []aged
	for id, fi := range s.snaps.index {
		if id != keep {
			candidates = append(candidates, aged{id, fi})
		}
	}
	sort.Slice(candidates, func(a, b int) bool {
		if !candidates[a].mtime.Equal(candidates[b].mtime) {
			return candidates[a].mtime.Before(candidates[b].mtime)
		}
		return candidates[a].id < candidates[b].id
	})
	var evict []string
	for _, c := range candidates {
		if total <= s.maxBytes {
			break
		}
		evict = append(evict, c.id)
		total -= c.size
	}
	return evict
}

// Get reads and decodes a snapshot; a file that fails to decode is handled
// by the rule load documents.
func (s *Store) Get(id string) (*Snapshot, error) {
	return load(s, &s.snaps, id, Decode)
}

// ReadRaw returns a snapshot's encoded bytes (the export path).
func (s *Store) ReadRaw(id string) ([]byte, error) {
	return s.read(&s.snaps, id)
}

// Delete removes a snapshot from disk. Deleting an unknown ID returns
// ErrNotFound.
func (s *Store) Delete(id string) error {
	return s.remove(&s.snaps, id)
}

// Has reports whether a snapshot for the ID is on disk. It consults the
// filesystem, not just the index, so snapshots removed behind the store's
// back (operator cleanup, byte eviction on another mount) read as absent —
// Flush relies on this to re-persist them. Only a definite not-exist drops
// the index entry; a transient stat failure (EMFILE, EACCES) falls back to
// the index rather than forgetting an intact snapshot.
func (s *Store) Has(id string) bool {
	if !ValidID(id) {
		return false
	}
	info, err := os.Stat(s.path(&s.snaps, id))
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, fs.ErrNotExist) {
		delete(s.snaps.index, id)
		return false
	}
	if err != nil {
		_, ok := s.snaps.index[id]
		return ok
	}
	if _, ok := s.snaps.index[id]; !ok {
		s.snaps.index[id] = fileInfo{size: info.Size(), mtime: info.ModTime()}
	}
	return true
}

// IDs returns the snapshot IDs on disk, newest first (by file mtime, ties by
// ID) — the order warm-start should load them in so the most recently fitted
// models win the cache.
func (s *Store) IDs() []string {
	return s.list(&s.snaps, true)
}

// Size returns the encoded size in bytes of one snapshot (0 if absent).
func (s *Store) Size(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps.index[id].size
}

// PutJob atomically persists a finished-job record, replacing any previous
// record for the same ID. Job records live outside the model byte budget:
// they are small, bounded by the job manager's retention limit, and
// evicting a model to make room for a job result (or vice versa) would
// couple two unrelated retention policies.
func (s *Store) PutJob(rec *JobRecord) error {
	return s.put(&s.jobs, rec.ID, rec.Encode)
}

// GetJob reads and decodes a persisted job record; a file that fails to
// decode is handled by the rule load documents.
func (s *Store) GetJob(id string) (*JobRecord, error) {
	return load(s, &s.jobs, id, DecodeJobRecord)
}

// DeleteJob removes a persisted job record (the retention-eviction and
// DELETE /v1/jobs paths). Deleting an unknown ID returns ErrNotFound.
func (s *Store) DeleteJob(id string) error {
	return s.remove(&s.jobs, id)
}

// JobIDs returns the persisted job IDs, oldest first (by file mtime, ties
// by ID) — the order warm-start should restore them in, so the job
// manager's finish-order retention evicts the oldest results first when
// more records survive on disk than the retention bound admits.
func (s *Store) JobIDs() []string {
	return s.list(&s.jobs, false)
}

// PutLedger atomically persists the privacy ledger. Failures are tracked
// apart from model save errors (see Stats.LedgerErrors): a lost model
// refits, a lost ledger under-counts released records.
func (s *Store) PutLedger(l *Ledger) error {
	data, err := l.Encode()
	if err == nil {
		err = s.writeAtomic(s.ledgerPath(), data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.LedgerErrors++
		s.stats.LastLedgerError = err.Error()
		return fmt.Errorf("store: writing ledger: %w", err)
	}
	s.stats.LedgerSaves++
	s.stats.LastLedgerError = ""
	return nil
}

// GetLedger reads the persisted privacy ledger. A store directory without
// one returns ErrNotFound (a fresh deployment, or pre-v2 state). A ledger
// that cannot be read or decoded returns an error naming the file, counts
// as a load error and stays where it is — never quarantined: starting from
// an empty ledger instead would forget every record released before, so
// the caller must not start until an operator has dealt with the file.
func (s *Store) GetLedger() (*Ledger, error) {
	path := s.ledgerPath()
	raw, err := s.readFile(path, "ledger "+path)
	if err != nil {
		return nil, err
	}
	l, err := DecodeLedger(raw)
	if err != nil {
		s.loadFailed(err)
		return nil, fmt.Errorf("store: decoding ledger %s: %w", path, err)
	}
	s.mu.Lock()
	s.stats.Loads++
	s.mu.Unlock()
	return l, nil
}

// Stats returns a consistent snapshot of the store's counters and current
// disk footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Count, out.Bytes = s.snaps.footprint()
	out.JobRecords, out.JobBytes = s.jobs.footprint()
	return out
}

func (s *Store) saveFailed(err error) error {
	s.mu.Lock()
	s.stats.SaveErrors++
	s.stats.LastSaveError = err.Error()
	s.mu.Unlock()
	return err
}

func (s *Store) loadFailed(err error) {
	s.mu.Lock()
	s.stats.LoadErrors++
	s.stats.LastLoadError = err.Error()
	s.mu.Unlock()
}

// WriteMetrics renders the store's counters in the Prometheus text format,
// matching the sgfd_ namespace of internal/server's metrics.
func (s *Store) WriteMetrics(w io.Writer) (int64, error) {
	st := s.Stats()
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	add("# TYPE sgfd_store_snapshots gauge\nsgfd_store_snapshots %d\n", st.Count)
	add("# TYPE sgfd_store_bytes gauge\nsgfd_store_bytes %d\n", st.Bytes)
	add("# TYPE sgfd_store_saves_total counter\nsgfd_store_saves_total %d\n", st.Saves)
	add("# TYPE sgfd_store_save_errors_total counter\nsgfd_store_save_errors_total %d\n", st.SaveErrors)
	add("# TYPE sgfd_store_loads_total counter\nsgfd_store_loads_total %d\n", st.Loads)
	add("# TYPE sgfd_store_load_errors_total counter\nsgfd_store_load_errors_total %d\n", st.LoadErrors)
	add("# TYPE sgfd_store_deletes_total counter\nsgfd_store_deletes_total %d\n", st.Deletes)
	add("# TYPE sgfd_store_quarantined_total counter\nsgfd_store_quarantined_total %d\n", st.Quarantined)
	add("# TYPE sgfd_store_job_records gauge\nsgfd_store_job_records %d\n", st.JobRecords)
	add("# TYPE sgfd_store_job_bytes gauge\nsgfd_store_job_bytes %d\n", st.JobBytes)
	add("# TYPE sgfd_store_ledger_saves_total counter\nsgfd_store_ledger_saves_total %d\n", st.LedgerSaves)
	add("# TYPE sgfd_store_ledger_errors_total counter\nsgfd_store_ledger_errors_total %d\n", st.LedgerErrors)
	n, err := w.Write(b)
	return int64(n), err
}
