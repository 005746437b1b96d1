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

// snapExt is the file extension of a model snapshot: model X lives at
// <dir>/X.snap.
const snapExt = ".snap"

// quarantineExt marks a snapshot that failed decoding; the file is renamed,
// not deleted, so an operator can inspect it.
const quarantineExt = ".corrupt"

// fileInfo is the store's in-memory index entry for one snapshot file.
type fileInfo struct {
	size  int64
	mtime time.Time
}

// Stats is a point-in-time summary of the store, surfaced by /healthz and
// the Prometheus metrics.
type Stats struct {
	// Count and Bytes describe the model snapshots currently on disk.
	Count int
	Bytes int64
	// Saves/Loads/Deletes count successful operations since process start;
	// the *Errors counters their failures. Quarantined counts snapshots
	// moved aside because they failed decoding; a ledger that cannot be
	// read or decoded is never moved, only counted in LoadErrors.
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

// Store is a directory of durable records: model snapshots and the
// privacy ledger. All methods are safe for concurrent use. Writes are
// crash-safe: a record is streamed to a temporary file, fsynced, then
// renamed into place, so a crash leaves either the old record or the new
// one, never a torn file.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]fileInfo // model id → on-disk snapshot
	stats Stats
}

// Open opens (creating if needed) a snapshot directory. maxBytes caps the
// total snapshot bytes kept on disk (0 = unlimited): when a Put pushes the
// directory over the cap, the oldest snapshots are evicted until it fits
// (the snapshot just written is never the one evicted).
//
// Open only indexes the directory; snapshots are decoded on Get, where a
// corrupt file is quarantined (renamed *.corrupt) rather than served.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]fileInfo)}
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
		// Foreign files, the ledger and quarantined snapshots are left
		// alone, and so are the *.job records older releases wrote.
		if id, ok := strings.CutSuffix(name, snapExt); ok && ValidID(id) {
			if info, err := e.Info(); err == nil {
				s.index[id] = fileInfo{size: info.Size(), mtime: info.ModTime()}
			}
		}
	}
	return s, nil
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+snapExt) }

func (s *Store) ledgerPath() string { return filepath.Join(s.dir, ledgerName) }

// read returns the bytes of snapshot id. An index entry whose file is gone
// is dropped and reads as ErrNotFound.
func (s *Store) read(id string) ([]byte, error) {
	if !ValidID(id) {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	raw, err := s.readFile(s.path(id), "snapshot "+id)
	if errors.Is(err, ErrNotFound) {
		s.mu.Lock()
		delete(s.index, id) // index was stale
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
	if !ValidID(snap.ID) {
		return s.saveFailed(fmt.Errorf("store: invalid snapshot id %q", snap.ID))
	}
	data, err := snap.Encode()
	if err != nil {
		return s.saveFailed(err)
	}
	if err := s.writeAtomic(s.path(snap.ID), data); err != nil {
		return s.saveFailed(fmt.Errorf("store: writing snapshot %s: %w", snap.ID, err))
	}
	s.mu.Lock()
	s.index[snap.ID] = fileInfo{size: int64(len(data)), mtime: time.Now()}
	s.stats.Saves++
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
	total := s.bytesLocked()
	if total <= s.maxBytes {
		return nil
	}
	type aged struct {
		id string
		fileInfo
	}
	var candidates []aged
	for id, fi := range s.index {
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

// Get reads and decodes a snapshot under the store's one decode-failure
// rule. A container from another format version (ErrBadVersion) is intact,
// just written by a different binary (rollback or roll-forward), so it
// stays in place for the binary that understands it and counts as a load
// error. Any other decode failure, or a snapshot naming another ID, is
// quarantined: renamed *.corrupt, dropped from the index and counted as a
// load error, so one bad file cannot wedge warm-start or be served again.
func (s *Store) Get(id string) (*Snapshot, error) {
	raw, err := s.read(id)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(raw)
	if err == nil && snap.ID != id {
		err = fmt.Errorf("store: snapshot file %s contains %s", id, snap.ID)
	}
	switch {
	case err == nil:
		s.mu.Lock()
		s.stats.Loads++
		s.mu.Unlock()
		return snap, nil
	case errors.Is(err, ErrBadVersion):
		s.loadFailed(err)
	default:
		_ = os.Rename(s.path(id), s.path(id)+quarantineExt)
		s.mu.Lock()
		delete(s.index, id)
		s.stats.Quarantined++
		s.stats.LoadErrors++
		s.stats.LastLoadError = err.Error()
		s.mu.Unlock()
	}
	return nil, err
}

// ReadRaw returns a snapshot's encoded bytes (the export path).
func (s *Store) ReadRaw(id string) ([]byte, error) {
	return s.read(id)
}

// Delete removes a snapshot from disk. Deleting a snapshot that is neither
// indexed nor on disk returns ErrNotFound.
func (s *Store) Delete(id string) error {
	if !ValidID(id) {
		return ErrNotFound
	}
	s.mu.Lock()
	_, ok := s.index[id]
	delete(s.index, id)
	s.mu.Unlock()
	err := os.Remove(s.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
		if !ok {
			return ErrNotFound
		}
	}
	if err != nil {
		return fmt.Errorf("store: deleting snapshot %s: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
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
	info, err := os.Stat(s.path(id))
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, fs.ErrNotExist) {
		delete(s.index, id)
		return false
	}
	if err != nil {
		_, ok := s.index[id]
		return ok
	}
	if _, ok := s.index[id]; !ok {
		s.index[id] = fileInfo{size: info.Size(), mtime: info.ModTime()}
	}
	return true
}

// IDs returns the snapshot IDs on disk, newest first (by file mtime, ties by
// ID) — the order warm-start should load them in so the most recently fitted
// models win the cache.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ta, tb := s.index[ids[a]].mtime, s.index[ids[b]].mtime
		if !ta.Equal(tb) {
			return ta.After(tb)
		}
		return ids[a] < ids[b]
	})
	return ids
}

// Size returns the encoded size in bytes of one snapshot (0 if absent).
func (s *Store) Size(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[id].size
}

// bytesLocked returns the total size of the snapshots on disk. Callers
// hold s.mu.
func (s *Store) bytesLocked() int64 {
	var total int64
	for _, fi := range s.index {
		total += fi.size
	}
	return total
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
	out.Count, out.Bytes = len(s.index), s.bytesLocked()
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
	add("# TYPE sgfd_store_ledger_saves_total counter\nsgfd_store_ledger_saves_total %d\n", st.LedgerSaves)
	add("# TYPE sgfd_store_ledger_errors_total counter\nsgfd_store_ledger_errors_total %d\n", st.LedgerErrors)
	n, err := w.Write(b)
	return int64(n), err
}
