package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/store"
	"repro/internal/tenant"
)

// This file implements the snapshot-lifecycle admin endpoints:
//
//	GET    /v1/models             list models (resident + persisted)
//	GET    /v1/models/{id}/export download a model's binary snapshot
//	POST   /v1/models/import      register a snapshot exported elsewhere
//	DELETE /v1/models/{id}        drop a model and its snapshot
//
// Export/import make fitted models transferable between hosts — the
// groundwork for sharded registries and multi-host serving — and all four
// work (degraded to memory-only) when no store is configured.

// modelSummary is one element of GET /v1/models.
type modelSummary struct {
	ID      string     `json:"id"`
	State   ModelState `json:"state"`
	Created *time.Time `json:"created,omitempty"`
	Backend string     `json:"backend,omitempty"`
	Rows    int        `json:"rows,omitempty"`
	FitMS   int64      `json:"fit_ms,omitempty"`
	// Resident reports whether the model is loaded in memory; Snapshot
	// whether it has a snapshot on disk (SnapshotBytes its size).
	Resident      bool  `json:"resident"`
	Snapshot      bool  `json:"snapshot"`
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
}

// listResponse answers GET /v1/models.
type listResponse struct {
	Models []modelSummary   `json:"models"`
	Store  *storeStatusJSON `json:"store"`
}

// storeStatusJSON describes the snapshot store on /healthz and GET
// /v1/models. Ledger flush errors are reported apart from snapshot save
// errors: a model that failed to persist refits on restart, a ledger that
// failed to flush under-counts released records — a privacy-accounting
// problem an operator must be able to see distinctly.
type storeStatusJSON struct {
	Enabled         bool   `json:"enabled"`
	FormatVersion   int    `json:"format_version"`
	Snapshots       int    `json:"snapshots"`
	Bytes           int64  `json:"bytes"`
	Loads           int64  `json:"loads"`
	LoadErrors      int64  `json:"load_errors"`
	Saves           int64  `json:"saves"`
	SaveErrors      int64  `json:"save_errors"`
	LedgerSaves     int64  `json:"ledger_saves"`
	LedgerErrors    int64  `json:"ledger_errors"`
	LastLoadError   string `json:"last_load_error,omitempty"`
	LastSaveError   string `json:"last_save_error,omitempty"`
	LastLedgerError string `json:"last_ledger_error,omitempty"`
}

// storeStatus summarizes the store for /healthz and listings.
func (s *Server) storeStatus() *storeStatusJSON {
	if s.store == nil {
		return &storeStatusJSON{Enabled: false}
	}
	st := s.store.Stats()
	return &storeStatusJSON{
		Enabled:         true,
		FormatVersion:   store.Version,
		Snapshots:       st.Count,
		Bytes:           st.Bytes,
		Loads:           st.Loads,
		LoadErrors:      st.LoadErrors,
		Saves:           st.Saves,
		SaveErrors:      st.SaveErrors,
		LedgerSaves:     st.LedgerSaves,
		LedgerErrors:    st.LedgerErrors,
		LastLoadError:   st.LastLoadError,
		LastSaveError:   st.LastSaveError,
		LastLedgerError: st.LastLedgerError,
	}
}

// handleListModels implements GET /v1/models: resident entries (most
// recently used first) followed by snapshots not currently loaded. With
// authentication enabled, non-admin tenants see only their own resident
// models; store-only snapshots, whose owner sets are read only by loading
// them (which can evict another model), are listed to admins alone.
func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request, tn *tenant.Identity) {
	entries := s.reg.Entries()
	resp := listResponse{
		Models: make([]modelSummary, 0, len(entries)),
		Store:  s.storeStatus(),
	}
	resident := make(map[string]bool, len(entries))
	for _, e := range entries {
		resident[e.ID] = true
		if !canSeeModel(tn, e) {
			continue
		}
		state, _ := e.State()
		created := e.Created
		ms := modelSummary{
			ID:       e.ID,
			State:    state,
			Created:  &created,
			Backend:  e.Opts.Backend,
			Rows:     e.Rows,
			FitMS:    e.FitDuration().Milliseconds(),
			Resident: true,
		}
		if s.store != nil && s.store.Has(e.ID) {
			ms.Snapshot = true
			ms.SnapshotBytes = s.store.Size(e.ID)
		}
		resp.Models = append(resp.Models, ms)
	}
	if s.store != nil && (tn == nil || tn.Role() == tenant.RoleAdmin) {
		for _, id := range s.store.IDs() {
			if resident[id] {
				continue
			}
			resp.Models = append(resp.Models, modelSummary{
				ID:            id,
				State:         StateStored,
				Snapshot:      true,
				SnapshotBytes: s.store.Size(id),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExport implements GET /v1/models/{id}/export: the model's snapshot
// bytes, exactly as persisted when possible, encoded on the fly otherwise
// (store disabled, or the snapshot was byte-evicted).
func (s *Server) handleExport(w http.ResponseWriter, _ *http.Request, id string, tn *tenant.Identity) {
	// The shared visibility gate, without the loading lookup getModelFor
	// adds: an admin export of a store-only snapshot should take the raw
	// fast path below instead of decoding the snapshot into the registry.
	if !s.modelVisible(id, tn) {
		writeError(w, http.StatusNotFound, "unknown model %q", id)
		return
	}
	var data []byte
	if s.store != nil {
		if raw, err := s.store.ReadRaw(id); err == nil {
			data = raw
		}
	}
	if data == nil {
		entry, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown model %q", id)
			return
		}
		state, ferr := entry.State()
		if state != StateReady {
			writeError(w, http.StatusConflict, "model %s is %s and cannot be exported (%v)", id, state, ferr)
			return
		}
		_, err := entry.Wait(nil)
		if err != nil {
			writeError(w, http.StatusConflict, "model %s not usable: %v", id, err)
			return
		}
		if data, err = s.reg.snapshotFor(entry).Encode(); err != nil {
			writeError(w, http.StatusInternalServerError, "encoding snapshot: %v", err)
			return
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".snap"))
	h.Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleImport implements POST /v1/models/import: decode and fully validate
// an uploaded snapshot (magic, checksum, version, then every model layer)
// and register it, owned by the importing tenant; Registry.ImportSnapshot
// decides what an upload for an existing ID may do (409 when refused).
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request, tn *tenant.Identity) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "snapshot exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading snapshot: %v", err)
		return
	}
	snap, err := store.Decode(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid snapshot: %v", err)
		return
	}
	// Owners named in the upload would hand the model to other tenants.
	snap.Owners = nil
	if owner := ownerOf(tn); owner != "" {
		snap.Owners = []string{owner}
	}
	entry, fresh, err := s.reg.ImportSnapshot(snap)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if entry == nil {
		writeError(w, http.StatusConflict, "model %s is being deleted; retry", snap.ID)
		return
	}
	s.reg.AddOwner(entry, ownerOf(tn))
	status := http.StatusCreated
	if !fresh {
		status = http.StatusOK
	}
	state, _ := entry.State()
	writeJSON(w, status, fitResponse{
		ID:      entry.ID,
		State:   state,
		Cached:  !fresh,
		Backend: entry.Opts.Backend,
		Rows:    entry.Rows,
		Clean:   entry.Clean,
	})
}

// handleDeleteModel implements DELETE /v1/models/{id}.
func (s *Server) handleDeleteModel(w http.ResponseWriter, _ *http.Request, id string) {
	switch err := s.reg.Remove(id); {
	case errors.Is(err, ErrUnknownModel):
		writeError(w, http.StatusNotFound, "unknown model %q", id)
	case errors.Is(err, ErrModelFitting):
		writeError(w, http.StatusConflict, "model %s is still fitting; wait for it to finish", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "deleting model %s: %v", id, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
