package store_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func TestLedgerRoundTrip(t *testing.T) {
	l := &store.Ledger{Entries: []store.LedgerEntry{
		// Deliberately out of canonical order: Encode must sort.
		{Tenant: "bob", K: 10, Gamma: 4, Eps0: 1, Records: 250},
		{Tenant: "alice", K: 50, Gamma: 4, Eps0: 1, Records: 12},
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 1000},
		{Tenant: "", K: 10, Gamma: 2, Eps0: 0.5, Records: 3},
	}}
	raw, err := l.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeLedger(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 4 {
		t.Fatalf("decoded %d rows, want 4", len(got.Entries))
	}
	if got.Entries[0].Tenant != "" || got.Entries[1].Tenant != "alice" ||
		got.Entries[1].K != 10 || got.Entries[2].K != 50 || got.Entries[3].Tenant != "bob" {
		t.Fatalf("rows not in canonical order: %+v", got.Entries)
	}
	if got.Entries[1].Records != 1000 || got.Entries[0].Eps0 != 0.5 {
		t.Fatalf("row values lost: %+v", got.Entries)
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re) {
		t.Fatal("ledger encoding is not deterministic across decode")
	}

	// Rows sharing a key are merged (counts summed) on encode, so every
	// representable ledger decodes back.
	dup := &store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 7},
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 5},
	}}
	draw, err := dup.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ddec, err := store.DecodeLedger(draw)
	if err != nil {
		t.Fatalf("duplicate-key ledger does not round-trip: %v", err)
	}
	if len(ddec.Entries) != 1 || ddec.Entries[0].Records != 12 {
		t.Fatalf("duplicate keys not merged: %+v", ddec.Entries)
	}

	// An empty ledger round-trips too (the fresh-deployment state).
	eraw, err := (&store.Ledger{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if e, err := store.DecodeLedger(eraw); err != nil || len(e.Entries) != 0 {
		t.Fatalf("empty ledger round trip: %v %+v", err, e)
	}

	// NaN parameters still encode deterministically (bit-pattern order).
	nan := &store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "x", K: 1, Gamma: math.NaN(), Eps0: 1, Records: 1},
		{Tenant: "x", K: 1, Gamma: 4, Eps0: 1, Records: 2},
	}}
	nraw, err := nan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ndec, err := store.DecodeLedger(nraw)
	if err != nil {
		t.Fatal(err)
	}
	nre, err := ndec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nraw, nre) {
		t.Fatal("NaN ledger encoding is not a fixed point")
	}
}

func TestStoreLedgerLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh directory has no ledger.
	if _, err := s.GetLedger(); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("fresh GetLedger: %v, want ErrNotFound", err)
	}
	l := &store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 500},
	}}
	if err := s.PutLedger(l); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetLedger()
	if err != nil || len(got.Entries) != 1 || got.Entries[0].Records != 500 {
		t.Fatalf("GetLedger = %+v, %v", got, err)
	}
	if st := s.Stats(); st.LedgerSaves != 1 || st.LedgerErrors != 0 || st.LastLedgerError != "" {
		t.Fatalf("ledger stats = %+v", st)
	}

	// The ledger survives a re-open; the model index ignores it.
	s2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetLedger(); err != nil || got.Entries[0].Tenant != "alice" {
		t.Fatalf("re-open GetLedger = %+v, %v", got, err)
	}
	if st := s2.Stats(); st.Count != 0 {
		t.Fatalf("ledger file counted as a model snapshot: %+v", st)
	}

	// A corrupt ledger reads as a decode error and stays in place: the
	// caller must refuse to start rather than start from an empty ledger.
	raw, _ := os.ReadFile(filepath.Join(dir, "ledger.v2"))
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(filepath.Join(dir, "ledger.v2"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetLedger(); !errors.Is(err, store.ErrBadChecksum) {
		t.Fatalf("corrupt GetLedger: %v, want ErrBadChecksum", err)
	}
	if onDisk, err := os.ReadFile(filepath.Join(dir, "ledger.v2")); err != nil || !bytes.Equal(onDisk, raw) {
		t.Errorf("corrupt ledger moved or changed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger.v2.corrupt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt ledger was quarantined: %v", err)
	}
}

// TestLedgerCrashConsistency simulates a kill between two ledger flushes:
// the atomic temp+rename write means a crash mid-flush leaves the previous
// complete ledger in place, and the orphaned temp file is swept on the next
// Open — never promoted to a live ledger.
func TestLedgerCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutLedger(&store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 100},
	}}); err != nil {
		t.Fatal(err)
	}

	// "Crash" mid-flush: the next ledger state made it into a temp file but
	// the process died before the rename published it.
	next, err := (&store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 175},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".tmp-crashed")
	if err := os.WriteFile(tmp, next[:len(next)-3], 0o644); err != nil { // torn write
		t.Fatal(err)
	}

	// Restart: the previous flush is served intact, the torn temp is gone.
	s2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetLedger()
	if err != nil {
		t.Fatalf("GetLedger after crash: %v", err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Records != 100 {
		t.Fatalf("crash surfaced a torn ledger: %+v", got.Entries)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Error("torn temp file survived the restart sweep")
	}
}
