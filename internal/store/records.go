package store

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/wire"
)

// This file holds the non-model record kinds of the version-2 container:
// finished evaluation-job results and the per-tenant records-released
// privacy ledger. Both exist so a restart cannot silently reset state the
// serving layer's guarantees depend on — a polled job result must stay
// byte-identical across restarts, and the lifetime (ε, δ) accounting of
// privacy.PlanRelease is only sound if the released-record counts it
// composes over survive the process.

// JobRecord is one persisted finished evaluation job: the bookkeeping the
// job manager needs to revive the job in its terminal state, plus the
// result payload as canonical JSON (opaque to this package — the server
// decides what a result is).
type JobRecord struct {
	// ID is the job handle ("j-" + 16 hex digits).
	ID string
	// Label names the workload ("eval").
	Label string
	// Owner names the tenant that launched the job ("" without
	// authentication) — persisting it is what keeps job results
	// tenant-scoped across restarts.
	Owner string
	// Created, Started and Finished reconstruct the job's timeline (and with
	// it the run_ms the status endpoint reports).
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Result is the result payload, canonical JSON.
	Result []byte
}

func (j *JobRecord) recordID() string { return j.ID }

// Encode renders the record in the version-2 container format.
func (j *JobRecord) Encode() ([]byte, error) {
	if !ValidJobID(j.ID) {
		return nil, fmt.Errorf("store: invalid job id %q", j.ID)
	}
	ww := &wire.Writer{}
	ww.String(j.ID)
	ww.String(j.Label)
	ww.String(j.Owner)
	ww.Varint(j.Created.UnixNano())
	ww.Varint(j.Started.UnixNano())
	ww.Varint(j.Finished.UnixNano())
	ww.BytesField(j.Result)
	return seal(KindJobResult, ww.Bytes()), nil
}

// DecodeJobRecord parses and validates a persisted job result.
func DecodeJobRecord(data []byte) (*JobRecord, error) {
	_, kind, rr, err := openContainer(data)
	if err != nil {
		return nil, err
	}
	if kind != KindJobResult {
		return nil, fmt.Errorf("%w: kind %d, want job result (%d)", ErrBadKind, kind, KindJobResult)
	}
	j := &JobRecord{}
	j.ID = rr.ReadString()
	j.Label = rr.ReadString()
	j.Owner = rr.ReadString()
	j.Created = time.Unix(0, rr.Varint()).UTC()
	j.Started = time.Unix(0, rr.Varint()).UTC()
	j.Finished = time.Unix(0, rr.Varint()).UTC()
	if raw := rr.BytesField(); len(raw) > 0 {
		j.Result = append([]byte(nil), raw...) // don't alias the input buffer
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("store: decoding job record: %w", err)
	}
	if err := rr.Done(); err != nil {
		return nil, fmt.Errorf("store: decoding job record: %w", err)
	}
	if !ValidJobID(j.ID) {
		return nil, fmt.Errorf("store: job record has invalid id %q", j.ID)
	}
	return j, nil
}

// LedgerEntry is one (tenant, mechanism-parameter) accounting row: how many
// synthetic records the tenant has ever drawn through the randomized
// mechanism with these exact (k, γ, ε0) parameters. The serving layer
// composes PlanRelease over every row a tenant holds to decide whether the
// next release still fits the tenant's lifetime (ε, δ) budget.
type LedgerEntry struct {
	// Tenant is the tenant name ("" is the anonymous account of a server
	// running without authentication).
	Tenant string
	// K, Gamma, Eps0 are the privacy-test parameters the records were
	// released under.
	K     int
	Gamma float64
	Eps0  float64
	// Records is the lifetime released-record count for this row.
	Records int64
}

// Ledger is the full per-tenant records-released table.
type Ledger struct {
	Entries []LedgerEntry
}

// ledgerLess is the canonical row order: tenant, then k, then the IEEE-754
// bit patterns of γ and ε0 (a total order even for NaN, so encoding stays
// deterministic whatever the floats).
func ledgerLess(a, b LedgerEntry) bool {
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	if a.K != b.K {
		return a.K < b.K
	}
	if ga, gb := math.Float64bits(a.Gamma), math.Float64bits(b.Gamma); ga != gb {
		return ga < gb
	}
	return math.Float64bits(a.Eps0) < math.Float64bits(b.Eps0)
}

// Encode renders the ledger in the version-2 container format. Rows are
// sorted into canonical order and rows sharing a (tenant, k, γ, ε0) key
// are merged (counts summed) first, so the same accounting state always
// produces the same bytes — and every encodable ledger decodes back
// (DecodeLedger requires strictly increasing rows).
func (l *Ledger) Encode() ([]byte, error) {
	rows := append([]LedgerEntry(nil), l.Entries...)
	sort.Slice(rows, func(i, j int) bool { return ledgerLess(rows[i], rows[j]) })
	merged := rows[:0]
	for _, e := range rows {
		if n := len(merged); n > 0 && !ledgerLess(merged[n-1], e) {
			merged[n-1].Records += e.Records
			continue
		}
		merged = append(merged, e)
	}
	rows = merged
	ww := &wire.Writer{}
	ww.Uvarint(uint64(len(rows)))
	for _, e := range rows {
		ww.String(e.Tenant)
		ww.Int(e.K)
		ww.Float64(e.Gamma)
		ww.Float64(e.Eps0)
		ww.Varint(e.Records)
	}
	return seal(KindLedger, ww.Bytes()), nil
}

// DecodeLedger parses and validates a persisted ledger. Rows must be in
// strictly increasing canonical order with non-negative counts — anything
// else would re-encode to different bytes, letting corruption survive a
// round trip unnoticed.
func DecodeLedger(data []byte) (*Ledger, error) {
	_, kind, rr, err := openContainer(data)
	if err != nil {
		return nil, err
	}
	if kind != KindLedger {
		return nil, fmt.Errorf("%w: kind %d, want ledger (%d)", ErrBadKind, kind, KindLedger)
	}
	n := rr.Uvarint()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("store: decoding ledger: %w", err)
	}
	// Each row is at least 1+1+8+8+1 bytes; bound the allocation by the
	// input like every other length prefix.
	if n > uint64(rr.Remaining()/19) {
		return nil, fmt.Errorf("store: ledger row count %d exceeds remaining input", n)
	}
	l := &Ledger{}
	if n > 0 {
		l.Entries = make([]LedgerEntry, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		e := LedgerEntry{
			Tenant: rr.ReadString(),
			K:      rr.Int(),
			Gamma:  rr.Float64(),
			Eps0:   rr.Float64(),
		}
		e.Records = rr.Varint()
		if rr.Err() != nil {
			break
		}
		if e.Records < 0 {
			return nil, fmt.Errorf("store: ledger row %d has negative record count", i)
		}
		if len(l.Entries) > 0 && !ledgerLess(l.Entries[len(l.Entries)-1], e) {
			return nil, fmt.Errorf("store: ledger rows out of canonical order at row %d", i)
		}
		l.Entries = append(l.Entries, e)
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("store: decoding ledger: %w", err)
	}
	if err := rr.Done(); err != nil {
		return nil, fmt.Errorf("store: decoding ledger: %w", err)
	}
	return l, nil
}
