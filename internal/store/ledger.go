package store

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/wire"
)

// This file holds the per-tenant records-released privacy ledger. It is
// durable so a restart cannot silently reset state the serving layer's
// guarantee depends on: the lifetime (ε, δ) accounting of
// privacy.PlanRelease is only sound if the released-record counts it
// composes over survive the process.

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
