// Package store persists sgfd's durable server state across process
// restarts: a versioned binary container format holding typed records —
// fitted-model snapshots (with their tenant ownership sets) and the
// per-tenant privacy ledger — plus a directory-backed Store with atomic
// writes, corrupt-snapshot quarantine and a byte-budget eviction policy
// for model snapshots.
//
// The §3 pipeline's expensive half is Fit; the fit-once/synthesize-many
// split only pays off in production if a fitted model survives a restart.
// A model snapshot captures everything synthesis needs — schema,
// bucketizer, structure, count tables, the DS seed partition — plus the
// spent (ε, δ) model budget, the registry cache key and the owning
// tenants, so a restarted server answers repeat fit requests from disk,
// produces byte-identical synthetic records for identical synthesize
// requests, and keeps enforcing tenant isolation. The ledger exists for
// the same reason at the serving layer: the end-to-end guarantee
// (Theorem 1 composed over every record ever released) is a property of
// *lifetime* counts, so forgetting them on restart would silently
// invalidate the served (ε, δ) accounting.
//
// On-disk container format (version 2):
//
//	8  bytes  magic "SGFSNAP\x00"
//	…         uvarint format version (2), uvarint record kind, then the
//	          kind-specific payload (wire encoding; a model snapshot nests
//	          a length-prefixed sgf.FittedModel payload with its own
//	          sub-version)
//	4  bytes  CRC-32C (Castagnoli) of everything above, little-endian
//
// Version 1 files — written before record kinds existed — carry no kind
// field and are always model snapshots without an ownership set; Decode
// still reads them (the explicit migration path), and re-encoding writes
// version 2.
//
// Decoding verifies the magic, the checksum, the version and the record
// kind — in that order — before touching the payload, so truncated files,
// bit rot and foreign formats are rejected with distinct errors.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	sgf "repro"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// Version is the current snapshot container format version. Version 1
// (model-only, no record kinds, no ownership) remains readable.
const Version = 2

// Record kinds carried by a version-2 container. Version-1 files predate
// kinds and always hold a model snapshot.
const (
	// KindModel is a fitted-model snapshot (Snapshot).
	KindModel uint64 = 1
	// Kind 2 held finished evaluation-job results (*.job files), which
	// sgfd no longer serves. It is retired and never reused; no decoder
	// accepts it, and Open leaves such files alone.

	// KindLedger is the per-tenant records-released privacy ledger (Ledger).
	KindLedger uint64 = 3
)

// magic identifies a snapshot-container file.
var magic = [8]byte{'S', 'G', 'F', 'S', 'N', 'A', 'P', 0}

// Sentinel decode errors, distinguishable with errors.Is.
var (
	// ErrBadMagic means the bytes are not a snapshot container at all.
	ErrBadMagic = errors.New("store: not a model snapshot (bad magic)")
	// ErrBadChecksum means the container was truncated or corrupted.
	ErrBadChecksum = errors.New("store: snapshot checksum mismatch")
	// ErrBadVersion means the container uses an unsupported format version.
	ErrBadVersion = errors.New("store: unsupported snapshot version")
	// ErrBadKind means the container is intact but holds a different record
	// kind than the caller asked for (e.g. a ledger fed to the model
	// decoder).
	ErrBadKind = errors.New("store: unexpected snapshot record kind")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal wraps an encoded payload in the version-2 container: magic, version,
// record kind, payload, checksum.
func seal(kind uint64, payload []byte) []byte {
	hdr := &wire.Writer{}
	hdr.Uvarint(Version)
	hdr.Uvarint(kind)
	out := make([]byte, 0, len(magic)+hdr.Len()+len(payload)+4)
	out = append(out, magic[:]...)
	out = append(out, hdr.Bytes()...)
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out
}

// openContainer validates container integrity — magic, checksum, version,
// in that order — and returns the format version, the record kind and a
// reader positioned at the payload. Version-1 containers have no kind
// field and read as KindModel.
func openContainer(data []byte) (version, kind uint64, rr *wire.Reader, err error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic[:]) {
		return 0, 0, nil, ErrBadMagic
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, 0, nil, ErrBadChecksum
	}
	rr = wire.NewReader(body[len(magic):])
	version = rr.Uvarint()
	if err := rr.Err(); err != nil {
		return 0, 0, nil, fmt.Errorf("store: decoding container: %w", err)
	}
	switch version {
	case 1:
		kind = KindModel
	case Version:
		kind = rr.Uvarint()
		if err := rr.Err(); err != nil {
			return 0, 0, nil, fmt.Errorf("store: decoding container: %w", err)
		}
	default:
		return 0, 0, nil, fmt.Errorf("%w: %d (supported: 1..%d)", ErrBadVersion, version, Version)
	}
	return version, kind, rr, nil
}

// Snapshot is one persisted model: the server registry's bookkeeping for the
// entry plus the complete fitted model.
type Snapshot struct {
	// ID is the registry handle ("m-" + first 16 hex digits of Key).
	ID string
	// Key is the registry cache key: the hash of dataset bytes + fit config.
	Key string
	// Created is when the model was first registered.
	Created time.Time
	// Rows is the number of clean input records the model was fitted on.
	Rows int
	// Clean summarizes CSV extraction for uploaded datasets.
	Clean dataset.CleanStats
	// FitDuration is how long the original fit took.
	FitDuration time.Duration
	// ModelEps, ModelDelta, MaxCost and Seed echo the fit config (the full
	// config is baked into Key; these are kept readable for listings).
	ModelEps   float64
	ModelDelta float64
	MaxCost    float64
	Seed       uint64
	// Owners names the tenants that registered the model, sorted and
	// deduplicated — persisting it is what lets a restart preserve tenant
	// isolation instead of resetting every revived model to unowned.
	// Version-1 snapshots decode with a nil set.
	Owners []string
	// Model is the fitted model itself.
	Model *sgf.FittedModel
}

// Encode renders the snapshot in the version-2 container format. Encoding
// is deterministic — the same snapshot always produces the same bytes
// (Owners is sorted and deduplicated on the way out).
func (s *Snapshot) Encode() ([]byte, error) {
	ww := &wire.Writer{}
	ww.String(s.ID)
	ww.String(s.Key)
	ww.Varint(s.Created.UnixNano())
	ww.Int(s.Rows)
	ww.Int(s.Clean.Total)
	ww.Int(s.Clean.DroppedMissing)
	ww.Int(s.Clean.DroppedInvalid)
	ww.Int(s.Clean.Clean)
	ww.Int(s.Clean.Unique)
	ww.Float64(s.Clean.PossibleRecords)
	ww.Varint(int64(s.FitDuration))
	ww.Float64(s.ModelEps)
	ww.Float64(s.ModelDelta)
	ww.Float64(s.MaxCost)
	ww.Uvarint(s.Seed)
	ww.Strings(normalizeOwners(s.Owners))
	var mb bytes.Buffer
	if s.Model == nil {
		return nil, fmt.Errorf("store: snapshot %s has no model", s.ID)
	}
	if err := s.Model.Encode(&mb); err != nil {
		return nil, fmt.Errorf("store: encoding model %s: %w", s.ID, err)
	}
	ww.BytesField(mb.Bytes())
	return seal(KindModel, ww.Bytes()), nil
}

// normalizeOwners returns the sorted, deduplicated, empty-name-free form of
// an owner set — the canonical encoding order.
func normalizeOwners(owners []string) []string {
	if len(owners) == 0 {
		return nil
	}
	out := make([]string, 0, len(owners))
	for _, o := range owners {
		if o != "" {
			out = append(out, o)
		}
	}
	sort.Strings(out)
	dedup := out[:0]
	for i, o := range out {
		if i == 0 || o != out[i-1] {
			dedup = append(dedup, o)
		}
	}
	if len(dedup) == 0 {
		return nil
	}
	return dedup
}

// Decode parses and fully validates a model snapshot: container integrity
// first (magic, checksum, version, kind), then the payload through the
// layered model codec, then cross-field consistency (the ID must be derived
// from the key, the owner set must be canonical). Version-1 containers —
// the pre-ownership format — decode with a nil owner set; re-encoding
// writes version 2, which is the migration path.
func Decode(data []byte) (*Snapshot, error) {
	version, kind, rr, err := openContainer(data)
	if err != nil {
		return nil, err
	}
	if kind != KindModel {
		return nil, fmt.Errorf("%w: kind %d, want model (%d)", ErrBadKind, kind, KindModel)
	}
	s := &Snapshot{}
	s.ID = rr.ReadString()
	s.Key = rr.ReadString()
	s.Created = time.Unix(0, rr.Varint()).UTC()
	s.Rows = rr.Int()
	s.Clean.Total = rr.Int()
	s.Clean.DroppedMissing = rr.Int()
	s.Clean.DroppedInvalid = rr.Int()
	s.Clean.Clean = rr.Int()
	s.Clean.Unique = rr.Int()
	s.Clean.PossibleRecords = rr.Float64()
	s.FitDuration = time.Duration(rr.Varint())
	s.ModelEps = rr.Float64()
	s.ModelDelta = rr.Float64()
	s.MaxCost = rr.Float64()
	s.Seed = rr.Uvarint()
	if version >= 2 {
		s.Owners = rr.ReadStrings()
	}
	modelRaw := rr.BytesField()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if err := rr.Done(); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if !ValidID(s.ID) || len(s.Key) < 16 || s.ID != "m-"+s.Key[:16] {
		return nil, fmt.Errorf("store: snapshot id %q does not match its cache key", s.ID)
	}
	// The owner set must already be in canonical form (strictly increasing,
	// no empty names): accepting a non-canonical set would make the decoded
	// snapshot re-encode to different bytes, letting corruption survive a
	// round trip unnoticed.
	for i, o := range s.Owners {
		if o == "" || (i > 0 && s.Owners[i-1] >= o) {
			return nil, fmt.Errorf("store: snapshot %s has a non-canonical owner set", s.ID)
		}
	}
	if len(s.Owners) == 0 {
		s.Owners = nil
	}
	model, err := sgf.DecodeFittedModel(bytes.NewReader(modelRaw))
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot %s: %w", s.ID, err)
	}
	s.Model = model
	return s, nil
}

// ValidID reports whether id has the registry's model-ID shape
// ("m-" + 16 lowercase hex digits) and is therefore safe to use as a
// filename component.
func ValidID(id string) bool {
	if len(id) != 18 || id[0] != 'm' || id[1] != '-' {
		return false
	}
	for _, c := range id[2:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
