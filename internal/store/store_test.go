package store_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sgf "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/store"
)

// testSnapshot fits a small model and wraps it in a snapshot. salt varies
// the dataset (and therefore the cache key) so tests can mint distinct
// models.
func testSnapshot(t testing.TB, salt uint64) *store.Snapshot {
	t.Helper()
	meta, err := dataset.NewMetadata(
		dataset.NewCategorical("COLOR", "red", "green", "blue"),
		dataset.NewCategorical("SIZE", "s", "m", "l"),
		dataset.NewNumerical("GRADE", 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.New(meta)
	r := rng.New(7 + salt)
	for i := 0; i < 200; i++ {
		c := uint16(r.Intn(3))
		s := c
		if r.Float64() < 0.3 {
			s = uint16(r.Intn(3))
		}
		data.Append(dataset.Record{c, s, uint16((int(c) + r.Intn(2)) % 4)})
	}
	bkt := dataset.NewBucketizer(meta)
	if err := bkt.SetWidth(2, 2); err != nil {
		t.Fatal(err)
	}
	fm, err := sgf.Fit(data, sgf.FitOptions{ModelEps: 1, Bucketizer: bkt, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("store-test"), salt))
	key := hex.EncodeToString(sum[:])
	return &store.Snapshot{
		ID:          "m-" + key[:16],
		Key:         key,
		Created:     time.Unix(1700000000, 123456789).UTC(),
		Rows:        data.Len(),
		Clean:       dataset.CleanStats{Total: 200, Clean: 200, Unique: data.UniqueCount(), PossibleRecords: data.PossibleRecords()},
		FitDuration: 125 * time.Millisecond,
		ModelEps:    1,
		Seed:        11,
		Owners:      []string{"alice", "bob"},
		Model:       fm,
	}
}

func synth(t testing.TB, fm *sgf.FittedModel) *sgf.Dataset {
	t.Helper()
	out, _, err := fm.Synthesize(context.Background(), sgf.SynthOptions{
		Records: 20, K: 3, Gamma: 8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(t, 1)
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != snap.ID || got.Key != snap.Key || !got.Created.Equal(snap.Created) ||
		got.Rows != snap.Rows || got.Clean != snap.Clean || got.FitDuration != snap.FitDuration ||
		got.ModelEps != snap.ModelEps || got.Seed != snap.Seed {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, snap)
	}
	if len(got.Owners) != 2 || got.Owners[0] != "alice" || got.Owners[1] != "bob" {
		t.Fatalf("owners lost in round trip: %v", got.Owners)
	}
	want, have := synth(t, snap.Model), synth(t, got.Model)
	for i := 0; i < want.Len(); i++ {
		if !want.Row(i).Equal(have.Row(i)) {
			t.Fatalf("record %d differs after snapshot round trip", i)
		}
	}
	// Determinism: encoding again (and encoding the decoded snapshot)
	// reproduces the same bytes.
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("snapshot encoding is not deterministic across decode")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	snap := testSnapshot(t, 2)
	valid, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := store.Decode([]byte("not a snapshot at all")); !errors.Is(err, store.ErrBadMagic) {
		t.Errorf("garbage: err = %v, want ErrBadMagic", err)
	}
	if _, err := store.Decode(valid[:5]); !errors.Is(err, store.ErrBadMagic) {
		t.Errorf("tiny: err = %v, want ErrBadMagic", err)
	}

	// Flip one payload byte: the checksum must catch it.
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := store.Decode(flipped); !errors.Is(err, store.ErrBadChecksum) {
		t.Errorf("bit flip: err = %v, want ErrBadChecksum", err)
	}

	// Truncation also breaks the checksum.
	if _, err := store.Decode(valid[:len(valid)-1]); !errors.Is(err, store.ErrBadChecksum) {
		t.Errorf("truncated: err = %v, want ErrBadChecksum", err)
	}

	// A future format version with a valid checksum must be refused, not
	// misparsed: bump the version byte and re-checksum.
	bumped := append([]byte{}, valid...)
	if bumped[8] != store.Version {
		t.Fatalf("test assumes a single-byte version, got %d", bumped[8])
	}
	bumped[8] = store.Version + 1
	sum := crc32.Checksum(bumped[:len(bumped)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(bumped[len(bumped)-4:], sum)
	if _, err := store.Decode(bumped); !errors.Is(err, store.ErrBadVersion) {
		t.Errorf("bumped version: err = %v, want ErrBadVersion", err)
	}

	// An ID that is not derived from the key must be refused (re-checksummed
	// so only the consistency rule can reject it). The v2 layout is magic,
	// version byte, kind byte, then the uvarint ID length and the ID bytes.
	forged := append([]byte{}, valid...)
	forged[12] ^= 0x01 // second character of the ID
	sum = crc32.Checksum(forged[:len(forged)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], sum)
	if _, err := store.Decode(forged); err == nil {
		t.Error("snapshot with forged id accepted")
	}

	// An intact container of a different record kind must be refused with
	// ErrBadKind, not misparsed as a model.
	ledgerRaw, err := (&store.Ledger{Entries: []store.LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 7},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Decode(ledgerRaw); !errors.Is(err, store.ErrBadKind) {
		t.Errorf("ledger fed to model decoder: err = %v, want ErrBadKind", err)
	}
	if _, err := store.DecodeLedger(valid); !errors.Is(err, store.ErrBadKind) {
		t.Errorf("model fed to ledger decoder: err = %v, want ErrBadKind", err)
	}
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, 3)
	if err := s.Put(snap); err != nil {
		t.Fatal(err)
	}
	if !s.Has(snap.ID) {
		t.Fatal("Has = false after Put")
	}
	got, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != snap.Key {
		t.Fatalf("Get returned key %s, want %s", got.Key, snap.Key)
	}

	// A fresh Open over the same directory sees the snapshot (the restart
	// path).
	s2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ids := s2.IDs(); len(ids) != 1 || ids[0] != snap.ID {
		t.Fatalf("re-open IDs = %v", ids)
	}
	if st := s2.Stats(); st.Count != 1 || st.Bytes <= 0 {
		t.Fatalf("re-open stats = %+v", st)
	}

	if err := s2.Delete(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(snap.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if err := s2.Delete(snap.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("double Delete: %v, want ErrNotFound", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(files) != 0 {
		t.Fatalf("files remain after delete: %v", files)
	}
}

func TestStoreQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot(t, 4)
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	path := filepath.Join(dir, snap.ID+".snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(snap.ID); !errors.Is(err, store.ErrBadChecksum) {
		t.Fatalf("corrupt Get: %v, want ErrBadChecksum", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt snapshot still in place")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.LoadErrors != 1 || st.LastLoadError == "" || st.Count != 0 {
		t.Fatalf("stats after quarantine = %+v", st)
	}

	// The quarantined file is ignored by a fresh scan.
	s2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Count != 0 {
		t.Fatalf("quarantined file re-indexed: %+v", st)
	}

	// A version mismatch is NOT corruption: the intact file must stay in
	// place for a binary that understands it (rollback safety).
	vsnap := testSnapshot(t, 40)
	vraw, err := vsnap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	vraw[8] = store.Version + 1
	sum := crc32.Checksum(vraw[:len(vraw)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(vraw[len(vraw)-4:], sum)
	vpath := filepath.Join(dir, vsnap.ID+".snap")
	if err := os.WriteFile(vpath, vraw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Get(vsnap.ID); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("future-version Get: %v, want ErrBadVersion", err)
	}
	if _, err := os.Stat(vpath); err != nil {
		t.Errorf("future-version snapshot was quarantined: %v", err)
	}
	if st := s3.Stats(); st.Quarantined != 0 || st.LoadErrors != 1 {
		t.Fatalf("stats after version mismatch = %+v", st)
	}
}

// TestDecodeFailureRule pins the store's one decode-failure rule: a
// snapshot container from another format version stays in place and
// counts as a load error (the binary that wrote it can still read it),
// while a bit-flipped container is renamed *.corrupt.
func TestDecodeFailureRule(t *testing.T) {
	snap := testSnapshot(t, 41)
	cases := []struct {
		name        string
		mutate      func(raw []byte)
		want        error
		quarantined bool
	}{
		{"newer-version", func(raw []byte) {
			raw[8] = store.Version + 1
			sum := crc32.Checksum(raw[:len(raw)-4], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
		}, store.ErrBadVersion, false},
		{"bit-flip", func(raw []byte) { raw[len(raw)/2] ^= 0x04 }, store.ErrBadChecksum, true},
	}
	t.Run("snapshot", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				raw, err := snap.Encode()
				if err != nil {
					t.Fatal(err)
				}
				tc.mutate(raw)
				path := filepath.Join(dir, snap.ID+".snap")
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := store.Open(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Get(snap.ID); !errors.Is(err, tc.want) {
					t.Fatalf("get: %v, want %v", err, tc.want)
				}
				onDisk, err := os.ReadFile(path)
				_, qerr := os.Stat(path + ".corrupt")
				st := s.Stats()
				if st.LoadErrors != 1 || st.LastLoadError == "" {
					t.Errorf("stats = %+v, want one load error", st)
				}
				if tc.quarantined {
					if err == nil || qerr != nil || st.Quarantined != 1 {
						t.Errorf("not quarantined: file err %v, .corrupt err %v, stats %+v", err, qerr, st)
					}
					return
				}
				if err != nil || !bytes.Equal(onDisk, raw) || qerr == nil || st.Quarantined != 0 {
					t.Errorf("moved or changed: file err %v, .corrupt err %v, stats %+v", err, qerr, st)
				}
			})
		}
	})
}

// TestOpenLeavesJobRecordsAlone: the *.job evaluation-job records older
// releases wrote are foreign files now. Open neither indexes nor
// quarantines them, whatever they hold, and they stay byte-identical.
func TestOpenLeavesJobRecordsAlone(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot(t, 42)
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"j-00000000000000c1.job": raw[:len(raw)/2], // torn
		"j-00000000000000c2.job": raw,              // intact, but not a snapshot file
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ids := s.IDs(); len(ids) != 0 {
		t.Fatalf("IDs = %v, want none", ids)
	}
	if st := s.Stats(); st.Count != 0 || st.LoadErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want an empty store without errors", st)
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s moved or changed: %v", name, err)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(matches) != 0 {
		t.Errorf("quarantined %v", matches)
	}
}

func TestStoreMaxBytesEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	a, b := testSnapshot(t, 5), testSnapshot(t, 6)
	araw, _ := a.Encode()
	// Budget for two snapshots of this size, but not three.
	s, err := store.Open(dir, int64(len(araw))*2+64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // order by mtime
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	c := testSnapshot(t, 7)
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	if s.Has(a.ID) {
		t.Error("oldest snapshot survived the byte budget")
	}
	if !s.Has(b.ID) || !s.Has(c.ID) {
		t.Error("newer snapshots were evicted")
	}
}

const (
	goldenV1Path       = "testdata/golden_v1.snap"
	goldenV2Path       = "testdata/golden_v2.snap"
	goldenPayload1Path = "testdata/golden_payload1.snap"
)

// TestGoldenSnapshot pins the current on-disk format: the checked-in v2
// snapshot must keep decoding, and re-encoding the decoded snapshot must
// reproduce the file bit-for-bit. If this test fails after a codec change,
// the format changed: bump the version (store.Version or the fitted-model
// sub-version) and regenerate with
//
//	STORE_WRITE_GOLDEN=1 go test ./internal/store -run TestGoldenSnapshot
func TestGoldenSnapshot(t *testing.T) {
	if os.Getenv("STORE_WRITE_GOLDEN") != "" {
		snap := testSnapshot(t, 42)
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenV2Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV2Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d-byte golden snapshot", len(data))
	}
	raw, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with STORE_WRITE_GOLDEN=1): %v", err)
	}
	snap, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("golden snapshot no longer decodes: %v", err)
	}
	if !strings.HasPrefix(snap.ID, "m-") || snap.Rows != 200 || snap.Model == nil {
		t.Fatalf("golden snapshot decoded to nonsense: %+v", snap)
	}
	if len(snap.Owners) != 2 || snap.Owners[0] != "alice" {
		t.Fatalf("golden snapshot lost its owner set: %v", snap.Owners)
	}
	if out := synth(t, snap.Model); out.Len() != 20 {
		t.Fatalf("golden model synthesized %d records, want 20", out.Len())
	}
	re, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re) {
		t.Fatal("golden snapshot is not a decode→encode fixed point; the format changed — bump the version")
	}
}

// TestGoldenV1Migration is the explicit v1→v2 migration path: the
// checked-in version-1 snapshot (written by the pre-ownership binary) must
// keep decoding — with a nil owner set — and re-encoding it must produce a
// version-2 container that round-trips to the same model.
func TestGoldenV1Migration(t *testing.T) {
	raw, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatalf("reading v1 golden snapshot: %v", err)
	}
	if raw[8] != 1 {
		t.Fatalf("v1 golden carries version %d, want 1", raw[8])
	}
	snap, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("v1 snapshot no longer decodes: %v", err)
	}
	if snap.Owners != nil {
		t.Fatalf("v1 snapshot decoded with owners %v, want none", snap.Owners)
	}
	if snap.Rows != 200 || snap.Model == nil {
		t.Fatalf("v1 snapshot decoded to nonsense: %+v", snap)
	}
	want := synth(t, snap.Model)

	// The migration: re-encode writes the current version.
	migrated, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if migrated[8] != store.Version {
		t.Fatalf("migrated snapshot carries version %d, want %d", migrated[8], store.Version)
	}
	again, err := store.Decode(migrated)
	if err != nil {
		t.Fatalf("migrated snapshot does not decode: %v", err)
	}
	if again.ID != snap.ID || again.Key != snap.Key || !again.Created.Equal(snap.Created) ||
		again.Rows != snap.Rows || again.Clean != snap.Clean || again.FitDuration != snap.FitDuration {
		t.Fatalf("migration changed metadata: %+v vs %+v", again, snap)
	}
	have := synth(t, again.Model)
	for i := 0; i < want.Len(); i++ {
		if !want.Row(i).Equal(have.Row(i)) {
			t.Fatalf("record %d differs after v1→v2 migration", i)
		}
	}
	// And the migrated form is a fixed point of the v2 codec.
	re, err := again.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(migrated, re) {
		t.Fatal("migrated snapshot is not a decode→encode fixed point")
	}
}

// TestGoldenPayloadV1Migration pins the pre-backend fitted-model payload:
// a version-2 container whose nested payload is version 1 (Bayes net
// hardwired, no backend ID — what every deployment before the pluggable-
// backend refactor wrote) must keep decoding, must come back as the
// "bayesnet" backend, and must synthesize byte-identical records to the
// same model fitted today. Re-encoding migrates to the current payload and
// round-trips as a fixed point.
func TestGoldenPayloadV1Migration(t *testing.T) {
	raw, err := os.ReadFile(goldenPayload1Path)
	if err != nil {
		t.Fatalf("reading payload-v1 golden snapshot: %v", err)
	}
	snap, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("payload-v1 snapshot no longer decodes: %v", err)
	}
	if snap.Model.Backend != "bayesnet" {
		t.Fatalf("payload-v1 snapshot decoded as backend %q, want bayesnet", snap.Model.Backend)
	}
	// The fixture was fit from the same data and options as testSnapshot(42),
	// so the revived model must serve exactly what a fresh fit serves.
	want, have := synth(t, testSnapshot(t, 42).Model), synth(t, snap.Model)
	for i := 0; i < want.Len(); i++ {
		if !want.Row(i).Equal(have.Row(i)) {
			t.Fatalf("record %d differs between payload-v1 revival and fresh fit", i)
		}
	}

	migrated, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(migrated, raw) {
		t.Fatal("re-encode still writes the legacy payload")
	}
	again, err := store.Decode(migrated)
	if err != nil {
		t.Fatalf("migrated snapshot does not decode: %v", err)
	}
	if again.Model.Backend != "bayesnet" {
		t.Fatalf("migrated snapshot decoded as backend %q, want bayesnet", again.Model.Backend)
	}
	have2 := synth(t, again.Model)
	for i := 0; i < want.Len(); i++ {
		if !want.Row(i).Equal(have2.Row(i)) {
			t.Fatalf("record %d differs after payload v1→v2 migration", i)
		}
	}
	re, err := again.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(migrated, re) {
		t.Fatal("migrated snapshot is not a decode→encode fixed point")
	}
}
