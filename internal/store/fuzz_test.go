package store

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeSnapshot throws arbitrary bytes at every decoder of the v2
// snapshot container — the path every POST /v1/models/import request, every
// snapshot and the privacy ledger in a store directory go through. The
// decoders promise to reject hostile input with an error, never panic,
// never over-allocate from a forged length, and never return a record that
// would re-encode differently than it decoded (which would let corruption
// survive a round trip unnoticed).
//
// The seed corpus starts from the checked-in goldens — the current v2
// snapshot and the legacy v1 snapshot the migration path must keep reading
// — plus a ledger, a container of the retired kind 2, and targeted
// mutations (truncations, bit flips in the header, body and checksum), so
// the fuzzer begins at the deepest decode layers instead of spending its
// budget rediscovering the magic.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, path := range []string{"testdata/golden_v2.snap", "testdata/golden_v1.snap"} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading %s: %v", path, err)
		}
		f.Add(golden)
		f.Add(golden[:len(golden)/2])                    // truncated body
		f.Add(golden[:len(golden)-4])                    // missing checksum
		f.Add(append([]byte("XXXXXXXX"), golden[8:]...)) // wrong magic
		flipped := bytes.Clone(golden)
		flipped[len(flipped)/2] ^= 0x40 // payload bit rot
		f.Add(flipped)
		badsum := bytes.Clone(golden)
		badsum[len(badsum)-1] ^= 0x01 // checksum bit rot
		f.Add(badsum)
	}
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(seal(2, []byte(`{"elapsed_ms":1}`))) // kind 2 is retired: no decoder accepts it
	if led, err := (&Ledger{Entries: []LedgerEntry{
		{Tenant: "alice", K: 10, Gamma: 4, Eps0: 1, Records: 42},
		{Tenant: "bob", K: 50, Gamma: 2, Eps0: 0.5, Records: 7},
	}}).Encode(); err == nil {
		f.Add(led)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Accepted input must survive a re-encode/re-decode round trip with
		// identical bytes — the determinism the warm-start, export and
		// ledger-flush paths rely on. Rejected input is exactly what hostile
		// bytes should get.
		if snap, err := Decode(data); err == nil {
			out, err := snap.Encode()
			if err != nil {
				t.Fatalf("decoded snapshot fails to re-encode: %v", err)
			}
			again, err := Decode(out)
			if err != nil {
				t.Fatalf("re-encoded snapshot fails to decode: %v", err)
			}
			out2, err := again.Encode()
			if err != nil {
				t.Fatalf("second re-encode: %v", err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatal("snapshot encoding is not deterministic across a round trip")
			}
		}
		if led, err := DecodeLedger(data); err == nil {
			out, err := led.Encode()
			if err != nil {
				t.Fatalf("decoded ledger fails to re-encode: %v", err)
			}
			again, err := DecodeLedger(out)
			if err != nil {
				t.Fatalf("re-encoded ledger fails to decode: %v", err)
			}
			out2, err := again.Encode()
			if err != nil {
				t.Fatalf("second ledger re-encode: %v", err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatal("ledger encoding is not deterministic across a round trip")
			}
		}
	})
}
