package resultstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ahs/internal/seglog"
)

// The files under testdata/format were written by the store and claims
// code before they moved onto internal/seglog. results.seg holds
// Put(k1, testDoc(1)), Put(k2, testDoc(2)), Put(k1, testDoc(3)) and then
// an 11-byte torn frame; claims.seg holds node-a claiming hash-1, node-b
// claiming hash-2, node-a renewing hash-1 under epoch 2, node-b releasing
// hash-2 and node-a claiming hash-3 under epoch 2. These tests pin that
// the on-disk format did not change.

const fixtureTornBytes = 11

func copyFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "format", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreFormatFixtureReplays: the committed segment indexes to the
// newest record per key, counts the superseded one as dead, and has its
// torn tail cut.
func TestStoreFormatFixtureReplays(t *testing.T) {
	dir := copyFixture(t, segmentName)
	s := openTest(t, dir, Config{})
	st := s.Stats()
	if st.Entries != 2 || st.TruncatedBytes != fixtureTornBytes || st.DeadBytes == 0 || st.SkippedRecords != 0 {
		t.Fatalf("stats %+v, want 2 entries, one superseded record, %d torn bytes cut", st, fixtureTornBytes)
	}
	if keys := s.Keys(); len(keys) != 2 || keys[0] != "k1" || keys[1] != "k2" {
		t.Fatalf("keys %q, want [k1 k2]", keys)
	}
	for key, seed := range map[string]uint64{"k1": 3, "k2": 2} {
		var got curveDoc
		if ok, err := s.Get(key, &got); !ok || err != nil {
			t.Fatalf("Get(%s) = %v, %v", key, ok, err)
		}
		if docBits(got) != docBits(testDoc(seed)) {
			t.Errorf("Get(%s) is not testDoc(%d) bit-identically", key, seed)
		}
	}
}

// TestStoreFormatBytesUnchanged: the same Puts write a segment
// byte-identical to the fixture's valid prefix.
func TestStoreFormatBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	for _, p := range []struct {
		key  string
		seed uint64
	}{{"k1", 1}, {"k2", 2}, {"k1", 3}} {
		if err := s.Put(p.key, testDoc(p.seed)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "format", segmentName))
	if err != nil {
		t.Fatal(err)
	}
	want = want[:len(want)-fixtureTornBytes]
	got, err := os.ReadFile(filepath.Join(dir, segmentName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results.seg: %d bytes differ from the fixture's %d-byte valid prefix", len(got), len(want))
	}
}

// TestClaimsFormatFixtureReplays: the committed claims segment folds to
// the two claims node-a still holds, with the renewal's epoch and
// deadline and the scenario carried over from the original claim.
func TestClaimsFormatFixtureReplays(t *testing.T) {
	dir := copyFixture(t, claimsSegName)
	c := openClaims(t, dir, "node-c", ClaimsConfig{})
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ClaimState{
		"hash-1": {Key: "hash-1", Owner: "node-a", URL: "http://a", Epoch: 2,
			Expires: time.Unix(0, 3369012713337265469), Scenario: json.RawMessage(`{"name":"s1"}`)},
		"hash-3": {Key: "hash-3", Owner: "node-a", URL: "http://a", Epoch: 2,
			Expires: time.Unix(0, 3369012713337488856), Scenario: json.RawMessage(`{"name":"s3"}`)},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot holds %d claims, want %d: %+v", len(snap), len(want), snap)
	}
	for _, got := range snap {
		w := want[got.Key]
		if got.Owner != w.Owner || got.URL != w.URL || got.Epoch != w.Epoch ||
			!got.Expires.Equal(w.Expires) || string(got.Scenario) != string(w.Scenario) {
			t.Errorf("claim %s = %+v, want %+v", got.Key, got, w)
		}
	}
}

func fixtureFrames(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		var err error
		if data, err = seglog.AppendFrame(data, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

// TestSegRecordValueSpan: every record the store indexes has a value
// span inside its payload whose bytes decode on their own — Get reads
// the value through that span.
func TestSegRecordValueSpan(t *testing.T) {
	data := fixtureFrames(t,
		`{"key":"hash-1","value":{"name":"r","unsafety":[1e-13]}}`,
		`{"key":"hash-2","value":[1,2.5,3]}`,
		`{"key":"hash-1","value":1}`, // the value's bytes also occur inside the key
		`{ "value" : "v" , "key" : "k" }`,
		`"crc fine, not a record"`,
		`{"key":"","value":1}`,
		`{"key":"k"}`,
		``,
	)
	fixture, err := os.ReadFile(filepath.Join("testdata", "format", segmentName))
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, fixture...)
	kept := 0
	_, skipped := seglog.Scan(data, func(r seglog.Record) bool {
		key, vOff, vLen, ok := decodeSegRecord(r.Payload)
		if !ok {
			return false
		}
		kept++
		if key == "" || vOff < 0 || vLen <= 0 || vOff+vLen > int64(len(r.Payload)) {
			t.Fatalf("record %q: value span [%d,%d) outside its %d-byte payload", key, vOff, vOff+vLen, len(r.Payload))
		}
		var v any
		if err := json.Unmarshal(r.Payload[vOff:vOff+vLen], &v); err != nil {
			t.Fatalf("record %q: value span does not decode: %v", key, err)
		}
		var rec segRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil || !bytes.Equal(r.Payload[vOff:vOff+vLen], rec.Value) {
			t.Fatalf("record %q: value span %q is not the record's value %q", key, r.Payload[vOff:vOff+vLen], rec.Value)
		}
		return true
	})
	if kept != 7 || skipped != 4 {
		t.Fatalf("kept %d records and skipped %d, want 7 and 4", kept, skipped)
	}
}

// TestDecodeClaimRequiredFields: reconciliation applies only records
// carrying a key, an owner and an operation, and a kept record's scenario
// is valid JSON.
func TestDecodeClaimRequiredFields(t *testing.T) {
	data := fixtureFrames(t,
		`{"key":"hash-1","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000,"scenario":{"name":"s"}}`,
		`{"key":"hash-1","owner":"node-a","epoch":1,"op":"renew","expires":1754600001000000000}`,
		`{"key":"hash-1","owner":"node-a","op":"release","expires":1754600002000000000}`,
		`[1,2,3]`,
		`{"key":"hash-1","op":"claim"}`,
		`{"owner":"node-a","op":"claim"}`,
		`{"key":"hash-1","owner":"node-a"}`,
		`{"key":"hash-1","owner":"node-a","op":"claim","scenario":{"name":}`,
	)
	valid, records, skipped := scanClaims(data)
	if valid != int64(len(data)) || len(records) != 3 || skipped != 5 {
		t.Fatalf("scan = (%d of %d bytes, %d records, %d skipped), want all bytes, 3 records, 5 skipped",
			valid, len(data), len(records), skipped)
	}
	for i, rec := range records {
		if rec.Key == "" || rec.Owner == "" || rec.Op == "" {
			t.Fatalf("record %d missing required fields: %+v", i, rec)
		}
		if len(rec.Scenario) > 0 && !json.Valid(rec.Scenario) {
			t.Fatalf("record %d carries invalid scenario JSON", i)
		}
	}
}
