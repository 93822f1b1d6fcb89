package resultstore

import (
	"encoding/json"
	"testing"

	"ahs/internal/seglog"
)

// fuzzFrame frames payload the way every segment append does.
func fuzzFrame(f *testing.F, payload string) []byte {
	f.Helper()
	b, err := seglog.AppendFrame(nil, []byte(payload))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// scannedRecord is one record the store's scan would index: its frame
// span and the span of its value bytes, both as offsets into the segment.
type scannedRecord struct {
	Key                string
	Off, Size          int64
	ValueOff, ValueLen int64
}

// scanSegment decodes results.seg bytes the way the store's scan does,
// returning the valid prefix length, the records indexed, and the count
// of CRC-valid frames skipped as undecodable.
func scanSegment(data []byte) (valid int64, records []scannedRecord, skipped int) {
	valid, skipped = seglog.Scan(data, func(r seglog.Record) bool {
		key, vOff, vLen, ok := decodeSegRecord(r.Payload)
		if ok {
			records = append(records, scannedRecord{
				Key: key, Off: r.Off, Size: r.Size(),
				ValueOff: r.Off + seglog.HeaderSize + vOff, ValueLen: vLen,
			})
		}
		return ok
	})
	return valid, records, skipped
}

// scannedClaim is one record reconciliation would apply, with its frame
// span in the segment.
type scannedClaim struct {
	Record    claimRecord
	Off, Size int64
}

// scanClaimFrames decodes claims.seg bytes the way reconciliation does,
// keeping each applied record's frame span.
func scanClaimFrames(data []byte) (valid int64, records []scannedClaim, skipped int) {
	valid, skipped = seglog.Scan(data, func(r seglog.Record) bool {
		rec, ok := decodeClaim(r.Payload)
		if ok {
			records = append(records, scannedClaim{Record: rec, Off: r.Off, Size: r.Size()})
		}
		return ok
	})
	return valid, records, skipped
}

// FuzzStoreScan attacks the segment decoder with arbitrary bytes — the
// store reads these back at startup from a file possibly torn, truncated
// or bit-rotted by the crash it is recovering from. The contract matches
// the cluster journal's: malformed input is a cut or a skip, never a
// panic, and the reported valid prefix is self-consistent — rescanning it
// reproduces the identical outcome, which is what makes the writer's
// startup truncation sound. On top of internal/seglog's FuzzScan, this
// checks the record decoder: every indexed value span is the exact JSON
// value Get would return.
//
// CI runs this in regression mode (f.Add seeds + testdata/fuzz entries);
// `make fuzz` explores with the mutation engine.
func FuzzStoreScan(f *testing.F) {
	good := fuzzFrame(f, `{"key":"hash-1","value":{"name":"r","unsafety":[1e-13]}}`)
	second := fuzzFrame(f, `{"key":"hash-2","value":[1,2.5,3]}`)
	undecodable := fuzzFrame(f, `"crc fine, not a record"`)
	emptyKey := fuzzFrame(f, `{"key":"","value":1}`)

	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), second...))
	f.Add(append(append([]byte{}, good...), 0xAA, 0xBB, 0xCC)) // trailing garbage
	f.Add(append(append([]byte{}, undecodable...), good...))   // skip then resume
	f.Add(emptyKey)
	corrupt := append([]byte{}, good...)
	corrupt[10] ^= 0x01
	f.Add(corrupt)
	huge := make([]byte, 16)
	huge[3] = 0xFF // declared length far beyond the buffer
	f.Add(huge)
	f.Add(fuzzFrame(f, "")) // zero-length payload

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, records, skipped := scanSegment(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		v2, r2, s2 := scanSegment(data[:valid])
		if v2 != valid || len(r2) != len(records) || s2 != skipped {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)",
				v2, len(r2), s2, valid, len(records), skipped)
		}
		for i, rec := range records {
			if rec.Key == "" {
				t.Fatalf("record %d has empty key", i)
			}
			if rec.Off < 0 || rec.Off+rec.Size > valid {
				t.Fatalf("record %d frame [%d,%d) outside valid prefix %d", i, rec.Off, rec.Off+rec.Size, valid)
			}
			if rec.ValueOff < rec.Off+seglog.HeaderSize || rec.ValueOff+rec.ValueLen > rec.Off+rec.Size {
				t.Fatalf("record %d value [%d,%d) outside its payload", i, rec.ValueOff, rec.ValueOff+rec.ValueLen)
			}
			// The located value bytes must be exactly the decodable JSON
			// value Get would return.
			var v any
			if err := json.Unmarshal(data[rec.ValueOff:rec.ValueOff+rec.ValueLen], &v); err != nil {
				t.Fatalf("record %d value bytes do not decode: %v", i, err)
			}
		}
	})
}

// FuzzClaimsScan attacks the claims-segment decoder the same way: every
// fleet member appends here under a short flock, and any of them can die
// mid-write, so reconciliation must treat arbitrary trailing bytes as a
// cut or a skip, never a panic — and the valid prefix it reports is what
// the next appender truncates to, so rescanning that prefix must
// reproduce the identical outcome.
func FuzzClaimsScan(f *testing.F) {
	claim := fuzzFrame(f, `{"key":"hash-1","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000,"scenario":{"name":"s"}}`)
	renew := fuzzFrame(f, `{"key":"hash-1","owner":"node-a","epoch":1,"op":"renew","expires":1754600001000000000}`)
	release := fuzzFrame(f, `{"key":"hash-1","owner":"node-a","op":"release","expires":1754600002000000000}`)
	undecodable := fuzzFrame(f, `[1,2,3]`)
	missingOwner := fuzzFrame(f, `{"key":"hash-1","op":"claim"}`)

	f.Add([]byte{})
	f.Add(claim)
	f.Add(append(append(append([]byte{}, claim...), renew...), release...))
	f.Add(append(append([]byte{}, claim...), 0x01, 0x02)) // torn tail
	f.Add(append(append([]byte{}, undecodable...), claim...))
	f.Add(missingOwner)
	corrupt := append([]byte{}, claim...)
	corrupt[12] ^= 0x80
	f.Add(corrupt)
	huge := make([]byte, 12)
	huge[3] = 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, records, skipped := scanClaimFrames(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		v2, r2, s2 := scanClaimFrames(data[:valid])
		if v2 != valid || len(r2) != len(records) || s2 != skipped {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)",
				v2, len(r2), s2, valid, len(records), skipped)
		}
		for i, rec := range records {
			if rec.Record.Key == "" || rec.Record.Owner == "" || rec.Record.Op == "" {
				t.Fatalf("record %d missing required fields: %+v", i, rec.Record)
			}
			if rec.Off < 0 || rec.Off+rec.Size > valid {
				t.Fatalf("record %d frame [%d,%d) outside valid prefix %d", i, rec.Off, rec.Off+rec.Size, valid)
			}
			if len(rec.Record.Scenario) > 0 && !json.Valid(rec.Record.Scenario) {
				t.Fatalf("record %d carries invalid scenario JSON", i)
			}
		}
	})
}
