package seglog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func frame(t testing.TB, payload string) []byte {
	t.Helper()
	b, err := AppendFrame(nil, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzScan attacks the frame scanner with arbitrary bytes: every owner
// reads its files back at startup from disk possibly torn, truncated or
// bit-rotted by the crash it is recovering from. Malformed input is a cut
// or a skip, never a panic, and the valid prefix is self-consistent: the
// frames tile it exactly, and rescanning it reproduces the same outcome,
// which is what makes truncating a writable log to it sound.
//
// The decoder stands in for an owner's codec: it rejects payloads that
// are not valid JSON, so the skip count is checked against the frames it
// actually rejected. CI runs the seeds and testdata/fuzz entries; `make
// fuzz` explores with the mutation engine.
func FuzzScan(f *testing.F) {
	journalFinish := frame(f, `{"type":"finish","job":1}`)
	journalSubmit := frame(f, `{"type":"submit","job":2,"scenario":{"name":"e2e","n":2},"hash":"h","roundSize":500,"chunkBatches":500}`)
	storeGood := frame(f, `{"key":"hash-1","value":{"name":"r","unsafety":[1e-13]}}`)
	storeSecond := frame(f, `{"key":"hash-2","value":[1,2.5,3]}`)
	claim := frame(f, `{"key":"hash-1","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000,"scenario":{"name":"s"}}`)
	renew := frame(f, `{"key":"hash-1","owner":"node-a","epoch":1,"op":"renew","expires":1754600001000000000}`)
	release := frame(f, `{"key":"hash-1","owner":"node-a","op":"release","expires":1754600002000000000}`)
	undecodable := frame(f, `{not json`)

	f.Add([]byte{})
	f.Add(journalFinish)
	f.Add(cat(journalSubmit, journalFinish))
	f.Add(cat(storeGood, storeSecond))
	f.Add(cat(claim, renew, release))
	f.Add(cat(journalFinish, []byte{0xAA, 0xBB, 0xCC})) // torn tail
	f.Add(cat(claim, []byte{0x01, 0x02}))
	f.Add(cat(undecodable, storeGood)) // skip, then resume
	f.Add(cat(frame(f, `"crc fine, not a record"`), claim))
	f.Add(frame(f, `{"key":"","value":1}`)) // decodes, but no owner would keep it
	f.Add(frame(f, `{"key":"hash-1","op":"claim"}`))
	f.Add(frame(f, "")) // zero-length payload
	for _, c := range []struct {
		frame []byte
		at    int
		mask  byte
	}{{journalFinish, 9, 0x01}, {storeGood, 10, 0x01}, {claim, 12, 0x80}} {
		corrupt := cat(c.frame)
		corrupt[c.at] ^= c.mask
		f.Add(corrupt)
	}
	for _, n := range []int{12, 16} {
		huge := make([]byte, n)
		huge[3] = 0xFF // declared length far beyond the buffer
		f.Add(huge)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames []Record
		rejected := 0
		valid, skipped := Scan(data, func(r Record) bool {
			frames = append(frames, r)
			if !json.Valid(r.Payload) {
				rejected++
				return false
			}
			return true
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped != rejected {
			t.Fatalf("skip count %d, decoder rejected %d frames", skipped, rejected)
		}
		var next int64
		for i, r := range frames {
			if r.Off != next || r.Off+r.Size() > valid {
				t.Fatalf("frame %d [%d,%d) does not tile the valid prefix %d (expected start %d)", i, r.Off, r.Off+r.Size(), valid, next)
			}
			if !bytes.Equal(r.Payload, data[r.Off+HeaderSize:r.Off+r.Size()]) {
				t.Fatalf("frame %d payload does not alias its bytes", i)
			}
			next = r.Off + r.Size()
		}
		if next != valid {
			t.Fatalf("frames end at %d, valid prefix at %d", next, valid)
		}
		n2 := 0
		v2, s2 := Scan(data[:valid], func(r Record) bool {
			n2++
			return json.Valid(r.Payload)
		})
		if v2 != valid || s2 != skipped || n2 != len(frames) {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)", v2, n2, s2, valid, len(frames), skipped)
		}
	})
}

// TestFrameFormat pins the frame bytes every owner's files are made of.
func TestFrameFormat(t *testing.T) {
	payload := []byte(`{"k":1}`)
	got := frame(t, string(payload))
	if len(got) != HeaderSize+len(payload) ||
		binary.LittleEndian.Uint32(got[0:4]) != uint32(len(payload)) ||
		binary.LittleEndian.Uint32(got[4:8]) != crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) ||
		!bytes.Equal(got[8:], payload) {
		t.Fatalf("frame %x is not len|crc32c|payload", got)
	}
	if _, err := AppendFrame(nil, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("AppendFrame accepted a payload over MaxPayload")
	}
}

func scanAll(t *testing.T, l *Log) (payloads []string, skipped int, cut int64) {
	t.Helper()
	skipped, cut, err := l.ScanTail(func(r Record) bool {
		payloads = append(payloads, string(r.Payload))
		return json.Valid(r.Payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, skipped, cut
}

// TestScanTailTruncatesOnlyWriters: a writable Log cuts a torn tail at
// the valid prefix; a reader leaves it, since a live writer may still be
// completing that frame.
func TestScanTailTruncatesOnlyWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	good := cat(frame(t, `1`), frame(t, `{bad`), frame(t, `2`))
	torn := frame(t, `3`)[:6]
	if err := os.WriteFile(path, cat(good, torn), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payloads, skipped, cut := scanAll(t, r)
	if len(payloads) != 3 || skipped != 1 || cut != 0 || r.Size() != int64(len(good)) {
		t.Fatalf("reader scan = %q, %d skipped, %d cut, size %d", payloads, skipped, cut, r.Size())
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(good)+len(torn)) {
		t.Fatalf("reader changed the file to %d bytes", fi.Size())
	}

	w, err := Open(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, cut := scanAll(t, w); cut != int64(len(torn)) {
		t.Fatalf("writer cut %d bytes, want %d", cut, len(torn))
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(good)) {
		t.Fatalf("file is %d bytes after the writer's scan, want %d", fi.Size(), len(good))
	}

	// The reader picks up an append incrementally.
	if _, err := w.Append([]byte(`4`)); err != nil {
		t.Fatal(err)
	}
	if payloads, _, _ := scanAll(t, r); len(payloads) != 1 || payloads[0] != `4` {
		t.Fatalf("reader's incremental scan = %q, want [4]", payloads)
	}
}

// TestAppendOverwritesGarbage: bytes past the valid prefix — what a short
// write or a dead appender leaves — are overwritten by the next append,
// never appended after.
func TestAppendOverwritesGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	var stages []string
	l, err := Open(path, false, func(s string) { stages = append(stages, s) })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte(`1`)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame(t, `garbage that is longer than the next frame`)[:20])
	f.Close()
	rec, err := l.Append([]byte(`2`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Off != int64(len(frame(t, `1`))) || string(rec.Payload) != `2` {
		t.Fatalf("second record at %d (%q)", rec.Off, rec.Payload)
	}
	data, _ := os.ReadFile(path)
	valid, _ := Scan(data, func(Record) bool { return true })
	if valid != l.Size() || valid != rec.Off+rec.Size() {
		t.Fatalf("file scans to %d, log size %d, want both %d", valid, l.Size(), rec.Off+rec.Size())
	}
	want := []string{"pre-append", "pre-sync", "post-sync", "pre-append", "pre-sync", "post-sync"}
	if len(stages) != len(want) {
		t.Fatalf("hook stages %q, want %q", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("hook stages %q, want %q", stages, want)
		}
	}
}

// TestReplaceAndReopen: Replace swaps the file atomically under the
// writer, and another handle notices the new inode and rescans.
func TestReplaceAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	var stages []string
	w, err := Open(path, true, func(s string) { stages = append(stages, s) })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, p := range []string{`1`, `2`, `3`} {
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scanAll(t, r)
	if replaced, err := r.Reopen(); err != nil || replaced {
		t.Fatalf("Reopen before Replace = %v, %v", replaced, err)
	}

	stages = nil
	compacted := frame(t, `3`)
	if err := w.Replace(compacted); err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0] != "pre-rename" || stages[1] != "post-rename" {
		t.Fatalf("Replace hook stages %q", stages)
	}
	if w.Size() != int64(len(compacted)) {
		t.Fatalf("writer size %d after Replace, want %d", w.Size(), len(compacted))
	}
	if _, err := w.Append([]byte(`4`)); err != nil {
		t.Fatal(err)
	}
	if replaced, err := r.Reopen(); err != nil || !replaced || r.Size() != 0 {
		t.Fatalf("Reopen after Replace = %v, %v (size %d)", replaced, err, r.Size())
	}
	if payloads, _, _ := scanAll(t, r); len(payloads) != 2 || payloads[0] != `3` || payloads[1] != `4` {
		t.Fatalf("rescan after Replace = %q, want [3 4]", payloads)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Replace, want only the log", len(entries))
	}
}

// TestReadVerifiesChecksum: Read returns a frame's payload only while it
// still matches the CRC it was indexed with.
func TestReadVerifiesChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	l, err := Open(path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec, err := l.Append([]byte(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.Read(rec.Off, rec.Size(), rec.CRC); err != nil || string(got) != `{"v":1}` {
		t.Fatalf("Read = %q, %v", got, err)
	}
	f, _ := os.OpenFile(path, os.O_WRONLY, 0)
	f.WriteAt([]byte("2"), rec.Off+HeaderSize+5)
	f.Close()
	if _, err := l.Read(rec.Off, rec.Size(), rec.CRC); err != ErrChecksum {
		t.Fatalf("Read of a corrupted frame = %v, want ErrChecksum", err)
	}
}
