package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ahs/internal/mc"
	"ahs/internal/seglog"
)

// The files under testdata/format were written by the journal before it
// moved onto internal/seglog: five appends with CompactEvery 3, so the
// first three records sit in snapshot.wal and the last two in
// journal.wal. These tests pin that the on-disk format did not change.

// fixtureRecords is the append sequence that produced the fixture.
func fixtureRecords(t *testing.T) []journalRecord {
	t.Helper()
	sc1 := testScenario(1000).Canonical()
	h1, _ := sc1.Hash()
	sc2 := testScenario(2000).Canonical()
	h2, _ := sc2.Hash()
	return []journalRecord{
		{Type: recSubmit, Job: 1, Scenario: sc1, Hash: h1, RoundSize: 500, ChunkBatches: 250, LocalWorkers: 1},
		{Type: recChunk, Job: 1, State: &mc.ChunkState{Spec: mc.ChunkSpec{Start: 0, Count: 250}}},
		{Type: recChunk, Job: 1, State: &mc.ChunkState{Spec: mc.ChunkSpec{Start: 250, Count: 250}}},
		{Type: recSubmit, Job: 2, Scenario: sc2, Hash: h2, RoundSize: 500, ChunkBatches: 250, LocalWorkers: 1},
		{Type: recFinish, Job: 1},
	}
}

// TestJournalFormatFixtureReplays: the committed snapshot+tail pair
// replays to the job state its append sequence left.
func TestJournalFormatFixtureReplays(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{journalSnapshotName, journalTailName} {
		data, err := os.ReadFile(filepath.Join("testdata", "format", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := fixtureRecords(t)
	jobs := j.recoveredJobs()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	one, two := jobs[0], jobs[1]
	if one.id != 1 || !one.finished || one.finishErr != "" || one.submit.Hash != want[0].Hash || len(one.chunks) != 2 ||
		one.chunks[0] == nil || one.chunks[250] == nil || one.chunks[250].Spec.Count != 250 {
		t.Errorf("job 1 = %+v, want finished with chunks at 0 and 250", one)
	}
	if two.id != 2 || two.finished || two.submit.Hash != want[3].Hash || two.submit.Scenario.Batches != 2000 || len(two.chunks) != 0 {
		t.Errorf("job 2 = %+v, want live with no chunks", two)
	}
	if st := j.Stats(); st.LiveJobs != 2 || j.maxJobID() != 2 {
		t.Errorf("stats %+v, maxJobID %d", st, j.maxJobID())
	}
}

// TestJournalFormatBytesUnchanged: the same append sequence writes
// byte-identical snapshot and tail files.
func TestJournalFormatBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, CompactEvery: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range fixtureRecords(t) {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{journalSnapshotName, journalTailName} {
		want, err := os.ReadFile(filepath.Join("testdata", "format", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the committed %d-byte fixture", name, len(got), len(want))
		}
	}
}

// TestJournalScanKeepsOnlyWellFormed: whatever CRC-valid frames the
// journal files hold, replay keeps only records satisfying the per-type
// field invariants, and drops (counts) the rest without losing the
// frames after them.
func TestJournalScanKeepsOnlyWellFormed(t *testing.T) {
	frame := func(payload string) []byte {
		f, err := seglog.AppendFrame(nil, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var buf bytes.Buffer
	for _, payload := range []string{
		`{not json`,
		`"a string"`,
		`{"type":"submit","job":0}`,
		`{"type":"submit","job":4,"hash":"h","roundSize":500}`, // no scenario
		`{"type":"chunk","job":4}`,                             // no state
		`{"type":"chunk","job":4,"state":{"spec":{"start":0,"count":0}}}`,
		`{"type":"finish","job":0}`,
		`{"type":"bogus","job":4}`,
		`{"type":"drop","job":4}`,
	} {
		buf.Write(frame(payload))
	}
	for _, name := range []string{journalSnapshotName, journalTailName} {
		data, err := os.ReadFile(filepath.Join("testdata", "format", name))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	valid, records, dropped := scanJournal(buf.Bytes())
	if valid != int64(buf.Len()) || dropped != 8 || len(records) != 6 {
		t.Fatalf("scan = (%d of %d bytes, %d records, %d dropped), want all bytes, 6 records, 8 dropped",
			valid, buf.Len(), len(records), dropped)
	}
	for _, rec := range records {
		if !rec.wellFormed() {
			t.Fatalf("scan kept ill-formed record %+v", rec)
		}
	}
}
