package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/predict"
	"gompax/internal/serve/segstore"
	"gompax/internal/wire"
)

func testRecord(id, verdict string, violations int) Record {
	return Record{
		ID:         id,
		Spec:       "crossing",
		Formula:    "(x > 0) -> [y = 0, y > z)",
		Start:      time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		End:        time.Date(2026, 8, 5, 12, 0, 1, 0, time.UTC),
		Verdict:    verdict,
		Violations: violations,
		Stats:      predict.Stats{Cuts: 9, Levels: 5, LevelWidths: []int{1, 2, 3, 2, 1}},
		Wire:       wire.SessionStats{Frames: 12, Gaps: 1},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{s.NextID(), s.NextID(), s.NextID()}
	if ids[0] != "s-000001" || ids[2] != "s-000003" {
		t.Fatalf("unexpected id sequence %v", ids)
	}
	for i, id := range ids {
		if err := s.Append(testRecord(id, VerdictOK, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get(ids[1]); !ok || got.Violations != 1 {
		t.Fatalf("Get(%s) = %+v, %v", ids[1], got, ok)
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
	if err := s.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: records replay, ids keep counting past the loaded max.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reloaded Len() = %d, want 3", s2.Len())
	}
	rec, ok := s2.Get(ids[0])
	if !ok {
		t.Fatalf("record %s lost across reload", ids[0])
	}
	if rec.Wire.Gaps != 1 || rec.Stats.Cuts != 9 || len(rec.Stats.LevelWidths) != 5 {
		t.Fatalf("record fields lost across reload: %+v", rec)
	}
	if next := s2.NextID(); next != "s-000004" {
		t.Fatalf("NextID after reload = %s, want s-000004", next)
	}
	if s2.RecoveredOrphans() != 0 {
		t.Fatalf("clean store recovered %d orphans", s2.RecoveredOrphans())
	}
}

func TestStoreTornTailSkipped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("s-000001", VerdictViolation, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, undecodable final line on
	// the active segment.
	f, err := os.OpenFile(filepath.Join(dir, "results-00000001.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"verdict","id":"s-000002","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn tail bricked the store: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len() = %d after torn tail, want 1", s2.Len())
	}
	// The store stays appendable after the torn line.
	if err := s2.Append(testRecord(s2.NextID(), VerdictOK, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s2.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(s.NextID(), VerdictOK, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("memory-only store Len() = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreLegacyMigration upgrades a pre-segmented single-file JSONL
// store in place: the file becomes a segment directory with the same
// records, and the original is preserved with a .legacy suffix.
func TestStoreLegacyMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	var lines []byte
	for _, id := range []string{"s-000001", "s-000002"} {
		buf, err := json.Marshal(testRecord(id, VerdictOK, 0))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, buf...)
		lines = append(lines, '\n')
	}
	lines = append(lines, []byte(`{"id":"s-000003","torn`)...) // legacy torn tail
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("migrated store Len() = %d, want 2", s.Len())
	}
	if _, ok := s.Get("s-000001"); !ok {
		t.Fatal("record s-000001 lost in migration")
	}
	if next := s.NextID(); next != "s-000003" {
		t.Fatalf("NextID after migration = %s, want s-000003", next)
	}
	if _, err := os.Stat(path + ".legacy"); err != nil {
		t.Fatalf("legacy file not preserved: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("store path is not a segment directory: %v", err)
	}
	if err := s.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOrphanRecovery is the recovery protocol's unit test: an
// accepted intent with no verdict resurfaces as an interrupted record
// on the next open, durably, and exactly once.
func TestStoreOrphanRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One completed session, one accepted-but-never-finished.
	if err := s.Append(testRecord("s-000001", VerdictOK, 0)); err != nil {
		t.Fatal(err)
	}
	started := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	if err := s.Accepted(AcceptedInfo{
		ID: "s-000002", Spec: "crossing", Formula: "(x > 0) -> [y = 0, y > z)",
		Tenant: "acme", Remote: "10.0.0.7:1234", Start: started,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // kill -9 equivalent for the journal state
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.RecoveredOrphans() != 1 {
		t.Fatalf("recovered orphans = %d, want 1", s2.RecoveredOrphans())
	}
	rec, ok := s2.Get("s-000002")
	if !ok {
		t.Fatal("orphaned session not in the index")
	}
	if rec.Verdict != VerdictInterrupted {
		t.Fatalf("orphan verdict = %q, want interrupted", rec.Verdict)
	}
	if rec.Spec != "crossing" || rec.Tenant != "acme" || !rec.Start.Equal(started) {
		t.Fatalf("orphan lost its intent fields: %+v", rec)
	}
	if ok, _ := s2.Get("s-000001"); ok.Verdict != VerdictOK {
		t.Fatalf("completed record disturbed by recovery: %+v", ok)
	}
	if err := s2.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Idempotence: the interrupted verdict is durable, so a third open
	// recovers nothing new.
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.RecoveredOrphans() != 0 {
		t.Fatalf("second recovery found %d orphans, want 0", s3.RecoveredOrphans())
	}
	if rec, _ := s3.Get("s-000002"); rec.Verdict != VerdictInterrupted {
		t.Fatalf("interrupted verdict lost: %+v", rec)
	}
}

// TestStoreCompactionKeepsRecords drives enough accepted/verdict pairs
// through a small-segment store to rotate and compact, then checks
// nothing visible was lost.
func TestStoreCompactionKeepsRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s, err := OpenStoreOptions(StoreOptions{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		id := s.NextID()
		if err := s.Accepted(AcceptedInfo{ID: id, Spec: "crossing", Start: time.Now().UTC()}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testRecord(id, VerdictOK, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() < 2 {
		t.Fatalf("segments = %d, want rotation", s.Segments())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() == 0 {
		t.Fatal("compaction did not run")
	}
	if s.Len() != 40 {
		t.Fatalf("Len() = %d after compaction, want 40", s.Len())
	}
	if err := s.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	// The segstore stats surface through the wrapper for -verify-store.
	var st segstore.Stats = s.StoreStats()
	if st.Live != 40 || st.Dir != dir {
		t.Fatalf("StoreStats() = %+v", st)
	}
}

// TestBuildRecordExactCapacity: the store index keeps every record for
// the daemon's lifetime, so buildRecord must not alias the analyzer's
// grown LevelWidths backing array or keep append slack in the
// counterexample — and the stored JSON must be what the aliased
// record would have serialized.
func TestBuildRecordExactCapacity(t *testing.T) {
	const levels = 1537
	widths := make([]int, 0, 2048) // the online analyzer's doubled capacity
	for i := 0; i < levels; i++ {
		widths = append(widths, 1+i%3)
	}
	var run lattice.Run
	for i := 0; i <= levels; i++ {
		run.States = append(run.States, logic.StateFromMap(map[string]int64{"hub": int64(i)}))
	}
	res := predict.Result{
		Stats:      predict.Stats{Cuts: levels, Levels: levels, LevelWidths: widths},
		Violations: []predict.Violation{{Run: &run}},
	}
	sp := &spec{name: "hub-below", formula: "hub < 256"}
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	rec := buildRecord("s1", sp, "127.0.0.1:1", start, res, nil, wire.SessionStats{Frames: 3})

	if lw := rec.Stats.LevelWidths; len(lw) != levels || cap(lw) != len(lw) {
		t.Fatalf("LevelWidths len %d cap %d, want both %d", len(lw), cap(lw), levels)
	}
	if &rec.Stats.LevelWidths[0] == &widths[0] {
		t.Fatal("LevelWidths aliases the analyzer's backing array")
	}
	if ce := rec.Counterexample; len(ce) != levels+1 || cap(ce) != len(ce) {
		t.Fatalf("Counterexample len %d cap %d, want both %d", len(ce), cap(ce), levels+1)
	}

	// The JSON is unchanged from the aliasing, append-built record.
	want := rec
	want.Stats = res.Stats
	want.Counterexample = nil
	for _, st := range run.States {
		want.Counterexample = append(want.Counterexample, st.String())
	}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Fatalf("stored JSON changed:\n got %s\nwant %s", got, wantJSON)
	}
}
