package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ahs/internal/resultstore"
	"ahs/internal/telemetry"
)

// harness is one in-process fleet member: a store handle, a node, and the
// node's fleet API on a live httptest server (so peer forwarding works).
type harness struct {
	store *resultstore.Store
	node  *Node
	srv   *httptest.Server
	reg   *telemetry.Registry
}

// newMember opens dir as owner and builds the member. follower forces a
// read-only store open (a writer must already hold the flock).
func newMember(t *testing.T, dir, owner string, follower bool, tweak func(*Config)) *harness {
	t.Helper()
	store, err := resultstore.Open(resultstore.Config{
		Dir:      dir,
		Owner:    owner,
		ReadOnly: follower,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("Open store (%s): %v", owner, err)
	}
	srv := httptest.NewServer(nil) // handler set below, after the node exists
	reg := telemetry.NewRegistry()
	cfg := Config{
		Dir:       dir,
		Owner:     owner,
		URL:       srv.URL,
		Store:     store,
		Heartbeat: 20 * time.Millisecond,
		ClaimTTL:  80 * time.Millisecond,
		Telemetry: reg,
		Logf:      t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	node, err := New(cfg)
	if err != nil {
		srv.Close()
		store.Close()
		t.Fatalf("fleet.New(%s): %v", owner, err)
	}
	srv.Config.Handler = node.Handler()
	h := &harness{store: store, node: node, srv: srv, reg: reg}
	t.Cleanup(func() {
		srv.Close()
		node.Close()
		store.Close()
	})
	return h
}

// resultDoc mirrors the service layer's stored shape closely enough for
// bit-identity checks.
type resultDoc struct {
	Name     string    `json:"name"`
	Unsafety []float64 `json:"unsafety"`
}

func docJSON(t *testing.T, seed int) []byte {
	t.Helper()
	d := resultDoc{Name: fmt.Sprintf("doc-%d", seed)}
	for i := 0; i < 4; i++ {
		d.Unsafety = append(d.Unsafety, float64(seed)/3.0*1e-13)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriterRoleAndEpochAtBirth(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)
	if got := w.node.Role(); got != string(RoleWriter) {
		t.Fatalf("writer-open node role = %s", got)
	}
	if got := w.node.Epoch(); got != 1 {
		t.Fatalf("first writer epoch = %d, want 1", got)
	}
	info, ok, err := resultstore.ReadWriterInfo(dir)
	if err != nil || !ok || info.Owner != "node-a" || info.Epoch != 1 {
		t.Fatalf("writer heartbeat = %+v, %v, %v", info, ok, err)
	}

	f := newMember(t, dir, "node-b", true, nil)
	if got := f.node.Role(); got != string(RoleFollower) {
		t.Fatalf("follower-open node role = %s", got)
	}
	if got := f.node.Epoch(); got != 1 {
		t.Fatalf("follower learned epoch %d, want 1", got)
	}
	h := f.node.Health()
	if h["role"] != "follower" || h["writer"] == nil {
		t.Fatalf("follower health %+v", h)
	}
}

// TestClaimAfterPeerFinished: B misses the store, then A claims,
// persists and releases before B claims. B wins the freed claim, but
// the work is done, so TryClaim must not hand B an evaluation — nor
// leave B holding a claim.
func TestClaimAfterPeerFinished(t *testing.T) {
	dir := t.TempDir()
	a := newMember(t, dir, "node-a", false, nil)
	b := newMember(t, dir, "node-b", true, nil)
	scenario := []byte(`{"name":"s"}`)

	if b.store.Has("hash-1") {
		t.Fatal("B found hash-1 in the store before anyone evaluated it")
	}
	if acquired, _, err := a.node.TryClaim("hash-1", scenario); !acquired || err != nil {
		t.Fatalf("A TryClaim = %v, %v", acquired, err)
	}
	if err := a.node.PutResult("hash-1", docJSON(t, 1)); err != nil {
		t.Fatalf("A PutResult: %v", err)
	}
	acquired, holder, err := b.node.TryClaim("hash-1", scenario)
	if err != nil || acquired || holder != "" {
		t.Fatalf("B TryClaim after A stored the result = %v, %q, %v; want not acquired, no holder", acquired, holder, err)
	}
	if _, held, err := b.node.claims.Get("hash-1"); err != nil || held {
		t.Fatalf("claim on hash-1 still held after TryClaim found it stored (err %v)", err)
	}
	if got := b.node.Health()["claims"]; got != 0 {
		t.Fatalf("B tracks %v owned claims, want 0", got)
	}
}

// TestClaimRedirect: the second claimant is pointed at the first's URL.
func TestClaimRedirect(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)
	f := newMember(t, dir, "node-b", true, nil)

	acquired, _, err := w.node.TryClaim("hash-1", []byte(`{"name":"s"}`))
	if err != nil || !acquired {
		t.Fatalf("writer TryClaim = %v, %v", acquired, err)
	}
	acquired, holder, err := f.node.TryClaim("hash-1", nil)
	if err != nil || acquired {
		t.Fatalf("follower TryClaim = %v, %v", acquired, err)
	}
	if holder != w.srv.URL {
		t.Fatalf("holder URL = %q, want %q", holder, w.srv.URL)
	}
	if f.node.metrics.conflicts.Value() != 1 {
		t.Error("conflict not counted")
	}

	// Releasing frees the scenario for the peer.
	w.node.Release("hash-1")
	if acquired, _, _ := f.node.TryClaim("hash-1", nil); !acquired {
		t.Fatal("claim not acquirable after release")
	}
}

// TestFollowerPutForwarding: a follower's finished result lands in the
// shared store via the writer, bit-identically, and the claim is freed.
func TestFollowerPutForwarding(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)
	f := newMember(t, dir, "node-b", true, nil)

	value := docJSON(t, 7)
	if acquired, _, err := f.node.TryClaim("hash-7", value); err != nil || !acquired {
		t.Fatalf("TryClaim = %v, %v", acquired, err)
	}
	if err := f.node.PutResult("hash-7", value); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	var got json.RawMessage
	ok, err := w.store.Get("hash-7", &got)
	if err != nil || !ok {
		t.Fatalf("writer store Get = %v, %v", ok, err)
	}
	var a, b resultDoc
	if err := json.Unmarshal(value, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%b", a.Unsafety[0]) != fmt.Sprintf("%b", b.Unsafety[0]) {
		t.Errorf("forwarded result not bit-identical: %b vs %b", a.Unsafety[0], b.Unsafety[0])
	}
	if w.node.metrics.ingested.Value() != 1 || f.node.metrics.forwarded.Value() != 1 {
		t.Error("forward/ingest not counted")
	}
	// Claim released after the persist. (Probed on the claims table:
	// TryClaim declines a scenario whose result is already stored.)
	if _, held, err := w.node.claims.Get("hash-7"); err != nil || held {
		t.Error("claim still held after successful put")
	}
}

// TestPromotionAfterWriterDeath is the failover heart: kill -9 the
// writer (Abandon), tick the follower past the heartbeat, and it must
// promote under a new epoch and adopt the dead writer's unfinished work.
func TestPromotionAfterWriterDeath(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)

	var adopted atomic.Int32
	f := newMember(t, dir, "node-b", true, func(c *Config) {
		c.Submit = func(sc json.RawMessage) {
			if strings.Contains(string(sc), "orphan") {
				adopted.Add(1)
			}
		}
	})

	// The writer claims two scenarios: one it finishes, one it dies with.
	done := docJSON(t, 1)
	if acquired, _, err := w.node.TryClaim("hash-done", done); !acquired || err != nil {
		t.Fatal(err)
	}
	if err := w.node.PutResult("hash-done", done); err != nil {
		t.Fatal(err)
	}
	if acquired, _, err := w.node.TryClaim("hash-orphan", []byte(`{"name":"orphan"}`)); !acquired || err != nil {
		t.Fatal(err)
	}

	// kill -9: flock drops, heartbeat stops, claims stay on disk.
	w.node.claims.Abandon()
	w.store.Abandon()

	// Before the heartbeat expires the follower must NOT promote.
	f.node.Tick()
	if got := f.node.Role(); got != string(RoleFollower) {
		t.Fatalf("follower promoted against a live heartbeat (role %s)", got)
	}

	// Wait out heartbeat (4×20ms) and claim TTL, then tick.
	deadline := time.Now().Add(2 * time.Second)
	for f.node.Role() != string(RoleWriter) {
		if time.Now().After(deadline) {
			t.Fatalf("follower never promoted (role %s)", f.node.Role())
		}
		time.Sleep(10 * time.Millisecond)
		f.node.Tick()
	}

	if got := f.node.Epoch(); got != 2 {
		t.Errorf("promoted epoch = %d, want 2", got)
	}
	if f.node.metrics.promotions.Value() != 1 {
		t.Error("promotion not counted")
	}
	info, ok, _ := resultstore.ReadWriterInfo(dir)
	if !ok || info.Owner != "node-b" || info.Epoch != 2 {
		t.Errorf("heartbeat after promotion = %+v", info)
	}
	// The orphan is adopted once its claim TTL lapses — at promotion or
	// on a later writer tick, whichever the timing lands on. The finished
	// scenario must never be re-submitted.
	for adopted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("orphan never adopted")
		}
		time.Sleep(10 * time.Millisecond)
		f.node.Tick()
	}
	if got := adopted.Load(); got != 1 {
		t.Errorf("adopted %d scenarios, want 1 (the orphan only)", got)
	}
	if f.node.metrics.adoptions.Value() != 1 {
		t.Error("adoption not counted")
	}
	// The promoted writer serves writes directly now.
	if err := f.node.PutResult("hash-orphan", docJSON(t, 2)); err != nil {
		t.Fatalf("promoted PutResult: %v", err)
	}
	if !f.store.Has("hash-orphan") {
		t.Error("promoted put did not reach the store")
	}
}

// TestStaleEpochPutFenced: a put stamped with a pre-promotion epoch is
// rejected with 409 and counted — the e2e's stale-writer injection.
func TestStaleEpochPutFenced(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)

	req, err := http.NewRequest(http.MethodPost, w.srv.URL+PathResults+"?hash=hash-9",
		bytes.NewReader(docJSON(t, 9)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderEpoch, "0") // writer is at epoch 1
	req.Header.Set(HeaderOwner, "node-zombie")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch put answered %d, want 409", resp.StatusCode)
	}
	if w.node.metrics.fencedIn.Value() != 1 {
		t.Error("fenced write not counted")
	}
	if w.store.Has("hash-9") {
		t.Error("fenced put reached the store")
	}

	// Same epoch but a claim now owned by someone else: also fenced.
	if acquired, _, _ := w.node.TryClaim("hash-10", nil); !acquired {
		t.Fatal("setup claim failed")
	}
	req2, _ := http.NewRequest(http.MethodPost, w.srv.URL+PathResults+"?hash=hash-10",
		bytes.NewReader(docJSON(t, 10)))
	req2.Header.Set(HeaderEpoch, "1")
	req2.Header.Set(HeaderOwner, "node-zombie")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("lost-claim put answered %d, want 409", resp2.StatusCode)
	}
	if w.node.metrics.fencedIn.Value() != 2 {
		t.Error("second fenced write not counted")
	}
}

// TestPendingPutRetries: with the writer unreachable, a follower parks
// the finished result, keeps the claim, and delivers on a later tick
// once the writer is back.
func TestPendingPutRetries(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)
	f := newMember(t, dir, "node-b", true, nil)

	value := docJSON(t, 3)
	if acquired, _, err := f.node.TryClaim("hash-3", value); !acquired || err != nil {
		t.Fatal(err)
	}
	// Point the follower at a dead writer URL.
	f.node.mu.Lock()
	goodWriter := f.node.writer
	f.node.writer.URL = "http://127.0.0.1:1" // nothing listens there
	f.node.mu.Unlock()

	if err := f.node.PutResult("hash-3", value); err != nil {
		t.Fatalf("PutResult with dead writer should park, got %v", err)
	}
	if w.store.Has("hash-3") {
		t.Fatal("result stored despite dead writer")
	}
	h := f.node.Health()
	if h["pending"] != 1 || h["claims"] != 1 {
		t.Fatalf("health after park = %+v, want pending=1 claims=1", h)
	}

	// Writer heartbeat restores the URL; the next tick flushes.
	if err := w.node.writeHeartbeat(); err != nil {
		t.Fatal(err)
	}
	_ = goodWriter
	f.node.Tick()
	if !w.store.Has("hash-3") {
		t.Fatal("pending put not flushed after writer returned")
	}
	h = f.node.Health()
	if h["pending"] != 0 || h["claims"] != 0 {
		t.Fatalf("health after flush = %+v, want pending=0 claims=0", h)
	}
}

// TestInfoEndpoint: role and epoch are served over HTTP.
func TestInfoEndpoint(t *testing.T) {
	dir := t.TempDir()
	w := newMember(t, dir, "node-a", false, nil)
	resp, err := http.Get(w.srv.URL + PathInfo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["role"] != "writer" || doc["epoch"] != float64(1) || doc["owner"] != "node-a" {
		t.Fatalf("info = %+v", doc)
	}
}

// TestPutToNonWriterMisdirected: followers answer 421 with their view of
// the writer so a confused sender can re-aim.
func TestPutToNonWriterMisdirected(t *testing.T) {
	dir := t.TempDir()
	newMember(t, dir, "node-a", false, nil)
	f := newMember(t, dir, "node-b", true, nil)

	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+PathResults+"?hash=h", bytes.NewReader([]byte(`{}`)))
	req.Header.Set(HeaderEpoch, "1")
	req.Header.Set(HeaderOwner, "x")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("put to follower answered %d, want 421", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["writer"] == nil {
		t.Fatalf("421 body carries no writer pointer: %+v", doc)
	}
}
