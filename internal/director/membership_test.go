package director

import (
	"context"
	"errors"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/sderr"
)

func TestMembersJournalSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := d.Members(ctx); m.Epoch != 0 {
		t.Fatalf("fresh director epoch = %d, want 0", m.Epoch)
	}
	if _, err := d.SetMembers(ctx, 0, []NodeInfo{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}}); err != nil {
		t.Fatal(err)
	}
	m2, err := d.SetMembers(ctx, 1, []NodeInfo{{ID: 1, Addr: "b"}, {ID: 0, Addr: "a"}, {ID: 2, Addr: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != 2 || len(m2.Nodes) != 3 || m2.Nodes[2].ID != 2 {
		t.Fatalf("epoch 2 = %+v", m2)
	}
	// The CAS: planning against a superseded epoch loses loudly.
	if _, err := d.SetMembers(ctx, 1, m2.Nodes); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-epoch SetMembers = %v, want ErrConflict", err)
	}

	var fp fingerprint.Fingerprint
	fp[0] = 7
	migID, err := d.BeginMigration(ctx, Migration{Path: "/x", From: 2, To: 0, Start: 4, Count: 1, FPs: []fingerprint.Fingerprint{fp}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.BeginMigration(ctx, Migration{Path: "/y", From: 2, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndMigration(ctx, id2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the epoch and the one still-open transaction replay.
	d2, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	m, err := d2.Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || len(m.Nodes) != 3 || m.Nodes[0].Addr != "a" {
		t.Fatalf("recovered membership = %+v", m)
	}
	pend, err := d2.PendingMigrations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != migID || pend[0].Path != "/x" || pend[0].FPs[0] != fp {
		t.Fatalf("recovered pending migrations = %+v", pend)
	}
	if err := d2.EndMigration(ctx, migID); err != nil {
		t.Fatal(err)
	}
	if err := d2.EndMigration(ctx, migID); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("double EndMigration = %v, want ErrNotFound", err)
	}
}

func TestReplaceRecipeConflict(t *testing.T) {
	ctx := context.Background()
	d := New()
	s, _ := d.BeginSession(ctx, "c", "")
	chunks := []ChunkEntry{{Size: 4096, Node: 0}}
	if err := d.PutRecipe(ctx, s, "/f", chunks); err != nil {
		t.Fatal(err)
	}
	moved := []ChunkEntry{{Size: 4096, Node: 1}}
	if err := d.ReplaceRecipe(ctx, "/f", s, 1, moved); err != nil {
		t.Fatal(err)
	}
	r, err := d.GetRecipe(ctx, "/f")
	if err != nil || r.Chunks[0].Node != 1 || r.Session != s || r.Gen != 2 {
		t.Fatalf("replaced recipe = %+v (%v)", r, err)
	}
	// Wrong session, stale generation (a concurrent migration already
	// rewrote the recipe) and missing path all lose with a typed
	// conflict.
	if err := d.ReplaceRecipe(ctx, "/f", s+1, r.Gen, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-session replace = %v, want ErrConflict", err)
	}
	if err := d.ReplaceRecipe(ctx, "/f", s, 1, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("stale-generation replace = %v, want ErrConflict", err)
	}
	if err := d.ReplaceRecipe(ctx, "/gone", s, 1, moved); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("missing-path replace = %v, want ErrConflict", err)
	}
}

// TestMembershipOverTCP drives the new ClusterMeta ops through the
// director service wire.
func TestMembershipOverTCP(t *testing.T) {
	ctx := context.Background()
	d := New()
	svc, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r, err := DialRemote(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	m, err := r.SetMembers(ctx, 0, []NodeInfo{{ID: 0, Addr: "x"}})
	if err != nil || m.Epoch != 1 {
		t.Fatalf("SetMembers over TCP = %+v (%v)", m, err)
	}
	if m, err = r.Members(ctx); err != nil || len(m.Nodes) != 1 || m.Nodes[0].Addr != "x" {
		t.Fatalf("Members over TCP = %+v (%v)", m, err)
	}
	id, err := r.BeginMigration(ctx, Migration{Path: "/w", From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	pend, err := r.PendingMigrations(ctx)
	if err != nil || len(pend) != 1 || pend[0].Path != "/w" {
		t.Fatalf("PendingMigrations over TCP = %+v (%v)", pend, err)
	}
	if err := r.EndMigration(ctx, id); err != nil {
		t.Fatal(err)
	}

	s, _ := d.BeginSession(ctx, "c", "")
	if err := d.PutRecipe(ctx, s, "/f", []ChunkEntry{{Size: 1, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	recipes, err := r.Recipes(ctx)
	if err != nil || len(recipes) != 1 || recipes[0].Path != "/f" {
		t.Fatalf("Recipes over TCP = %+v (%v)", recipes, err)
	}
	if err := r.ReplaceRecipe(ctx, "/f", s+9, 1, nil); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("conflict must survive the wire, got %v", err)
	}
	if err := r.ReplaceRecipe(ctx, "/f", s, 1, []ChunkEntry{{Size: 1, Node: 2}}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeIDsNeverReused: the director allocates node IDs. Once node 2
// leaves, NextID stays 3 — in process, after a durable re-open (rebuilt
// from the MEMBERS journal's epoch records) and over the wire — and
// re-admitting 2 fails with a conflict that survives the wire.
func TestNodeIDsNeverReused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := d.Members(ctx); m.NextID != 0 {
		t.Fatalf("fresh director NextID = %d, want 0", m.NextID)
	}
	three := []NodeInfo{{ID: 0}, {ID: 1}, {ID: 2}}
	if _, err := d.SetMembers(ctx, 0, three); err != nil {
		t.Fatal(err)
	}
	m, err := d.SetMembers(ctx, 1, three[:2])
	if err != nil {
		t.Fatal(err)
	}
	if m.NextID != 3 {
		t.Fatalf("NextID after {0,1,2} → {0,1} = %d, want 3", m.NextID)
	}
	if _, err := d.SetMembers(ctx, 2, three); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("re-admitting node 2 = %v, want ErrConflict", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if m, err := d2.Members(ctx); err != nil || m.Epoch != 2 || m.NextID != 3 {
		t.Fatalf("re-opened membership = %+v (%v), want epoch 2, NextID 3", m, err)
	}
	if _, err := d2.SetMembers(ctx, 2, three); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("re-admitting node 2 after re-open = %v, want ErrConflict", err)
	}

	svc, err := Serve(d2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r, err := DialRemote(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m, err := r.Members(ctx); err != nil || m.NextID != 3 {
		t.Fatalf("Members over TCP = %+v (%v), want NextID 3", m, err)
	}
	if _, err := r.SetMembers(ctx, 2, three); !errors.Is(err, sderr.ErrConflict) {
		t.Fatalf("re-admitting node 2 over TCP = %v, want ErrConflict", err)
	}
	m, err = r.SetMembers(ctx, 2, []NodeInfo{{ID: 0}, {ID: 1}, {ID: 3}})
	if err != nil || m.Epoch != 3 || m.NextID != 4 {
		t.Fatalf("admitting NextID over TCP = %+v (%v), want epoch 3, NextID 4", m, err)
	}
}
