package cluster

import (
	"math/rand"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/router"
)

func nodeCfgKeepPayloads() node.Config { return node.Config{KeepPayloads: true} }

// membershipItem builds one payload-carrying backup item of unique
// pseudo-random 4KB chunks.
func membershipItem(seed int64, chunks int) []core.ChunkRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]core.ChunkRef, chunks)
	for i := range refs {
		data := make([]byte, 4096)
		rng.Read(data)
		refs[i] = core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data}
	}
	return refs
}

// backupTracked backs one item up on the default stream and returns
// where its chunks were placed.
func backupTracked(t *testing.T, c *Cluster, id uint64, refs []core.ChunkRef) []director.ChunkEntry {
	t.Helper()
	if err := c.BackupItem(id, refs); err != nil {
		t.Fatal(err)
	}
	return append([]director.ChunkEntry(nil), c.Default().ItemPlacements()...)
}

// grow registers node id and hands the routing layer the next epoch
// with it joined, as the director's commit would.
func grow(t *testing.T, c *Cluster, id int) int {
	t.Helper()
	if err := c.AddNode(id); err != nil {
		t.Fatal(err)
	}
	m := c.Membership()
	if err := c.SetMembership(core.NewMembership(m.Epoch+1, append(m.Nodes, id))); err != nil {
		t.Fatal(err)
	}
	return id
}

func elasticCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Config{
		N:              n,
		Scheme:         router.Sigma,
		TrackRecipes:   true,
		SuperChunkSize: 32 << 10,
		Node:           nodeCfgKeepPayloads(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoutingStabilityOnGrowth is the elastic-routing property test:
// growing N → N+1 nodes moves at most ~1.5/(N+1) of super-chunk
// placements on a re-backup of identical data, and the re-backup still
// dedups ≥ 95% — the membership change does not collapse the dedup
// ratio.
func TestRoutingStabilityOnGrowth(t *testing.T) {
	const (
		n     = 4
		items = 48
	)
	c := elasticCluster(t, n)
	defer c.Close()

	contents := make([][]core.ChunkRef, items)
	for i := range contents {
		contents[i] = membershipItem(int64(100+i), 24) // 96KB → ~3 super-chunks
	}
	before := make([][]director.ChunkEntry, items)
	for i, refs := range contents {
		before[i] = backupTracked(t, c, uint64(1+i), refs)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	physBefore := c.PhysicalBytes()
	logical := c.Stats().LogicalBytes

	grow(t, c, n)
	if got := c.Membership(); got.Epoch != 2 || got.Len() != n+1 {
		t.Fatalf("membership after growth = %+v", got)
	}

	// Re-backup identical content under fresh item IDs.
	after := make([][]director.ChunkEntry, items)
	for i, refs := range contents {
		after[i] = backupTracked(t, c, uint64(1000+i), refs)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Placement churn: chunks whose routed node changed between the two
	// generations.
	var total, moved int
	for i := range contents {
		if len(before[i]) != len(contents[i]) || len(after[i]) != len(contents[i]) {
			t.Fatalf("item %d placements missing or diverged (%d/%d)", i, len(before[i]), len(after[i]))
		}
		for j := range before[i] {
			total++
			if before[i][j].Node != after[i][j].Node {
				moved++
			}
		}
	}
	frac := float64(moved) / float64(total)
	bound := 1.5 / float64(n+1)
	t.Logf("growth churn: %d/%d chunks moved (%.4f), bound %.4f", moved, total, frac, bound)
	if frac > bound {
		t.Fatalf("placement churn %.4f exceeds ~1.5/(N+1) = %.4f", frac, bound)
	}

	// Dedup stability: the identical re-backup must store almost
	// nothing new — within 5% of the pre-change dedup behavior (a
	// pre-change re-backup would store zero).
	newlyStored := c.PhysicalBytes() - physBefore
	if float64(newlyStored) > 0.05*float64(logical) {
		t.Fatalf("re-backup after growth stored %d new bytes of %d logical (> 5%%): dedup ratio collapsed",
			newlyStored, logical)
	}
}

// TestAddNodeReceivesNewData: a joined node is bid into fresh backups
// via the least-loaded fallback.
func TestAddNodeReceivesNewData(t *testing.T) {
	c := elasticCluster(t, 2)
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := c.BackupItem(uint64(1+i), membershipItem(int64(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	id := grow(t, c, 2)
	for i := 0; i < 24; i++ {
		if err := c.BackupItem(uint64(100+i), membershipItem(int64(500+i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	nd, err := c.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if u := nd.StorageUsage(); u == 0 {
		t.Fatal("fresh node received no data from post-join backups")
	}
}

// TestMembershipGuards: the routing layer follows only memberships
// whose every node is registered, registers an ID once, and drops only
// a node outside the membership; a refused change leaves the view as it
// was.
func TestMembershipGuards(t *testing.T) {
	c, err := New(Config{N: 2, Scheme: router.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := c.Membership()
	if err := c.SetMembership(core.NewMembership(2, []int{0, 1, 2})); err == nil {
		t.Fatal("SetMembership must refuse an unregistered member")
	}
	if err := c.AddNode(1); err == nil {
		t.Fatal("AddNode must refuse an ID already registered")
	}
	if err := c.DropNode(1); err == nil {
		t.Fatal("DropNode must refuse a member")
	}
	if got := c.Membership(); got.Epoch != before.Epoch || got.Len() != before.Len() {
		t.Fatalf("a refused change moved the view: %+v → %+v", before, got)
	}
	if err := c.SetMembership(core.NewMembership(2, []int{0})); err != nil {
		t.Fatal(err)
	}
	if err := c.DropNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); err == nil {
		t.Fatal("KillNode must refuse an unregistered node")
	}
}
