package sigmadedupe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/tenant"
)

// elasticSim builds a payload-carrying simulator and backs up items
// named /item<i> of 96KB each (seeded by seed+i), flushed.
func elasticSim(t *testing.T, nodes, items int, seed int64) (*Cluster, [][]byte) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Nodes: nodes, KeepPayloads: true, SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	contents := make([][]byte, items)
	for i := range contents {
		contents[i] = make([]byte, 96<<10)
		rand.New(rand.NewSource(seed + int64(i))).Read(contents[i])
		if err := c.Backup(ctx, fmt.Sprintf("/item%d", i), bytes.NewReader(contents[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return c, contents
}

// checkRestoreAll restores every item byte for byte.
func checkRestoreAll(t *testing.T, c *Cluster, contents [][]byte, when string) {
	t.Helper()
	for i, want := range contents {
		var out bytes.Buffer
		if err := c.Restore(context.Background(), fmt.Sprintf("/item%d", i), &out); err != nil {
			t.Fatalf("restore item %d %s: %v", i, when, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("item %d corrupted %s", i, when)
		}
	}
}

// checkNoLeaks deletes every item and compacts: nothing may stay live.
func checkNoLeaks(t *testing.T, c *Cluster, items int, when string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < items; i++ {
		if err := c.Delete(ctx, fmt.Sprintf("/item%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Compact(ctx, 0.999); err != nil {
		t.Fatal(err)
	}
	if gc := c.GCStats(); gc.LiveBytes != 0 {
		t.Fatalf("live bytes = %d after deleting every backup %s; references leaked", gc.LiveBytes, when)
	}
}

func pendingMigrations(t *testing.T, c *Cluster) int {
	t.Helper()
	pending, err := c.dir.PendingMigrations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return len(pending)
}

// TestRemoveNodeMigratesAndRestores: RemoveNode drains every placement
// off the node in both the routing epoch and the recipe catalog, all
// backups restore byte-identically, and deleting everything afterwards
// leaves zero live bytes — no reference leaked by the migration.
func TestRemoveNodeMigratesAndRestores(t *testing.T) {
	const items = 12
	c, contents := elasticSim(t, 3, items, 9000)
	res, err := c.RemoveNode(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.inner.Membership(); got.Len() != 2 || got.Contains(1) {
		t.Fatalf("routing membership after RemoveNode = %+v", got)
	}
	// Some data lived on node 1 (3 nodes, 12 items); it must have moved.
	if res.SuperChunks == 0 || res.Bytes == 0 {
		t.Fatalf("RemoveNode moved nothing: %+v", res)
	}
	recipes, err := c.dir.Recipes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) != items {
		t.Fatalf("%d recipes after RemoveNode, want %d", len(recipes), items)
	}
	for _, r := range recipes {
		for _, e := range r.Chunks {
			if e.Node == 1 {
				t.Fatalf("%s still placed on removed node 1", r.Name())
			}
		}
	}
	checkRestoreAll(t, c, contents, "after RemoveNode")
	checkNoLeaks(t, c, items, "after RemoveNode")
}

// TestRebalanceFillsNewNode: after AddNode, Rebalance moves existing
// segments onto the empty node and the data still restores.
func TestRebalanceFillsNewNode(t *testing.T) {
	const items = 24
	c, contents := elasticSim(t, 3, items, 7000)
	ctx := context.Background()
	id, err := c.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 {
		t.Fatalf("rebalance moved nothing onto the fresh node: %+v", res)
	}
	nd, err := c.inner.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if nd.StorageUsage() == 0 {
		t.Fatal("fresh node still empty after rebalance")
	}
	if n := pendingMigrations(t, c); n != 0 {
		t.Fatalf("%d migrations left pending after a clean rebalance", n)
	}
	checkRestoreAll(t, c, contents, "after rebalance")
}

// TestMigrationFaultLeavesPendingAndRecovers is the in-memory crash
// matrix (TestMigrationCrashFidelity restarts durable nodes instead):
// abort a RemoveNode drain at every stage, verify the transaction stays
// pending, reconcile, and finish the removal — every item restores
// byte-identically and nothing leaks.
func TestMigrationFaultLeavesPendingAndRecovers(t *testing.T) {
	for _, stage := range []migrate.Stage{
		migrate.StageRead, migrate.StageStored, migrate.StageCommitted,
		migrate.StageUpdated, migrate.StageDecreffed,
	} {
		stage := stage
		t.Run(string(stage), func(t *testing.T) {
			const items = 6
			c, contents := elasticSim(t, 3, items, 3000)
			boom := fmt.Errorf("injected crash at %s", stage)
			c.setMigrateFault(func(s migrate.Stage, _ string) error {
				if s == stage {
					return boom
				}
				return nil
			})
			if _, err := c.RemoveNode(context.Background(), 2); err == nil {
				t.Fatal("fault did not abort the removal")
			}
			if pendingMigrations(t, c) == 0 && stage != migrate.StageDecreffed {
				// The decreffed stage aborts after the whole protocol ran;
				// earlier stages must leave the transaction open.
				t.Fatalf("no pending migration after crash at %s", stage)
			}

			// Recover and retry without the fault: removal completes.
			c.setMigrateFault(nil)
			if err := c.RecoverMigrations(); err != nil {
				t.Fatal(err)
			}
			if n := pendingMigrations(t, c); n != 0 {
				t.Fatalf("recovery left %d transactions pending", n)
			}
			if _, err := c.RemoveNode(context.Background(), 2); err != nil {
				t.Fatalf("retry after recovery: %v", err)
			}
			checkRestoreAll(t, c, contents, "across crash at "+string(stage))
			checkNoLeaks(t, c, items, "across crash at "+string(stage))
		})
	}
}

// TestMigrationGuards: chunk-moving membership verbs need the Sigma
// scheme and payload-carrying nodes. RemoveNode, Rebalance and Repair
// refuse on a metadata-only cluster and on a baseline scheme.
func TestMigrationGuards(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range map[string]ClusterConfig{
		"no payloads":    {Nodes: 2},
		"non-sigma":      {Nodes: 2, KeepPayloads: true, Scheme: SchemeStateless},
		"non-sigma+none": {Nodes: 2, Scheme: SchemeStateful},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.RemoveNode(ctx, 1); err == nil {
				t.Error("RemoveNode must fail")
			}
			if _, err := c.Rebalance(ctx); err == nil {
				t.Error("Rebalance must fail")
			}
			if _, err := c.Repair(ctx); err == nil {
				t.Error("Repair must fail")
			}
			if st, err := c.Stats(ctx); err != nil || st.Nodes != 2 {
				t.Errorf("a refused verb changed the membership: %+v, %v", st, err)
			}
		})
	}
}

// TestKillNodeKeepsUnflushedBackups: a node dies before the default
// stream's Flush. Every unflushed backup whose chunks all sit on
// surviving nodes still restores. With R=2, an unflushed backup that
// kept a chunk only on the dead node is withdrawn (it can neither
// restore nor be repaired), so Repair converges and nothing leaks;
// with R=0 single-copy recipes are kept as they are.
func TestKillNodeKeepsUnflushedBackups(t *testing.T) {
	for _, replicas := range []int{0, 2} {
		t.Run(fmt.Sprintf("R%d", replicas), func(t *testing.T) {
			ctx := context.Background()
			c, err := NewCluster(ClusterConfig{
				Nodes: 3, KeepPayloads: true, SuperChunkSize: 32 << 10, Replicas: replicas,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// One super-chunk per backup: each lands on a single node.
			// Back up until some land on the victim and some elsewhere.
			content := make(map[string][]byte)
			nodesOf := make(map[string]map[int32]bool)
			victim := int32(-1)
			var onVictim, elsewhere []string
			for i := 0; i < 40 && (len(onVictim) == 0 || len(elsewhere) < 2); i++ {
				name := fmt.Sprintf("/unflushed/f%d", i)
				data := make([]byte, 24<<10)
				rand.New(rand.NewSource(int64(500 + i))).Read(data)
				if err := c.Backup(ctx, name, bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
				r, err := c.dir.GetRecipe(ctx, tenant.Key(tenant.Default, name))
				if err != nil {
					t.Fatalf("backup %s committed no recipe: %v", name, err)
				}
				content[name] = data
				nodesOf[name] = make(map[int32]bool)
				for _, e := range r.Chunks {
					nodesOf[name][e.Node] = true
				}
				if victim < 0 {
					victim = r.Chunks[0].Node
				}
				if nodesOf[name][victim] {
					onVictim = append(onVictim, name)
				} else {
					elsewhere = append(elsewhere, name)
				}
			}
			if len(elsewhere) == 0 {
				t.Fatal("every backup landed on one node; the test needs some elsewhere")
			}

			if err := c.KillNode(ctx, int(victim)); err != nil {
				t.Fatal(err)
			}
			// Seal the survivors' open containers so restores can read
			// them; the killed client has nothing left to flush.
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			for _, name := range elsewhere {
				var out bytes.Buffer
				if err := c.Restore(ctx, name, &out); err != nil {
					t.Fatalf("restore %s (no chunk on the dead node): %v", name, err)
				}
				if !bytes.Equal(out.Bytes(), content[name]) {
					t.Fatalf("%s corrupted across the kill", name)
				}
			}
			if replicas < 2 {
				for _, name := range onVictim {
					if _, err := c.dir.GetRecipe(ctx, tenant.Key(tenant.Default, name)); err != nil {
						t.Fatalf("single-copy recipe %s was dropped: %v", name, err)
					}
				}
				return
			}
			for _, name := range onVictim {
				if err := c.Restore(ctx, name, &bytes.Buffer{}); !errors.Is(err, ErrNotFound) {
					t.Fatalf("restore %s (only copy on the dead node) = %v, want ErrNotFound", name, err)
				}
			}
			if _, err := c.Repair(ctx); err != nil {
				t.Fatalf("repair after killing a node under unflushed backups: %v", err)
			}
			for _, name := range elsewhere {
				if err := c.Delete(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Compact(ctx, 0.999); err != nil {
				t.Fatal(err)
			}
			if gc := c.GCStats(); gc.LiveBytes != 0 {
				t.Fatalf("live bytes = %d after deleting every backup; the kill leaked references", gc.LiveBytes)
			}
		})
	}
}

// checkRoutingFollowsDirector fails unless the routing layer's
// membership — epoch and node IDs — is the director's committed one.
func checkRoutingFollowsDirector(t *testing.T, c *Cluster, when string) {
	t.Helper()
	m, err := c.dir.Members(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.inner.Membership(); got.Epoch != m.Epoch || !slices.Equal(got.Nodes, m.IDs()) {
		t.Fatalf("%s: routing membership epoch %d %v, director epoch %d %v",
			when, got.Epoch, got.Nodes, m.Epoch, m.IDs())
	}
}

// TestRoutingFollowsDirectorMembership: the director is the only
// membership authority. After every membership verb — a failed drain
// included — routing runs on exactly the director's epoch and IDs.
func TestRoutingFollowsDirectorMembership(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Nodes: 3, Dir: t.TempDir(), SuperChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	contents := make([][]byte, 12)
	for i := range contents {
		contents[i] = make([]byte, 96<<10)
		rand.New(rand.NewSource(int64(12000 + i))).Read(contents[i])
		if err := c.Backup(ctx, fmt.Sprintf("/item%d", i), bytes.NewReader(contents[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "at start")

	if _, err := c.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "after AddNode")
	if _, err := c.RemoveNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "after RemoveNode")

	c.setMigrateFault(func(migrate.Stage, string) error { return errors.New("injected drain failure") })
	if _, err := c.RemoveNode(ctx, 1); err == nil {
		t.Fatal("the injected fault did not fail the drain")
	}
	checkRoutingFollowsDirector(t, c, "after a failed RemoveNode")
	c.setMigrateFault(nil)
	if err := c.RecoverMigrations(); err != nil {
		t.Fatal(err)
	}

	if err := c.KillNode(ctx, 2); err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "after KillNode")
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "after RestartNode")
}

// TestMembershipVerbGuards: the simulator refuses membership changes
// under a baseline scheme, and refuses to remove or kill the last
// member; a refused verb leaves routing on the director's membership.
func TestMembershipVerbGuards(t *testing.T) {
	ctx := context.Background()
	base, err := NewCluster(ClusterConfig{Nodes: 2, Scheme: SchemeStateless})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if _, err := base.AddNode(ctx, ""); err == nil {
		t.Fatal("AddNode must require SchemeSigma")
	}
	checkRoutingFollowsDirector(t, base, "after a refused AddNode")

	c, err := NewCluster(ClusterConfig{Nodes: 2, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RemoveNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveNode(ctx, 1); err == nil {
		t.Fatal("removing the last member must fail")
	}
	if err := c.KillNode(ctx, 1); err == nil {
		t.Fatal("killing the last member must fail")
	}
	checkRoutingFollowsDirector(t, c, "after refused removals")
}

// gatedReader serves data but stops after the first half: it signals
// reached and blocks until release is closed.
type gatedReader struct {
	data             []byte
	off, half        int
	reached, release chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.off == g.half {
		close(g.reached)
		<-g.release
		g.half = -1
	}
	if g.off >= len(g.data) {
		return 0, io.EOF
	}
	end := len(g.data)
	if g.half > g.off && g.half < end {
		end = g.half
	}
	n := copy(p, g.data[g.off:end])
	g.off += n
	return n, nil
}

// TestRemoveNodeWaitsForBackups: RemoveNode is exclusive with backups.
// While an explicit session's Backup is blocked mid-stream on its
// reader, RemoveNode does not return; once the backup finishes, the
// removal drains the node and the backup restores byte-identically.
func TestRemoveNodeWaitsForBackups(t *testing.T) {
	ctx := context.Background()
	c, contents := elasticSim(t, 3, 6, 11000)
	sess, err := c.NewSession(ctx, WithSessionName("held"), WithSuperChunkSize(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(11500)).Read(data)
	r := &gatedReader{data: data, half: 128 << 10, reached: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(r.release) }) }
	defer release()
	backupDone := make(chan error, 1)
	go func() { backupDone <- sess.Backup(ctx, "/held", r) }()
	<-r.reached

	removeDone := make(chan error, 1)
	go func() {
		_, err := c.RemoveNode(ctx, 1)
		removeDone <- err
	}()
	select {
	case err := <-removeDone:
		t.Fatalf("RemoveNode returned (%v) while a backup was mid-stream", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-backupDone; err != nil {
		t.Fatal(err)
	}
	if err := <-removeDone; err != nil {
		t.Fatal(err)
	}
	checkRoutingFollowsDirector(t, c, "after RemoveNode")
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := c.Restore(ctx, "/held", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("the backup RemoveNode waited for did not restore byte-identically")
	}
	checkRestoreAll(t, c, contents, "after RemoveNode")
}
