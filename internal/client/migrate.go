// Migrator: the recipe-driven super-chunk migration engine behind online
// membership changes, on both deployments. It streams container
// contents node to node over the migration verbs (OpMigrateRead / OpMigrateWrite
// / OpMigrateCommit), re-registers references and similarity-index
// entries on the target, and releases the source's references only
// after the director's fsynced commit record — the recipe rewrite —
// has landed. Every transaction is journaled begin/end in the
// director's MEMBERS journal, so a crash at any stage is recoverable:
// Recover reconciles the involved chunks' per-node reference counts
// against the recipe catalog and converges to old-or-new placement
// with zero leaked references (see package migrate for the protocol).
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/sderr"
)

// MigrateStream is the node stream that receives migrated segments.
const MigrateStream = "\x00migrate"

// Migrator drives super-chunk migration over a set of node connections
// and the director's membership/recipe metadata. Not safe for
// concurrent use; run one membership change at a time.
type Migrator struct {
	// Meta is the director's membership/migration surface.
	Meta director.ClusterMeta
	// Conns resolves a node's stable cluster ID to a connection. It must
	// cover every node a migration touches — including a node being
	// drained, which has already left the membership epoch.
	Conns map[int]NodeConn
	// HandprintK sizes segment handprints for target selection (default
	// core.DefaultHandprintSize).
	HandprintK int
	// Fault is the crash-injection hook (tests; see migrate.Stage).
	Fault migrate.Fault
}

func (m *Migrator) k() int {
	if m.HandprintK > 0 {
		return m.HandprintK
	}
	return core.DefaultHandprintSize
}

func (m *Migrator) faultAt(stage migrate.Stage, path string) error {
	if m.Fault != nil {
		return m.Fault(stage, path)
	}
	return nil
}

func (m *Migrator) conn(id int) (NodeConn, error) {
	c := m.Conns[id]
	if c == nil {
		return nil, fmt.Errorf("client: migrator has no connection to node %d", id)
	}
	return c, nil
}

// DrainNode migrates every recipe segment placed on node id to a
// surviving member chosen by similarity bids, leaving the node with no
// recipe references. members must already exclude the node.
func (m *Migrator) DrainNode(ctx context.Context, id int, members core.Membership) (migrate.Result, error) {
	var res migrate.Result
	// Clear replica attributions off the departing node before the drain
	// (clear-then-decref: a crash in between strands surplus references
	// that anti-entropy repair releases, never dangling attributions).
	// Repair restores R=2 for the affected runs on the survivors.
	if err := m.stripReplicas(ctx, id); err != nil {
		return res, err
	}
	// Each backup counts once no matter how many passes move pieces of
	// it.
	touched := make(map[string]struct{})
	for pass := 0; ; pass++ {
		recipes, err := m.Meta.Recipes(ctx)
		if err != nil {
			return res, err
		}
		clean := true
		for _, r := range recipes {
			moved, err := m.drainRecipe(ctx, r, id, members)
			res.Add(moved)
			if err != nil {
				return res, err
			}
			if moved.Segments > 0 {
				clean = false
				touched[r.Path] = struct{}{}
			}
		}
		if clean {
			res.Backups = len(touched)
			return res, nil
		}
		if pass >= 8 {
			res.Backups = len(touched)
			return res, fmt.Errorf("client: node %d keeps receiving traffic; quiesce backup sessions before removing it", id)
		}
	}
}

// drainRecipe moves every segment of one recipe off node from.
func (m *Migrator) drainRecipe(ctx context.Context, r director.Recipe, from int, members core.Membership) (migrate.Result, error) {
	var res migrate.Result
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		segs := recipeSegments(r.Chunks, from)
		if len(segs) == 0 {
			return res, nil
		}
		seg := segs[0]
		to, err := m.pickTarget(ctx, r.Chunks[seg.Start:seg.Start+seg.Count], from, members)
		if err != nil {
			return res, err
		}
		updated, n, bytes, err := m.migrateSegment(ctx, r, seg, from, to)
		if errors.Is(err, sderr.ErrConflict) {
			// The recipe changed hands under us (re-backup or delete): the
			// newer generation wins, this recipe snapshot is dead. The
			// next drain pass re-reads the catalog.
			return res, nil
		}
		if err != nil {
			return res, err
		}
		r = updated
		res.Segments++
		res.Chunks += int64(n)
		res.Bytes += bytes
	}
}

// Rebalance migrates segments from members above the cluster's mean
// usage onto underloaded rendezvous owners (typically a freshly added
// node). One pass. A segment moves to the rendezvous owner of its
// representative fingerprint when that owner sits below the mean and
// the segment's home above it: the owner is by construction one of the
// segment's routing candidates, and the migrated similarity-index
// entries make it win their bids, so placement stays discoverable.
func (m *Migrator) Rebalance(ctx context.Context, members core.Membership) (migrate.Result, error) {
	var res migrate.Result
	if members.Len() < 2 {
		return res, nil
	}
	usage := make(map[int]int64, members.Len())
	var total int64
	for _, id := range members.Nodes {
		conn, err := m.conn(id)
		if err != nil {
			return res, err
		}
		_, u, err := conn.Stats(ctx)
		if err != nil {
			return res, fmt.Errorf("client: rebalance: stats node %d: %w", id, err)
		}
		usage[id] = u
		total += u
	}
	mean := total / int64(members.Len())

	recipes, err := m.Meta.Recipes(ctx)
	if err != nil {
		return res, err
	}
	for _, r := range recipes {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		touched := false
		// Plan, then move: positions are stable under migration (only the
		// Node attribution changes), so plans stay valid as earlier
		// segments of the same recipe move.
		i := 0
		for i < len(r.Chunks) {
			from := int(r.Chunks[i].Node)
			start := i
			var segBytes int64
			for i < len(r.Chunks) && int(r.Chunks[i].Node) == from && i-start < migrate.DefaultSegmentChunks {
				segBytes += int64(r.Chunks[i].Size)
				i++
			}
			if !migrate.Overloaded(usage[from], mean) || !members.Contains(from) {
				continue
			}
			seg := migrate.Segment{Start: start, Count: i - start}
			fps := make([]fingerprint.Fingerprint, seg.Count)
			for j := 0; j < seg.Count; j++ {
				fps[j] = r.Chunks[seg.Start+j].FP
			}
			owner := members.Owner(core.NewHandprint(fps, m.k())[0])
			if owner == from || !migrate.Underloaded(usage[owner], mean) {
				continue
			}
			updated, n, bytes, err := m.migrateSegment(ctx, r, seg, from, owner)
			if errors.Is(err, sderr.ErrConflict) {
				break // recipe superseded mid-pass; skip its remainder
			}
			if err != nil {
				return res, err
			}
			r = updated
			usage[from] -= segBytes
			usage[owner] += segBytes
			res.Segments++
			res.Chunks += int64(n)
			res.Bytes += bytes
			touched = true
		}
		if touched {
			res.Backups++
		}
	}
	return res, nil
}

// recipeSegments returns the movable runs of a recipe placed on node.
func recipeSegments(chunks []director.ChunkEntry, node int) []migrate.Segment {
	nodes := make([]int32, len(chunks))
	for i, e := range chunks {
		nodes[i] = e.Node
	}
	return migrate.Segments(nodes, int32(node), 0)
}

// pickTarget selects a migration target for one segment: similarity
// bids among the segment's epoch candidates (excluding the source),
// least-loaded fallback — Algorithm 1 restricted to the survivors.
func (m *Migrator) pickTarget(ctx context.Context, entries []director.ChunkEntry, from int, members core.Membership) (int, error) {
	fps := make([]fingerprint.Fingerprint, len(entries))
	for i, e := range entries {
		fps[i] = e.FP
	}
	hp := core.NewHandprint(fps, m.k())
	var seed uint64
	if len(fps) > 0 {
		seed = fps[0].Uint64()
	}
	cands := members.Without(from).Candidates(hp, seed)
	if len(cands) == 0 {
		cands = members.Without(from).Nodes
	}
	counts := make([]int, len(cands))
	usage := make([]int64, len(cands))
	for i, cand := range cands {
		conn, err := m.conn(cand)
		if err != nil {
			return 0, err
		}
		if counts[i], usage[i], err = conn.Bid(ctx, hp); err != nil {
			return 0, fmt.Errorf("client: migration bid node %d: %w", cand, err)
		}
	}
	return core.SelectTarget(cands, counts, usage).Node, nil
}

// migrateSegment moves one recipe segment from → to under the commit
// protocol and returns the recipe as rewritten. A recipe that changed
// hands concurrently fails with sderr.ErrConflict after rolling the
// target's references back.
func (m *Migrator) migrateSegment(ctx context.Context, r director.Recipe, seg migrate.Segment, from, to int) (director.Recipe, int, int64, error) {
	fromConn, err := m.conn(from)
	if err != nil {
		return r, 0, 0, err
	}
	toConn, err := m.conn(to)
	if err != nil {
		return r, 0, 0, err
	}
	entries := r.Chunks[seg.Start : seg.Start+seg.Count]
	fps := make([]fingerprint.Fingerprint, len(entries))
	for i, e := range entries {
		fps[i] = e.FP
	}

	// Open the transaction: fsynced in the director's MEMBERS journal
	// before any byte lands on the target.
	migID, err := m.Meta.BeginMigration(ctx, director.Migration{
		Path: r.Path, From: int32(from), To: int32(to),
		Start: seg.Start, Count: seg.Count, FPs: fps,
	})
	if err != nil {
		return r, 0, 0, err
	}

	// Stream the payloads off the source container store.
	datas, err := fromConn.MigrateRead(ctx, fps)
	if err != nil {
		return r, 0, 0, fmt.Errorf("client: migrate %s: read node %d: %w", r.Path, from, err)
	}
	if err := m.faultAt(migrate.StageRead, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Store on the target through the dedup path: references taken,
	// similarity-index entries registered.
	sc := &core.SuperChunk{}
	var bytes int64
	for i, e := range entries {
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: e.FP, Size: int(e.Size), Data: datas[i]})
		bytes += int64(e.Size)
	}
	if err := toConn.MigrateWrite(ctx, MigrateStream, sc); err != nil {
		return r, 0, 0, fmt.Errorf("client: migrate %s: write node %d: %w", r.Path, to, err)
	}
	if err := m.faultAt(migrate.StageStored, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Commit the target: the migration stream's container seals and the
	// manifest fsyncs — durable without touching concurrent streams.
	if err := toConn.MigrateCommit(ctx, MigrateStream); err != nil {
		return r, 0, 0, fmt.Errorf("client: migrate %s: commit node %d: %w", r.Path, to, err)
	}
	if err := m.faultAt(migrate.StageCommitted, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Repoint the recipe — THE commit point, conditional on the exact
	// session AND generation we planned from: any concurrent rewrite
	// (re-backup, delete, another migration) conflicts instead of being
	// silently reverted.
	updated := director.Recipe{Path: r.Path, Session: r.Session, Gen: r.Gen + 1,
		Chunks: make([]director.ChunkEntry, len(r.Chunks))}
	copy(updated.Chunks, r.Chunks)
	var dupFPs []fingerprint.Fingerprint
	for i := seg.Start; i < seg.Start+seg.Count; i++ {
		updated.Chunks[i].Node = int32(to)
		// A segment migrating onto the node that already holds its replica
		// collapses to one attribution: clear the replica (repair restores
		// R=2 elsewhere) and remember the now-duplicate reference.
		if updated.Chunks[i].Replica == int32(to) {
			updated.Chunks[i].Replica = -1
			dupFPs = append(dupFPs, updated.Chunks[i].FP)
		}
	}
	if err := m.Meta.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, updated.Chunks); err != nil {
		if errors.Is(err, sderr.ErrConflict) {
			// A newer generation owns the path: roll our target refs back
			// and close the transaction clean.
			order, ns := core.AggregateRefs(fps)
			if derr := toConn.DecRef(ctx, order, ns); derr != nil {
				return r, 0, 0, fmt.Errorf("client: migrate %s: roll back node %d: %w", r.Path, to, derr)
			}
			if eerr := m.Meta.EndMigration(ctx, migID); eerr != nil {
				return r, 0, 0, eerr
			}
		}
		return r, 0, 0, err
	}
	if err := m.faultAt(migrate.StageUpdated, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Release the source's references; old copies become dead container
	// space for the compactor.
	order, ns := core.AggregateRefs(fps)
	if err := fromConn.DecRef(ctx, order, ns); err != nil {
		return r, 0, 0, fmt.Errorf("client: migrate %s: decref node %d: %w", r.Path, from, err)
	}
	// Release the target's now-duplicate replica references (cleared in
	// the rewrite above; a crash in between strands them as surplus for
	// recovery).
	if len(dupFPs) > 0 {
		order, ns := core.AggregateRefs(dupFPs)
		if err := toConn.DecRef(ctx, order, ns); err != nil {
			return r, 0, 0, fmt.Errorf("client: migrate %s: decref duplicate replicas on node %d: %w", r.Path, to, err)
		}
	}
	if err := m.faultAt(migrate.StageDecreffed, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Close the transaction.
	if err := m.Meta.EndMigration(ctx, migID); err != nil {
		return r, 0, 0, err
	}
	return updated, len(entries), bytes, nil
}

// Recover settles every pending migration transaction in the
// director's journal by reference reconciliation: expected per-node
// counts are recomputed from the recipe catalog, actual counts probed
// over the wire, and exactly the surplus released on each endpoint.
// Idempotent; callers must quiesce backups and other migrations.
func (m *Migrator) Recover(ctx context.Context) error {
	pending, err := m.Meta.PendingMigrations(ctx)
	if err != nil {
		return err
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	for _, mig := range pending {
		if err := m.reconcile(ctx, mig); err != nil {
			return err
		}
		if err := m.Meta.EndMigration(ctx, mig.ID); err != nil {
			return err
		}
	}
	return nil
}

// reconcile erases one half-done migration's stranded references on
// both endpoints (the shared migrate.Reconcile algorithm over the
// director's recipe catalog and the node RPC verbs).
func (m *Migrator) reconcile(ctx context.Context, mig director.Migration) error {
	recipes, err := m.Meta.Recipes(ctx)
	if err != nil {
		return err
	}
	return migrate.Reconcile(mig.FPs, mig.From, mig.To,
		func(want map[fingerprint.Fingerprint]struct{}) map[int32]map[fingerprint.Fingerprint]int64 {
			expected := map[int32]map[fingerprint.Fingerprint]int64{mig.From: {}, mig.To: {}}
			for _, r := range recipes {
				for _, e := range r.Chunks {
					if _, wanted := want[e.FP]; !wanted {
						continue
					}
					if exp, ok := expected[e.Node]; ok {
						exp[e.FP]++
					}
					// Replica attributions hold references too: a crashed
					// replication either set the attribution (the reference
					// counts) or didn't (it reads as surplus and is released).
					if e.Replica >= 0 {
						if exp, ok := expected[e.Replica]; ok {
							exp[e.FP]++
						}
					}
				}
			}
			return expected
		},
		func(node int32, fps []fingerprint.Fingerprint) ([]int64, bool, error) {
			conn := m.Conns[int(node)]
			if conn == nil {
				return nil, false, nil // endpoint already gone; its refs went with it
			}
			actual, err := conn.RefCounts(ctx, fps)
			if err != nil {
				return nil, false, fmt.Errorf("client: recover migration %d: node %d: %w", mig.ID, node, err)
			}
			return actual, true, nil
		},
		func(node int32, fps []fingerprint.Fingerprint, ns []int64) error {
			if err := m.Conns[int(node)].DecRef(ctx, fps, ns); err != nil {
				return fmt.Errorf("client: recover migration %d: node %d: %w", mig.ID, node, err)
			}
			return nil
		})
}
