// R=2 replication and anti-entropy repair, shared by both deployments
// (node connections over the wire or in process).
//
// Replication is migration that doesn't decref the source. A recipe run
// replicates by streaming its payloads off the primary (OpMigrateRead),
// storing them on the rendezvous replica owner through the migration
// stream (OpMigrateWrite), sealing that stream (OpMigrateCommit) and
// then rewriting the recipe's replica attribution with the same
// conditional ReplaceRecipe that commits migrations. Every run is
// journaled begin/end in the director's MEMBERS journal, so a crash at
// any stage is recoverable by the same reference reconciliation as a
// half-done migration: the replica's references either have a recipe
// attribution accounting for them or they read as surplus and are
// released.
package client

import (
	"context"
	"errors"
	"fmt"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/migrate"
	"sigmadedupe/internal/sderr"
)

// ReplicateRecipe gives every replica-less run of one recipe a second
// copy on the rendezvous replica owner of the run's first fingerprint.
// Runs are bounded at migrate.DefaultSegmentChunks so a huge backup
// replicates in bounded-memory units. A recipe superseded mid-pass
// (re-backup, delete) stops cleanly: the newer generation wins.
func (m *Migrator) ReplicateRecipe(ctx context.Context, r director.Recipe, members core.Membership) (migrate.RepairResult, error) {
	var res migrate.RepairResult
	if members.Len() < 2 {
		return res, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		seg, primary := nextReplicaRun(r.Chunks)
		if seg.Count == 0 {
			return res, nil
		}
		replica := members.ReplicaTarget(r.Chunks[seg.Start].FP, primary)
		if replica < 0 {
			return res, nil
		}
		updated, n, bytes, err := m.replicateSegment(ctx, r, seg, primary, replica)
		if errors.Is(err, sderr.ErrConflict) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		r = updated
		res.Rereplicated += int64(n)
		res.Bytes += bytes
	}
}

// nextReplicaRun finds the first maximal same-primary run of entries
// without a replica, bounded at migrate.DefaultSegmentChunks.
func nextReplicaRun(chunks []director.ChunkEntry) (migrate.Segment, int) {
	start := -1
	primary := 0
	for i, e := range chunks {
		if e.Replica < 0 {
			start, primary = i, int(e.Node)
			break
		}
	}
	if start < 0 {
		return migrate.Segment{}, 0
	}
	end := start
	for end < len(chunks) && chunks[end].Replica < 0 && int(chunks[end].Node) == primary &&
		end-start < migrate.DefaultSegmentChunks {
		end++
	}
	return migrate.Segment{Start: start, Count: end - start}, primary
}

// replicateSegment copies one recipe run onto node to under the
// journaled commit protocol — migrateSegment without the source decref —
// and returns the recipe as rewritten. A recipe that changed hands
// concurrently fails with sderr.ErrConflict after rolling the replica's
// references back.
func (m *Migrator) replicateSegment(ctx context.Context, r director.Recipe, seg migrate.Segment, from, to int) (director.Recipe, int, int64, error) {
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
	// before any byte lands on the replica.
	migID, err := m.Meta.BeginMigration(ctx, director.Migration{
		Path: r.Path, From: int32(from), To: int32(to),
		Start: seg.Start, Count: seg.Count, FPs: fps,
	})
	if err != nil {
		return r, 0, 0, err
	}

	// Stream the payloads off the primary's container store.
	datas, err := fromConn.MigrateRead(ctx, fps)
	if err != nil {
		return r, 0, 0, fmt.Errorf("client: replicate %s: read node %d: %w", r.Path, from, err)
	}
	if err := m.faultAt(migrate.StageRead, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Store on the replica through the dedup path: references taken,
	// similarity-index entries registered (the replica wins future bids
	// for this run's neighborhood too).
	sc := &core.SuperChunk{}
	var bytes int64
	for i, e := range entries {
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: e.FP, Size: int(e.Size), Data: datas[i]})
		bytes += int64(e.Size)
	}
	if err := toConn.MigrateWrite(ctx, MigrateStream, sc); err != nil {
		return r, 0, 0, fmt.Errorf("client: replicate %s: write node %d: %w", r.Path, to, err)
	}
	if err := m.faultAt(migrate.StageStored, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Commit the replica: seal the migration stream's container, fsync
	// the manifest — the second copy is durable before it is attributed.
	if err := toConn.MigrateCommit(ctx, MigrateStream); err != nil {
		return r, 0, 0, fmt.Errorf("client: replicate %s: commit node %d: %w", r.Path, to, err)
	}
	if err := m.faultAt(migrate.StageCommitted, r.Path); err != nil {
		return r, 0, 0, err
	}

	// Attribute the replica — THE commit point, conditional on the exact
	// session AND generation we planned from.
	updated := director.Recipe{Path: r.Path, Session: r.Session, Gen: r.Gen + 1,
		Chunks: make([]director.ChunkEntry, len(r.Chunks))}
	copy(updated.Chunks, r.Chunks)
	for i := seg.Start; i < seg.Start+seg.Count; i++ {
		updated.Chunks[i].Replica = int32(to)
	}
	if err := m.Meta.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, updated.Chunks); err != nil {
		if errors.Is(err, sderr.ErrConflict) {
			// A newer generation owns the path: roll our replica refs back
			// and close the transaction clean.
			order, ns := core.AggregateRefs(fps)
			if derr := toConn.DecRef(ctx, order, ns); derr != nil {
				return r, 0, 0, fmt.Errorf("client: replicate %s: roll back node %d: %w", r.Path, to, derr)
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

	// Close the transaction. No source decref: that is the one line that
	// separates replication from migration.
	if err := m.Meta.EndMigration(ctx, migID); err != nil {
		return r, 0, 0, err
	}
	return updated, len(entries), bytes, nil
}

// stripReplicas clears every replica attribution pointing at node id
// and releases the corresponding references there. Attribution clears
// before the decref so no recipe ever points at references that are
// gone — the failure mode is a leak, and leaks are what Repair's
// reconciliation exists to erase.
func (m *Migrator) stripReplicas(ctx context.Context, id int) error {
	recipes, err := m.Meta.Recipes(ctx)
	if err != nil {
		return err
	}
	var fps []fingerprint.Fingerprint
	for _, r := range recipes {
		var mine []fingerprint.Fingerprint
		updated := make([]director.ChunkEntry, len(r.Chunks))
		copy(updated, r.Chunks)
		for i := range updated {
			if updated[i].Replica == int32(id) {
				mine = append(mine, updated[i].FP)
				updated[i].Replica = -1
			}
		}
		if len(mine) == 0 {
			continue
		}
		if err := m.Meta.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, updated); err != nil {
			if errors.Is(err, sderr.ErrConflict) {
				continue // superseded under us; the newer generation wins
			}
			return err
		}
		fps = append(fps, mine...)
	}
	if len(fps) == 0 {
		return nil
	}
	conn, err := m.conn(id)
	if err != nil {
		return err
	}
	order, ns := core.AggregateRefs(fps)
	if err := conn.DecRef(ctx, order, ns); err != nil {
		return fmt.Errorf("client: strip replicas off node %d: %w", id, err)
	}
	return nil
}

// Repair is the anti-entropy pass: settle crash-leftover transactions,
// promote replicas of dead primaries, re-replicate under-replicated
// runs, and release every reference the recipe catalog does not account
// for. members is the
// post-crash epoch (the dead node already removed). Idempotent; callers
// must quiesce backups, deletes and membership changes first. Fails if
// any chunk lost both of its copies.
func (m *Migrator) Repair(ctx context.Context, members core.Membership) (migrate.RepairResult, error) {
	var res migrate.RepairResult

	// Phase 0: settle pending transactions so surplus from half-done
	// replication or migration is gone before counts are compared.
	if err := m.Recover(ctx); err != nil {
		return res, err
	}

	// Phase 1: promotion. A dead primary's entries swing to their live
	// replica; a dead replica's attribution clears so phase 2 re-covers
	// it.
	recipes, err := m.Meta.Recipes(ctx)
	if err != nil {
		return res, err
	}
	for _, r := range recipes {
		updated := make([]director.ChunkEntry, len(r.Chunks))
		copy(updated, r.Chunks)
		var promoted int64
		changed := false
		for i := range updated {
			e := &updated[i]
			if !members.Contains(int(e.Node)) {
				if e.Replica < 0 || !members.Contains(int(e.Replica)) {
					return res, fmt.Errorf("client: repair %s: chunk %s lost primary and replica: %w",
						r.Path, e.FP.Short(), sderr.ErrNotFound)
				}
				e.Node, e.Replica = e.Replica, -1
				promoted++
				changed = true
			} else if e.Replica >= 0 && !members.Contains(int(e.Replica)) {
				e.Replica = -1
				changed = true
			}
		}
		if !changed {
			continue
		}
		if err := m.Meta.ReplaceRecipe(ctx, r.Path, r.Session, r.Gen, updated); err != nil {
			if errors.Is(err, sderr.ErrConflict) {
				continue // superseded under us; rerun repair once quiesced
			}
			return res, err
		}
		res.Promoted += promoted
	}

	// Phase 2: re-replication of every run still missing its second copy
	// (a fresh catalog read picks up phase 1's rewrites).
	if members.Len() >= 2 {
		recipes, err = m.Meta.Recipes(ctx)
		if err != nil {
			return res, err
		}
		for _, r := range recipes {
			rr, err := m.ReplicateRecipe(ctx, r, members)
			if err != nil {
				return res, err
			}
			res.Rereplicated += rr.Rereplicated
			res.Bytes += rr.Bytes
		}
	}

	// Phase 3: global reconciliation — every live node's reference
	// counts over the full catalog fingerprint universe against what
	// primary + replica attributions account for; exactly the surplus is
	// released.
	released, err := m.reconcileAll(ctx, members)
	res.ReleasedRefs = released
	return res, err
}

// reconcileAll is the global form of the per-transaction reconcile: it
// catches strands no journal record points at (a killed node's
// promoted-away primaries, clear-then-decref orderings interrupted
// mid-way). Assumes a fully tracked catalog — recipes are the sole
// source of references.
func (m *Migrator) reconcileAll(ctx context.Context, members core.Membership) (int64, error) {
	recipes, err := m.Meta.Recipes(ctx)
	if err != nil {
		return 0, err
	}
	expected := make(map[int]map[fingerprint.Fingerprint]int64, members.Len())
	seen := make(map[fingerprint.Fingerprint]struct{})
	var uniq []fingerprint.Fingerprint
	add := func(node int, fp fingerprint.Fingerprint) {
		byFP := expected[node]
		if byFP == nil {
			byFP = make(map[fingerprint.Fingerprint]int64)
			expected[node] = byFP
		}
		byFP[fp]++
	}
	for _, r := range recipes {
		for _, e := range r.Chunks {
			if _, ok := seen[e.FP]; !ok {
				seen[e.FP] = struct{}{}
				uniq = append(uniq, e.FP)
			}
			add(int(e.Node), e.FP)
			if e.Replica >= 0 {
				add(int(e.Replica), e.FP)
			}
		}
	}
	if len(uniq) == 0 {
		return 0, nil
	}

	var released int64
	for _, id := range members.Nodes {
		if err := ctx.Err(); err != nil {
			return released, err
		}
		conn, err := m.conn(id)
		if err != nil {
			return released, err
		}
		actual, err := conn.RefCounts(ctx, uniq)
		if err != nil {
			return released, fmt.Errorf("client: repair reconcile node %d: %w", id, err)
		}
		exp := make([]int64, len(uniq))
		for i, fp := range uniq {
			exp[i] = expected[id][fp]
		}
		fps, ns := migrate.Surplus(uniq, actual, exp)
		if len(fps) == 0 {
			continue
		}
		if err := conn.DecRef(ctx, fps, ns); err != nil {
			return released, fmt.Errorf("client: repair reconcile node %d: %w", id, err)
		}
		for _, n := range ns {
			released += n
		}
	}
	return released, nil
}
