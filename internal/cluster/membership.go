// Elastic membership for the simulated cluster's routing layer: node
// add, member removal after the grace period, and hard kill. Placement
// changes (drain, rebalance, replication, repair) run on the shared
// migration engine in internal/client over in-process connections; this
// file only keeps the epoch bookkeeping that routing needs.
package cluster

import (
	"context"
	"fmt"
	"time"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/router"
)

// AddNode commits a new membership epoch containing one fresh node and
// returns its ID. The node starts empty: new backups start bidding it
// in immediately (zero-resemblance super-chunks fill the least-loaded
// valley first). Only the Sigma scheme's similarity routing is
// membership-aware.
func (c *Cluster) AddNode() (int, error) {
	if c.cfg.Scheme != router.Sigma {
		return 0, fmt.Errorf("cluster: membership changes require the Sigma routing scheme (have %s)", c.rt.Name())
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	id := c.maxID + 1
	n, err := newClusterNode(c.cfg, id)
	if err != nil {
		return 0, err
	}
	c.maxID = id
	c.nodes[id] = n
	members := c.cur.Load().members
	c.commitEpochLocked(core.NewMembership(members.Epoch+1, append(members.Nodes, id)))
	return id, nil
}

// RemoveMember commits a membership epoch without node id and waits out
// every backup item still pinned to an epoch that contained it, so no
// in-flight item can store another chunk there. The node stays
// registered — reads, decrefs and a drain still reach it — until
// DropNode. A node already outside the epoch (a drain that was
// interrupted) only waits.
func (c *Cluster) RemoveMember(ctx context.Context, id int) error {
	c.memberMu.Lock()
	if c.nodes[id] == nil {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no node %d", id)
	}
	if members := c.cur.Load().members; members.Contains(id) {
		if members.Len() == 1 {
			c.memberMu.Unlock()
			return fmt.Errorf("cluster: cannot remove the last node")
		}
		c.commitEpochLocked(core.NewMembership(members.Epoch+1, members.Without(id).Nodes))
	}
	epoch := c.cur.Load().members.Epoch
	c.memberMu.Unlock()
	return c.waitEpochQuiesce(ctx, epoch)
}

// DropNode unregisters node id, which must already be outside the
// membership, and closes it.
func (c *Cluster) DropNode(id int) error {
	c.memberMu.Lock()
	n := c.nodes[id]
	if n != nil && c.cur.Load().members.Contains(id) {
		n = nil
	}
	if n != nil {
		delete(c.nodes, id)
	}
	c.memberMu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no departed node %d", id)
	}
	if err := n.Close(); err != nil {
		return fmt.Errorf("cluster: close removed node %d: %w", id, err)
	}
	return nil
}

// KillNode hard-kills node id: it leaves the membership and the registry
// immediately — no grace period, no drain. Every later store, read or
// decref against it fails, as with a crashed machine. In-process
// resources are released best-effort (a kill models loss of
// reachability, not an orderly shutdown). Refuses to kill the last
// member.
func (c *Cluster) KillNode(id int) error {
	c.memberMu.Lock()
	n := c.nodes[id]
	if n == nil {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no node %d", id)
	}
	if members := c.cur.Load().members; members.Contains(id) {
		if members.Len() == 1 {
			c.memberMu.Unlock()
			return fmt.Errorf("cluster: cannot kill the last node")
		}
		c.commitEpochLocked(core.NewMembership(members.Epoch+1, members.Without(id).Nodes))
	}
	delete(c.nodes, id)
	c.memberMu.Unlock()
	_ = n.Close()
	return nil
}

// waitEpochQuiesce blocks until no backup item is in flight against an
// epoch older than epoch — the membership change's grace period. An
// item abandoned mid-flight (BeginItem without EndItem/Abort/Close)
// fails the wait after a bounded delay rather than hanging forever.
func (c *Cluster) waitEpochQuiesce(ctx context.Context, epoch uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		pinned := 0
		c.memberMu.Lock()
		// Scan the epoch history, pruning states that have fully
		// quiesced so the list stays bounded by in-flight pins plus the
		// current epoch.
		kept := c.epochs[:0]
		for _, st := range c.epochs {
			uses := st.uses.Load()
			if st.members.Epoch < epoch {
				if uses == 0 {
					continue // quiesced: drop from the history
				}
				pinned += int(uses)
			}
			kept = append(kept, st)
		}
		c.epochs = kept
		c.memberMu.Unlock()
		if pinned == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d backup items still pinned to pre-change epochs; quiesce backup streams before RemoveNode", pinned)
		}
		time.Sleep(time.Millisecond)
	}
}
