// Elastic membership for the simulated cluster's routing layer. The
// layer does not decide membership: node IDs and epochs come from the
// director, and the caller registers nodes under the IDs it is given and
// hands over each committed membership with SetMembership. Placement
// changes (drain, rebalance, replication, repair) run on the shared
// migration engine in internal/client over in-process connections.
package cluster

import (
	"fmt"

	"sigmadedupe/internal/core"
)

// AddNode registers a fresh, empty node under id. It takes no routing
// traffic until a SetMembership names it; reads and stores through Node
// reach it at once.
func (c *Cluster) AddNode(id int) error {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.nodes[id] != nil {
		return fmt.Errorf("cluster: node %d is already registered", id)
	}
	n, err := newClusterNode(c.cfg, id)
	if err != nil {
		return err
	}
	c.nodes[id] = n
	return nil
}

// SetMembership makes m the routing view: backup items that start after
// it returns route over m's members. Every member must be registered.
func (c *Cluster) SetMembership(m core.Membership) error {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	return c.setViewLocked(m)
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

// KillNode hard-kills node id: it leaves the registry at once, so every
// later store, read or decref against it fails, as with a crashed
// machine. In-process resources are released best-effort (a kill models
// loss of reachability, not an orderly shutdown).
func (c *Cluster) KillNode(id int) error {
	c.memberMu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.memberMu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no node %d", id)
	}
	_ = n.Close()
	return nil
}
