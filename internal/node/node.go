// Package node names a Σ-Dedupe deduplication server node. A node is
// one storage engine (package store) under a cluster identity: the
// intra-node machinery — similarity index, chunk-fingerprint cache with
// container-granularity prefetch (locality-preserved caching), the
// traditional on-disk chunk index with a Bloom filter, and parallel
// container management (paper §3.3, Fig. 3) — lives in the engine, and
// the RPC server, the cluster simulator and the tools call it directly.
//
// The store path is concurrent: there is no node-wide store lock. The
// engine's fingerprint-sharded lock striping lets multiple backup streams
// dedupe in parallel inside one node, and with a durable directory the
// node survives a full stop/restart/restore cycle (Config.Recover).
package node

import "sigmadedupe/internal/store"

// Node is one deduplication server node. All methods are safe for
// concurrent use by multiple backup streams.
type Node = store.Engine

// Config parameterizes a node; Config.ID is its cluster identity.
type Config = store.Config

// Stats aggregates a node's deduplication counters.
type Stats = store.Stats

// StoreResult describes the outcome of storing one super-chunk.
type StoreResult = store.Result

// New creates a node from cfg. With cfg.Recover set the node re-opens
// its durable state from cfg.Dir instead of starting empty.
func New(cfg Config) (*Node, error) { return store.New(cfg) }
