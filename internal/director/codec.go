package director

import (
	"fmt"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/wire"
)

// The director protocol rides the same length-prefixed binary framing as
// the node RPC (internal/wire, protocol byte ProtoDirector). It stays a
// sequential request/response exchange per connection — metadata traffic
// is a rounding error next to chunk traffic — but sheds gob's per-stream
// type metadata and reflection.
//
// Frame kinds on the director protocol.
const (
	frameDirRequest  byte = 1
	frameDirResponse byte = 2
)

// maxDirFrame bounds a director message; recipes are fingerprint lists,
// far below this.
const maxDirFrame = wire.DefaultMaxFrame

// appendDirRequest encodes req (kind byte included) onto b.
func appendDirRequest(b []byte, req *dirRequest) []byte {
	b = wire.AppendU8(b, frameDirRequest)
	b = wire.AppendU8(b, byte(req.Op))
	b = wire.AppendString(b, req.Client)
	b = wire.AppendU64(b, req.Session)
	b = wire.AppendString(b, req.Path)
	b = appendChunkEntries(b, req.Chunks)
	b = appendNodeInfos(b, req.Nodes)
	b = wire.AppendU64(b, req.Epoch)
	b = wire.AppendU64(b, req.Gen)
	b = appendMigration(b, &req.Mig)
	b = wire.AppendU64(b, req.MigID)
	b = wire.AppendString(b, req.Tenant)
	b = wire.AppendString(b, req.Domain)
	b = wire.AppendI64(b, req.Quota)
	b = wire.AppendI64(b, req.Weight)
	b = wire.AppendI64(b, req.Stored)
	b = wire.AppendI64(b, req.Restored)
	return b
}

// decodeDirRequest decodes a request frame body (nothing aliases it).
func decodeDirRequest(body []byte) (dirRequest, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != frameDirRequest {
		return dirRequest{}, fmt.Errorf("%w: director request kind %d", wire.ErrMalformed, k)
	}
	var req dirRequest
	req.Op = dirOp(r.U8())
	req.Client = r.String()
	req.Session = r.U64()
	req.Path = r.String()
	req.Chunks = decodeChunkEntries(r)
	req.Nodes = decodeNodeInfos(r)
	req.Epoch = r.U64()
	req.Gen = r.U64()
	req.Mig = decodeMigration(r)
	req.MigID = r.U64()
	req.Tenant = r.String()
	req.Domain = r.String()
	req.Quota = r.I64()
	req.Weight = r.I64()
	req.Stored = r.I64()
	req.Restored = r.I64()
	if err := r.Done(); err != nil {
		return dirRequest{}, fmt.Errorf("director: decode request: %w", err)
	}
	return req, nil
}

// appendDirResponse encodes resp (kind byte included) onto b.
func appendDirResponse(b []byte, resp *dirResponse) []byte {
	b = wire.AppendU8(b, frameDirResponse)
	b = wire.AppendString(b, resp.Err)
	b = wire.AppendU64(b, resp.Session)
	b = appendRecipe(b, &resp.Recipe)
	b = wire.AppendU32(b, uint32(len(resp.Files)))
	for _, f := range resp.Files {
		b = wire.AppendString(b, f)
	}
	b = wire.AppendU64(b, resp.Members.Epoch)
	b = appendNodeInfos(b, resp.Members.Nodes)
	b = wire.AppendI64(b, int64(resp.Members.NextID))
	b = wire.AppendU64(b, resp.MigID)
	b = wire.AppendU32(b, uint32(len(resp.Migs)))
	for i := range resp.Migs {
		b = appendMigration(b, &resp.Migs[i])
	}
	b = wire.AppendU32(b, uint32(len(resp.Recipes)))
	for i := range resp.Recipes {
		b = appendRecipe(b, &resp.Recipes[i])
	}
	b = wire.AppendU32(b, uint32(len(resp.Tenants)))
	for i := range resp.Tenants {
		b = appendTenantStatus(b, &resp.Tenants[i])
	}
	return b
}

// decodeDirResponse decodes a response frame body (nothing aliases it).
func decodeDirResponse(body []byte) (dirResponse, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != frameDirResponse {
		return dirResponse{}, fmt.Errorf("%w: director response kind %d", wire.ErrMalformed, k)
	}
	var resp dirResponse
	resp.Err = r.String()
	resp.Session = r.U64()
	resp.Recipe = decodeRecipe(r)
	if n := r.Count(4); n > 0 {
		resp.Files = make([]string, n)
		for i := 0; i < n; i++ {
			resp.Files[i] = r.String()
		}
	}
	resp.Members.Epoch = r.U64()
	resp.Members.Nodes = decodeNodeInfos(r)
	resp.Members.NextID = int(r.I64())
	resp.MigID = r.U64()
	// A Migration is at least 40 fixed bytes on the wire.
	if n := r.Count(40); n > 0 {
		resp.Migs = make([]Migration, n)
		for i := 0; i < n; i++ {
			resp.Migs[i] = decodeMigration(r)
		}
	}
	// A Recipe is at least 24 fixed bytes on the wire.
	if n := r.Count(24); n > 0 {
		resp.Recipes = make([]Recipe, n)
		for i := 0; i < n; i++ {
			resp.Recipes[i] = decodeRecipe(r)
		}
	}
	// A TenantStatus is at least 64 fixed bytes on the wire.
	if n := r.Count(64); n > 0 {
		resp.Tenants = make([]TenantStatus, n)
		for i := 0; i < n; i++ {
			resp.Tenants[i] = decodeTenantStatus(r)
		}
	}
	if err := r.Done(); err != nil {
		return dirResponse{}, fmt.Errorf("director: decode response: %w", err)
	}
	return resp, nil
}

// ChunkEntry: fingerprint, size, node, replica — 32 bytes each.
func appendChunkEntries(b []byte, entries []ChunkEntry) []byte {
	b = wire.AppendU32(b, uint32(len(entries)))
	for i := range entries {
		b = append(b, entries[i].FP[:]...)
		b = wire.AppendU32(b, uint32(entries[i].Size))
		b = wire.AppendU32(b, uint32(entries[i].Node))
		b = wire.AppendU32(b, uint32(entries[i].Replica))
	}
	return b
}

func decodeChunkEntries(r *wire.Reader) []ChunkEntry {
	n := r.Count(fingerprint.Size + 12)
	if n == 0 {
		return nil
	}
	out := make([]ChunkEntry, n)
	for i := 0; i < n; i++ {
		copy(out[i].FP[:], r.Raw(fingerprint.Size))
		out[i].Size = int32(r.U32())
		out[i].Node = int32(r.U32())
		out[i].Replica = int32(r.U32())
	}
	return out
}

func appendNodeInfos(b []byte, nodes []NodeInfo) []byte {
	b = wire.AppendU32(b, uint32(len(nodes)))
	for i := range nodes {
		b = wire.AppendI64(b, int64(nodes[i].ID))
		b = wire.AppendString(b, nodes[i].Addr)
	}
	return b
}

func decodeNodeInfos(r *wire.Reader) []NodeInfo {
	n := r.Count(12)
	if n == 0 {
		return nil
	}
	out := make([]NodeInfo, n)
	for i := 0; i < n; i++ {
		out[i].ID = int(r.I64())
		out[i].Addr = r.String()
	}
	return out
}

func appendRecipe(b []byte, rec *Recipe) []byte {
	b = wire.AppendString(b, rec.Path)
	b = wire.AppendU64(b, rec.Session)
	b = wire.AppendU64(b, rec.Gen)
	b = appendChunkEntries(b, rec.Chunks)
	return b
}

func decodeRecipe(r *wire.Reader) Recipe {
	var rec Recipe
	rec.Path = r.String()
	rec.Session = r.U64()
	rec.Gen = r.U64()
	rec.Chunks = decodeChunkEntries(r)
	return rec
}

// TenantStatus: name + domain strings plus 8 fixed 8-byte counters.
func appendTenantStatus(b []byte, t *TenantStatus) []byte {
	b = wire.AppendString(b, t.Info.Name)
	b = wire.AppendString(b, t.Info.Domain)
	b = wire.AppendI64(b, t.Info.QuotaBytes)
	b = wire.AppendI64(b, int64(t.Info.Weight))
	b = wire.AppendI64(b, t.Usage.LiveBytes)
	b = wire.AppendI64(b, t.Usage.LogicalBytes)
	b = wire.AppendI64(b, t.Usage.StoredBytes)
	b = wire.AppendI64(b, t.Usage.RestoredBytes)
	b = wire.AppendI64(b, t.Usage.Backups)
	return b
}

func decodeTenantStatus(r *wire.Reader) TenantStatus {
	var t TenantStatus
	t.Info.Name = r.String()
	t.Info.Domain = r.String()
	t.Info.QuotaBytes = r.I64()
	t.Info.Weight = int(r.I64())
	t.Usage.LiveBytes = r.I64()
	t.Usage.LogicalBytes = r.I64()
	t.Usage.StoredBytes = r.I64()
	t.Usage.RestoredBytes = r.I64()
	t.Usage.Backups = r.I64()
	return t
}

func appendMigration(b []byte, m *Migration) []byte {
	b = wire.AppendU64(b, m.ID)
	b = wire.AppendString(b, m.Path)
	b = wire.AppendU32(b, uint32(m.From))
	b = wire.AppendU32(b, uint32(m.To))
	b = wire.AppendI64(b, int64(m.Start))
	b = wire.AppendI64(b, int64(m.Count))
	b = wire.AppendU32(b, uint32(len(m.FPs)))
	for i := range m.FPs {
		b = append(b, m.FPs[i][:]...)
	}
	return b
}

func decodeMigration(r *wire.Reader) Migration {
	var m Migration
	m.ID = r.U64()
	m.Path = r.String()
	m.From = int32(r.U32())
	m.To = int32(r.U32())
	m.Start = int(r.I64())
	m.Count = int(r.I64())
	if n := r.Count(fingerprint.Size); n > 0 {
		m.FPs = make([]fingerprint.Fingerprint, n)
		for i := 0; i < n; i++ {
			copy(m.FPs[i][:], r.Raw(fingerprint.Size))
		}
	}
	return m
}
