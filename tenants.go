package sigmadedupe

import (
	"context"
	"io"

	"sigmadedupe/internal/client"
	"sigmadedupe/internal/tenant"
)

// toTenantInfo converts the public tenant configuration to the control
// plane's internal shape.
func toTenantInfo(cfg TenantConfig) tenant.Info {
	return tenant.Info{
		Name:       cfg.Name,
		Domain:     string(cfg.Domain),
		QuotaBytes: cfg.QuotaBytes,
		Weight:     cfg.Weight,
	}
}

// toTenantStatus pairs internal config and usage into the public status.
func toTenantStatus(info tenant.Info, u tenant.Usage) TenantStatus {
	return TenantStatus{
		TenantConfig: TenantConfig{
			Name:       info.Name,
			Domain:     TenantDomain(info.Domain),
			QuotaBytes: info.QuotaBytes,
			Weight:     info.Weight,
		},
		Usage: TenantUsage{
			LiveBytes:     u.LiveBytes,
			LogicalBytes:  u.LogicalBytes,
			StoredBytes:   u.StoredBytes,
			RestoredBytes: u.RestoredBytes,
			Backups:       u.Backups,
			DedupRatio:    u.DedupRatio(),
		},
	}
}

// CreateTenant implements TenantAdmin on the simulator: the tenant is
// registered in the simulator's in-memory director (idempotent;
// re-creating with the same domain updates quota and weight, a
// different domain conflicts).
func (c *Cluster) CreateTenant(ctx context.Context, cfg TenantConfig) error {
	return c.mgmt.CreateTenant(ctx, cfg)
}

// Tenants implements TenantAdmin: every tenant with its usage, sorted by
// name.
func (c *Cluster) Tenants(ctx context.Context) ([]TenantStatus, error) {
	return c.mgmt.Tenants(ctx)
}

// SetTenantQuota implements TenantAdmin (0 = unlimited).
func (c *Cluster) SetTenantQuota(ctx context.Context, tn string, quota int64) error {
	return c.mgmt.SetTenantQuota(ctx, tn, quota)
}

// SetTenantWeight implements TenantAdmin.
func (c *Cluster) SetTenantWeight(ctx context.Context, tn string, weight int) error {
	return c.mgmt.SetTenantWeight(ctx, tn, weight)
}

// RestoreTenant implements TenantAdmin: stream one of the tenant's
// backups to w. Quota never blocks a restore.
func (c *Cluster) RestoreTenant(ctx context.Context, tn, name string, w io.Writer) error {
	if err := c.recipesGuard("Restore"); err != nil {
		return err
	}
	return c.mgmt.RestoreTenant(ctx, tn, name, w)
}

// DeleteTenant implements TenantAdmin: remove one of the tenant's
// backups. Quota never blocks a delete — deleting is how an over-quota
// tenant gets back under.
func (c *Cluster) DeleteTenant(ctx context.Context, tn, name string) error {
	if err := c.recipesGuard("Delete"); err != nil {
		return err
	}
	return c.mgmt.DeleteTenant(ctx, tn, name)
}

// CreateTenant implements TenantAdmin on the prototype: the director
// registers (and journals, when durable) the tenant.
func (r *Remote) CreateTenant(ctx context.Context, cfg TenantConfig) error {
	if err := r.tenantMeta.CreateTenant(ctx, toTenantInfo(cfg)); err != nil {
		return err
	}
	if r.sched != nil {
		w := cfg.Weight
		if w <= 0 {
			w = 1
		}
		r.weights.Store(cfg.Name, w)
	}
	return nil
}

// Tenants implements TenantAdmin: the director's tenant table with
// usage, sorted by name.
func (r *Remote) Tenants(ctx context.Context) ([]TenantStatus, error) {
	sts, err := r.tenantMeta.Tenants(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]TenantStatus, len(sts))
	for i, st := range sts {
		out[i] = toTenantStatus(st.Info, st.Usage)
	}
	return out, nil
}

// SetTenantQuota implements TenantAdmin (0 = unlimited).
func (r *Remote) SetTenantQuota(ctx context.Context, tn string, quota int64) error {
	return r.tenantMeta.SetTenantQuota(ctx, tn, quota)
}

// SetTenantWeight implements TenantAdmin.
func (r *Remote) SetTenantWeight(ctx context.Context, tn string, weight int) error {
	if err := r.tenantMeta.SetTenantWeight(ctx, tn, weight); err != nil {
		return err
	}
	if r.sched != nil {
		r.weights.Store(tn, weight)
	}
	return nil
}

// adminClient opens a short-lived control-plane client scoped to one
// tenant: recipe keys compose under the tenant, but the session is
// admitted without a quota check (restore and delete must work for an
// over-quota tenant).
func (r *Remote) adminClient(ctx context.Context, tn string) (*client.Client, error) {
	cfg, err := resolveSessionConfig(r.sessionDefaults(), nil)
	if err != nil {
		return nil, err
	}
	cfg.name = r.cfg.Name + "-tenant-admin"
	cfg.tenant = tn
	cfg.admin = true
	c, _, err := r.newClient(ctx, cfg)
	return c, err
}

// RestoreTenant implements TenantAdmin: stream one of the tenant's
// backups to w over the wire.
func (r *Remote) RestoreTenant(ctx context.Context, tn, name string, w io.Writer) error {
	if tn == "" {
		tn = tenant.Default
	}
	c, err := r.adminClient(ctx, tn)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Restore(ctx, name, w)
}

// DeleteTenant implements TenantAdmin: remove one of the tenant's
// backups end to end (director recipe, then node references).
func (r *Remote) DeleteTenant(ctx context.Context, tn, name string) error {
	if tn == "" {
		tn = tenant.Default
	}
	c, err := r.adminClient(ctx, tn)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.DeleteBackup(ctx, name)
}
