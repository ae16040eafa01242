//! Tenant budgets and the accounts charged against them (DESIGN §14): the
//! resource half of the protection argument. Only this module writes an
//! account; the mechanisms charge and release it where each resource is
//! taken or given back.

use std::collections::BTreeMap;

use unp_buffers::OwnerTag;

use crate::TxError;

/// Per-tenant resource budget. A zero in any field means that dimension
/// is unlimited — the default, so single-tenant worlds and the existing
/// tests behave exactly as before budgets existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Aggregate ring slots the tenant may occupy across *all* of its
    /// channels. A delivery that would exceed it is dropped and charged
    /// to the tenant (journaled as `quota_drop`), even when the target
    /// channel's own ring still has room.
    pub ring_slots: usize,
    /// Frames the tenant may transmit per credit window (see
    /// [`crate::TX_WINDOW_NS`]); exhausted credit rejects with
    /// [`TxError::QuotaExceeded`] until the window rolls over.
    pub tx_credit: u64,
    /// Channels the tenant may hold open at once;
    /// [`crate::NetIoModule::try_create_channel`] refuses past it.
    pub max_channels: usize,
}

/// Snapshot of one tenant's budget accounting, for dashboards, the
/// metrics registry's `TenantScope` sync, and the isolation oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Frames delivered into the tenant's rings.
    pub rx_delivered: u64,
    /// Frames the tenant transmitted (accepted by the kernel).
    pub tx_frames: u64,
    /// Receive drops charged to the tenant's exhausted ring quota.
    pub quota_drops: u64,
    /// Transmits rejected for exhausted per-window credit.
    pub tx_rejections: u64,
    /// Ring slots currently occupied across the tenant's channels.
    pub ring_slots: usize,
    /// The tenant's aggregate ring-slot quota (0 = unlimited).
    pub ring_quota: usize,
    /// Channels the tenant currently holds open.
    pub open_channels: usize,
}

/// A tenant's account: the [`TenantStats`] it reports, kept whole (its
/// `ring_quota` is the budget's), beside the rest of its budget and the
/// credit used this window.
#[derive(Debug, Clone, Copy, Default)]
struct Account {
    stats: TenantStats,
    tx_credit: u64,
    max_channels: usize,
    tx_used: u64,
}

/// Every tenant's account by raw id, iterated in order. Absent tenants
/// are unbudgeted; the kernel, `OwnerTag(0)`, never has one.
#[derive(Default)]
pub(crate) struct Tenants(BTreeMap<u64, Account>);

impl Tenants {
    pub(crate) fn set_budget(&mut self, tenant: OwnerTag, budget: TenantBudget) {
        if tenant == OwnerTag(0) {
            return;
        }
        let acct = self.0.entry(tenant.0).or_default();
        acct.stats.ring_quota = budget.ring_slots;
        acct.tx_credit = budget.tx_credit;
        acct.max_channels = budget.max_channels;
    }

    /// One more open channel, or false at the cap. A tenant's account
    /// opens with its first channel.
    pub(crate) fn admit_channel(&mut self, owner: OwnerTag) -> bool {
        if owner == OwnerTag(0) {
            return true;
        }
        let acct = self.0.entry(owner.0).or_default();
        let open = &mut acct.stats.open_channels;
        if acct.max_channels > 0 && *open >= acct.max_channels {
            return false;
        }
        *open += 1;
        true
    }

    /// A destroyed channel's slot, and the `queued` ring slots its
    /// unconsumed frames still held.
    pub(crate) fn release_channel(&mut self, owner: OwnerTag, queued: usize) {
        if let Some(acct) = self.0.get_mut(&owner.0) {
            acct.stats.open_channels = acct.stats.open_channels.saturating_sub(1);
            acct.stats.ring_slots = acct.stats.ring_slots.saturating_sub(queued);
        }
    }

    /// Charges one transmit attempt to the window's credit, and counts it
    /// as sent if `send` (the template check) accepts it. Spent credit
    /// refuses before `send` runs, so a storm of template violations is
    /// rate-limited like a flood of valid frames.
    pub(crate) fn charge_tx(
        &mut self,
        owner: OwnerTag,
        send: impl FnOnce() -> Result<(), TxError>,
    ) -> Result<(), TxError> {
        let mut acct = self.0.get_mut(&owner.0);
        if let Some(a) = acct.as_deref_mut().filter(|a| a.tx_credit > 0) {
            if a.tx_used >= a.tx_credit {
                a.stats.tx_rejections += 1;
                return Err(TxError::QuotaExceeded);
            }
            a.tx_used += 1;
        }
        send()?;
        if let Some(a) = acct {
            a.stats.tx_frames += 1;
        }
        Ok(())
    }

    /// One delivered frame into `owner`'s rings, or the drop (counted)
    /// at its aggregate quota with `(in use, quota)`.
    pub(crate) fn admit_slot(&mut self, owner: OwnerTag) -> Result<(), (u64, u64)> {
        if let Some(s) = self.0.get_mut(&owner.0).map(|a| &mut a.stats) {
            if s.ring_quota > 0 && s.ring_slots >= s.ring_quota {
                s.quota_drops += 1;
                return Err((s.ring_slots as u64, s.ring_quota as u64));
            }
            s.ring_slots += 1;
            s.rx_delivered += 1;
        }
        Ok(())
    }

    /// `n` consumed ring slots back to `owner`'s budget.
    pub(crate) fn release_slots(&mut self, owner: OwnerTag, n: usize) {
        if let Some(acct) = self.0.get_mut(&owner.0) {
            acct.stats.ring_slots = acct.stats.ring_slots.saturating_sub(n);
        }
    }

    /// A new credit window: every tenant's used credit resets.
    pub(crate) fn refill_tx(&mut self) {
        for acct in self.0.values_mut() {
            acct.tx_used = 0;
        }
    }

    pub(crate) fn stats(&self, tenant: OwnerTag) -> Option<TenantStats> {
        self.0.get(&tenant.0).map(|acct| acct.stats)
    }

    pub(crate) fn ids(&self) -> Vec<OwnerTag> {
        self.0.keys().map(|&t| OwnerTag(t)).collect()
    }
}
