//! Capability-checked transmission (paper §3.4): the capability table,
//! each channel's header template, the template-rejection count and the
//! epoch of the transmit-credit window. What a tenant has spent of its
//! credit is its account's (`tenant`).

use std::collections::HashMap;

use crate::template::{HeaderTemplate, TemplateViolation};
use crate::ChannelId;

/// An unforgeable capability naming a channel with a rights mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability(u64);

impl Capability {
    /// Constructs a capability from a raw value. Within the simulation
    /// capabilities are unforgeable because only the kernel mints them and
    /// validates every use; this constructor exists so adversarial tests
    /// can *attempt* forgery and verify it fails. Gated out of release
    /// builds: a production library must have no way to mint one.
    #[cfg(any(test, feature = "testing"))]
    pub fn forge_for_tests(raw: u64) -> Capability {
        Capability(raw)
    }
}

/// Rights a capability can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Right {
    /// May transmit packets matching the channel's template.
    Send,
    /// May consume packets from the channel's receive ring.
    Receive,
}

/// Errors from the transmit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// Unknown or revoked capability.
    BadCapability,
    /// The capability lacks the right the call needs: Send to transmit,
    /// Receive to drain the ring or end a wakeup.
    WrongRight,
    /// The packet header does not match the bound template.
    Template(TemplateViolation),
    /// The owning tenant exhausted its per-window transmit credit.
    QuotaExceeded,
}

/// Transmit-credit window length in sim nanoseconds (10 ms). Windows are
/// epoch-aligned (`now / TX_WINDOW_NS`), so identical runs see identical
/// refill instants regardless of call timing.
pub const TX_WINDOW_NS: u64 = 10_000_000;

/// The first capability value; each next one is a stride further, so ids
/// are sparse and non-guessable-looking.
const CAP_BASE: u64 = 0x6100_0000_0000_0000;
const CAP_STRIDE: u64 = 0x9E37_79B9;

struct CapEntry {
    channel: ChannelId,
    right: Right,
}

/// A channel's transmit part: its template, and the raw values of its two
/// capabilities, so teardown revokes exactly them instead of sweeping the
/// whole capability map (an O(total caps) hidden churn term).
pub(crate) struct Sender {
    template: HeaderTemplate,
    caps: [u64; 2],
}

impl Sender {
    /// Pins the AN1 BQI the template requires on outgoing packets.
    pub(crate) fn set_bqi(&mut self, bqi: u16) {
        self.template.bqi = Some(bqi);
    }
}

#[derive(Default)]
pub(crate) struct Transmit {
    caps: HashMap<u64, CapEntry>,
    minted: u64,
    /// Which credit window [`Transmit::advance_window`] last saw.
    epoch: u64,
    /// Packets rejected by template checks.
    rejections: u64,
}

impl Transmit {
    /// Binds `template` to a new channel and mints its send and receive
    /// capabilities, in that order.
    pub(crate) fn issue(
        &mut self,
        channel: ChannelId,
        template: HeaderTemplate,
    ) -> (Sender, Capability, Capability) {
        let caps = [Right::Send, Right::Receive].map(|right| {
            let cap = CAP_BASE + self.minted * CAP_STRIDE;
            self.minted += 1;
            self.caps.insert(cap, CapEntry { channel, right });
            cap
        });
        let sender = Sender { template, caps };
        (sender, Capability(caps[0]), Capability(caps[1]))
    }

    pub(crate) fn revoke(&mut self, sender: &Sender) {
        for cap in sender.caps {
            self.caps.remove(&cap);
        }
    }

    /// The live channel `cap` names in `channels`, provided the capability
    /// carries `right`.
    pub(crate) fn resolve<'a, C>(
        &self,
        channels: &'a mut HashMap<u32, C>,
        cap: Capability,
        right: Right,
    ) -> Result<(ChannelId, &'a mut C), TxError> {
        let entry = self.caps.get(&cap.0).ok_or(TxError::BadCapability)?;
        if entry.right != right {
            return Err(TxError::WrongRight);
        }
        let ch = channels.get_mut(&entry.channel.0);
        Ok((entry.channel, ch.ok_or(TxError::BadCapability)?))
    }

    /// Checks a frame against the channel's template, counting a rejection
    /// and journaling the verdict under the frame's id, if it has one.
    pub(crate) fn check(
        &mut self,
        sender: &Sender,
        channel: ChannelId,
        frame: &[u8],
        frame_id: Option<u64>,
    ) -> Result<(), TxError> {
        let verdict = sender.template.check(frame);
        self.rejections += u64::from(verdict.is_err());
        unp_trace::emit(frame_id, || unp_trace::Event::TxTemplateCheck {
            channel: channel.0,
            ok: verdict.is_ok(),
        });
        verdict.map_err(TxError::Template)
    }

    /// Moves to the window holding `now`; true when that is a new one.
    pub(crate) fn advance_window(&mut self, now: u64) -> bool {
        let epoch = now / TX_WINDOW_NS;
        std::mem::replace(&mut self.epoch, epoch) != epoch
    }

    pub(crate) fn rejections(&self) -> u64 {
        self.rejections
    }
}
