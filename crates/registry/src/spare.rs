//! The registry's per-host spare: the storage closed connections leave
//! for the next ones, and where every block the registry builds is opened.

use unp_tcp::{ListenTcb, Rings, Tcb, TcpAction, TcpConfig};
use unp_wire::{Ipv4Addr, TcpRepr};

use crate::Nanos;

/// What finished connections left on this host for the next ones: their
/// blocks, and those blocks' rings ([`Tcb::take_rings`]). A block comes
/// back when its connection closes or, sooner, when it starts its
/// TIME_WAIT, which a record sits out in its place ([`Tcb::time_wait`]).
/// Every block the registry builds is a spare one when there is one,
/// fitted with spare rings when there are some.
///
/// It needs no count cap: a block comes back only from a connection that
/// had it, once, and a ring set only from a block that grew it, so the
/// spare never holds more than the host's own high-water mark of blocks
/// in use. Its room grows to that mark as blocks are built and opened
/// without spare rings, so that giving storage back never allocates.
#[derive(Default)]
pub(crate) struct Spare {
    // Each box is a block's own storage, handed over whole
    // (`RegistryAction::Complete`) and kept whole.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<Tcb>>,
    rings: Vec<Rings>,
    /// Blocks built fresh, and blocks opened with no spare rings to fit
    /// (each may grow a ring set of its own): the most the spare can ever
    /// hold of each.
    made: [usize; 2],
}

impl Spare {
    /// [`Tcb::connect_into`]'s block, opened in a spare one when there is
    /// one ([`Tcb::connect_in_place`]).
    pub(crate) fn connect(
        &mut self,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        now: Nanos,
        sink: &mut Vec<TcpAction>,
    ) -> Box<Tcb> {
        let mut tcb = match self.blocks.pop() {
            Some(mut tcb) => {
                tcb.connect_in_place(local, remote, cfg, iss, now, sink);
                tcb
            }
            None => self.fresh(Tcb::connect_into(local, remote, cfg, iss, now, sink)),
        };
        self.fit(&mut tcb);
        tcb
    }

    /// [`ListenTcb::on_syn_into`]'s block, opened in a spare one when
    /// there is one ([`ListenTcb::on_syn_in_place`]); `None` for a segment
    /// that opens nothing.
    pub(crate) fn on_syn(
        &mut self,
        listener: &ListenTcb,
        remote: (Ipv4Addr, u16),
        repr: &TcpRepr,
        iss: u32,
        now: Nanos,
        sink: &mut Vec<TcpAction>,
    ) -> Option<Box<Tcb>> {
        let mut tcb = match self.blocks.last_mut() {
            Some(block) => listener
                .on_syn_in_place(block, remote, repr, iss, now, sink)
                .then(|| self.blocks.pop().expect("the block just reopened"))?,
            None => self.fresh(listener.on_syn_into(remote, repr, iss, now, sink)?),
        };
        self.fit(&mut tcb);
        Some(tcb)
    }

    /// Boxes `tcb`, a block just built fresh because the spare had none,
    /// with room here for it to come back to.
    fn fresh(&mut self, tcb: Tcb) -> Box<Tcb> {
        self.made[0] += 1;
        self.blocks.reserve(self.made[0] - self.blocks.len());
        Box::new(tcb)
    }

    /// Stores a just-opened block's streams in spare rings; with none,
    /// makes room for the ring set the block may grow.
    fn fit(&mut self, tcb: &mut Tcb) {
        match self.rings.pop() {
            Some(rings) => tcb.put_rings(rings),
            None => {
                self.made[1] += 1;
                self.rings.reserve(self.made[1] - self.rings.len());
            }
        }
    }

    /// Keeps the block of a connection that ended or sits out TIME_WAIT
    /// as a record, its rings apart.
    pub(crate) fn keep(&mut self, mut tcb: Box<Tcb>) {
        if let Some(rings) = tcb.take_rings() {
            self.rings.push(rings);
        }
        self.blocks.push(tcb);
    }

    /// How many blocks and ring sets are kept.
    pub(crate) fn held(&self) -> [usize; 2] {
        [self.blocks.len(), self.rings.len()]
    }
}
