//! `unp-netdev` — simulated links and host-network interfaces.
//!
//! Models the paper's two networks and their very different interfaces:
//!
//! * [`Link`] — a serializing medium. The 10 Mb/s Ethernet is a shared,
//!   half-duplex bus (data and ACKs contend for one channel, with
//!   preamble/IFG framing overhead); the 100 Mb/s AN1 is a switchless
//!   full-duplex point-to-point segment.
//! * [`LanceNic`] — the DEC PMADD-AA-style Ethernet interface: "this
//!   interface does not have DMA capabilities to and from the host memory.
//!   Instead, there are special packet buffers on board the controller that
//!   serve as a staging area for data. The host transfers data between
//!   these buffers and host memory using programmed I/O." No hardware
//!   demultiplexing: every received frame interrupts the host and is
//!   demultiplexed in software.
//! * [`An1Nic`] — the AN1 controller: descriptor DMA plus the **buffer
//!   queue index** table for hardware demultiplexing. The BQI in each
//!   incoming frame's link header selects a ring of pinned host buffers;
//!   the controller DMAs the packet straight into the destination
//!   process's shared memory.

use std::collections::VecDeque;

use unp_buffers::{BqiTable, Frame};
use unp_sim::{LinkParams, Nanos};
use unp_wire::MacAddr;

/// Station identifier on a link (index into the world's host table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationId(pub usize);

/// A serializing link. Transmissions reserve the medium in FIFO order;
/// half-duplex links have one channel, full-duplex links one per direction.
#[derive(Debug)]
pub struct Link {
    params: LinkParams,
    /// `busy_until[0]` for half duplex; indexed by sender for full duplex.
    busy_until: Vec<Nanos>,
    stations: Vec<(StationId, MacAddr)>,
    /// Frames carried (post-reservation).
    pub frames: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
}

impl Link {
    /// Creates a link with the given physical parameters.
    pub fn new(params: LinkParams) -> Link {
        let channels = if params.half_duplex { 1 } else { 2 };
        Link {
            params,
            busy_until: vec![0; channels],
            stations: Vec::new(),
            frames: 0,
            bytes: 0,
        }
    }

    /// The physical parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Attaches a station.
    pub fn attach(&mut self, station: StationId, mac: MacAddr) {
        self.stations.push((station, mac));
    }

    /// Stations that should receive a frame addressed to `dst` sent by
    /// `from` (unicast match or broadcast flood, never the sender).
    pub fn recipients(
        &self,
        from: StationId,
        dst: MacAddr,
    ) -> impl Iterator<Item = StationId> + '_ {
        self.stations
            .iter()
            .filter(move |(sid, mac)| *sid != from && (dst.is_broadcast() || *mac == dst))
            .map(|(sid, _)| *sid)
    }

    /// Reserves the medium for a frame of `len` bytes requested at `now` by
    /// `sender`. Returns `(tx_start, arrival)`: transmission begins when
    /// the channel frees, and the frame arrives at receivers after
    /// serialization plus propagation.
    pub fn reserve(&mut self, sender: StationId, now: Nanos, len: usize) -> (Nanos, Nanos) {
        let ch = if self.params.half_duplex {
            0
        } else {
            sender.0 % self.busy_until.len()
        };
        let mut start = self.busy_until[ch].max(now);
        if self.busy_until[ch] > now {
            // The medium was busy when transmission was attempted: CSMA
            // deference and backoff at load.
            start += self.params.contention;
        }
        let end = start + self.params.tx_time(len);
        self.busy_until[ch] = end;
        self.frames += 1;
        self.bytes += len as u64;
        (start, end + self.params.propagation)
    }

    /// The MAC of an attached station, if known.
    pub fn mac_of(&self, station: StationId) -> Option<MacAddr> {
        self.stations
            .iter()
            .find(|(sid, _)| *sid == station)
            .map(|(_, mac)| *mac)
    }
}

/// A received frame sitting in a Lance on-board buffer, awaiting the host's
/// programmed-I/O copy.
#[derive(Debug, Clone)]
pub struct StagedFrame {
    /// Frame handle (link header included); a refcount on the wire frame,
    /// not a copy.
    pub bytes: Frame,
    /// When the frame finished arriving.
    pub arrived: Nanos,
}

/// The Lance-style Ethernet interface. See module docs.
#[derive(Debug)]
pub struct LanceNic {
    /// Station address.
    pub mac: MacAddr,
    rx_staging: VecDeque<StagedFrame>,
    rx_capacity: usize,
    /// Frames dropped because the staging area was full.
    pub rx_drops: u64,
    /// Frames received into staging.
    pub rx_frames: u64,
}

impl LanceNic {
    /// Default number of on-board receive buffers (the real LANCE had a
    /// small ring; 32 is generous).
    pub const DEFAULT_RX_BUFFERS: usize = 32;

    /// Creates an interface with the default staging capacity.
    pub fn new(mac: MacAddr) -> LanceNic {
        LanceNic {
            mac,
            rx_staging: VecDeque::new(),
            rx_capacity: Self::DEFAULT_RX_BUFFERS,
            rx_drops: 0,
            rx_frames: 0,
        }
    }

    /// A frame arrives from the wire into on-board staging. Returns true
    /// if accepted (an interrupt should be raised), false if dropped.
    pub fn frame_arrived(&mut self, bytes: Frame, now: Nanos) -> bool {
        if self.rx_staging.len() >= self.rx_capacity {
            self.rx_drops += 1;
            unp_trace::emit(Some(bytes.id()), || unp_trace::Event::NicRx {
                len: bytes.len() as u32,
                accepted: false,
            });
            return false;
        }
        self.rx_frames += 1;
        unp_trace::emit(Some(bytes.id()), || unp_trace::Event::NicRx {
            len: bytes.len() as u32,
            accepted: true,
        });
        self.rx_staging.push_back(StagedFrame {
            bytes,
            arrived: now,
        });
        true
    }

    /// The host's interrupt handler pulls the next staged frame (the PIO
    /// copy cost is charged by the caller: `cost.pio(frame.len())`).
    pub fn host_take_frame(&mut self) -> Option<StagedFrame> {
        self.rx_staging.pop_front()
    }

    /// Number of staged frames awaiting the host.
    pub fn staged(&self) -> usize {
        self.rx_staging.len()
    }
}

/// The AN1 interface: DMA plus the BQI demultiplexing table.
///
/// The table itself lives here (it is controller state); the buffer rings
/// it names are host memory owned by the network I/O module, which resolves
/// [`An1Nic::classify`]'s ring id to an actual ring.
#[derive(Debug)]
pub struct An1Nic {
    /// Station address.
    pub mac: MacAddr,
    /// The controller's BQI table ("a table kept in the controller").
    pub bqi_table: BqiTable,
    /// Frames classified by hardware.
    pub rx_frames: u64,
}

impl An1Nic {
    /// Creates an interface whose BQI 0 maps to `kernel_ring`.
    pub fn new(mac: MacAddr, table_size: usize, kernel_ring: unp_buffers::RingId) -> An1Nic {
        An1Nic {
            mac,
            bqi_table: BqiTable::new(table_size, kernel_ring),
            rx_frames: 0,
        }
    }

    /// Hardware classification of an arriving frame: reads the BQI field
    /// from the link header and resolves the destination ring. This is the
    /// paper's protocol-independent hardware demultiplexing.
    pub fn classify(&mut self, frame: &[u8]) -> unp_buffers::RingId {
        self.rx_frames += 1;
        let bqi = unp_wire::An1Frame::new_checked(frame)
            .map(|f| f.bqi())
            .unwrap_or(0);
        self.bqi_table.resolve(bqi)
    }

    /// [`An1Nic::classify`] on a [`Frame`], journaling the NIC receive with
    /// the frame's identity. The DMA engine never drops at this stage — the
    /// ring it resolves to applies its own backpressure.
    pub fn classify_frame(&mut self, frame: &Frame) -> unp_buffers::RingId {
        unp_trace::emit(Some(frame.id()), || unp_trace::Event::NicRx {
            len: frame.len() as u32,
            accepted: true,
        });
        self.classify(frame.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_buffers::{OwnerTag, RingId};
    use unp_wire::{An1Repr, EtherType};

    #[test]
    fn link_serializes_back_to_back_frames() {
        let mut link = Link::new(LinkParams::ethernet_10mbps());
        let s = StationId(0);
        let (t0, a0) = link.reserve(s, 0, 1514);
        let (t1, a1) = link.reserve(s, 0, 1514);
        assert_eq!(t0, 0);
        // Second frame waits for the first to finish serializing, plus the
        // CSMA deference/backoff penalty for finding the medium busy.
        assert_eq!(
            t1,
            a0 - link.params().propagation + link.params().contention
        );
        assert!(a1 > a0);
        assert_eq!(link.frames, 2);
    }

    #[test]
    fn half_duplex_contends_across_stations() {
        let mut link = Link::new(LinkParams::ethernet_10mbps());
        let (_, a0) = link.reserve(StationId(0), 0, 1000);
        let (t1, _) = link.reserve(StationId(1), 0, 64);
        assert_eq!(
            t1,
            a0 - link.params().propagation + link.params().contention,
            "bus is shared"
        );
    }

    #[test]
    fn idle_medium_has_no_contention_penalty() {
        let mut link = Link::new(LinkParams::ethernet_10mbps());
        let (_, a0) = link.reserve(StationId(0), 0, 64);
        // Next frame requested after the medium freed: starts immediately.
        let (t1, _) = link.reserve(StationId(1), a0, 64);
        assert_eq!(t1, a0);
    }

    #[test]
    fn full_duplex_directions_independent() {
        let mut link = Link::new(LinkParams::an1_100mbps());
        let (t0, _) = link.reserve(StationId(0), 0, 1000);
        let (t1, _) = link.reserve(StationId(1), 0, 1000);
        assert_eq!(t0, 0);
        assert_eq!(t1, 0, "reverse direction does not contend");
    }

    #[test]
    fn recipients_unicast_and_broadcast() {
        let mut link = Link::new(LinkParams::ethernet_10mbps());
        let m = MacAddr::from_host_index;
        link.attach(StationId(0), m(0));
        link.attach(StationId(1), m(1));
        link.attach(StationId(2), m(2));
        let to = |dst| link.recipients(StationId(0), dst).collect::<Vec<_>>();
        assert_eq!(to(m(2)), vec![StationId(2)]);
        assert_eq!(to(MacAddr::BROADCAST), vec![StationId(1), StationId(2)]);
        assert!(to(m(0)).is_empty(), "no self");
        assert_eq!(link.mac_of(StationId(1)), Some(m(1)));
    }

    #[test]
    fn lance_staging_fifo_and_overflow() {
        let mut nic = LanceNic::new(MacAddr::from_host_index(1));
        for i in 0..LanceNic::DEFAULT_RX_BUFFERS {
            assert!(nic.frame_arrived(Frame::from_vec(vec![i as u8]), i as Nanos));
        }
        assert!(!nic.frame_arrived(Frame::from_vec(vec![99]), 99));
        assert_eq!(nic.rx_drops, 1);
        let first = nic.host_take_frame().unwrap();
        assert_eq!(first.bytes, vec![0]);
        assert_eq!(nic.staged(), LanceNic::DEFAULT_RX_BUFFERS - 1);
    }

    #[test]
    fn an1_hardware_demux_by_bqi() {
        let mut nic = An1Nic::new(MacAddr::from_host_index(1), 8, RingId(0));
        let bqi = nic
            .bqi_table
            .allocate(OwnerTag(7), RingId(3))
            .expect("table space");
        let frame = An1Repr {
            dst: nic.mac,
            src: MacAddr::from_host_index(2),
            ethertype: EtherType::Ipv4,
            bqi,
            announce: 0,
        }
        .build_frame(b"payload");
        assert_eq!(nic.classify(&frame), RingId(3));
        // Unknown/zero BQI falls back to the kernel ring.
        let f0 = An1Repr {
            bqi: 0,
            ..An1Repr::parse(&unp_wire::An1Frame::new_checked(&frame[..]).unwrap())
        }
        .build_frame(b"x");
        assert_eq!(nic.classify(&f0), RingId(0));
        // Garbage frames go to the kernel ring too.
        assert_eq!(nic.classify(&[0u8; 4]), RingId(0));
    }
}
