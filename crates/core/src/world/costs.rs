//! The per-organization cost rules: what Fig. 1's organizations are
//! charged differently for on the same path through the same protocol
//! code. The one module that tells all five [`OrgKind`]s apart; everywhere
//! else the only question asked is "user library or not", once per entry
//! point.

use unp_sim::Nanos;

use super::{Ablation, Nic, World};

/// The protocol organizations of the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Monolithic in-kernel (Ultrix 4.2A).
    InKernel,
    /// Mach 3.0 + UX single server, device mapped into the server.
    SingleServer,
    /// Single server with in-kernel device management behind a message
    /// interface (the slower variant the paper describes).
    SingleServerMsg,
    /// One server per protocol stack plus a device server.
    DedicatedServer,
    /// The paper's user-level library + registry + network I/O module.
    UserLibrary,
}

impl OrgKind {
    /// Human-readable label used in reports (paper terminology).
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::InKernel => "Ultrix 4.2A (in-kernel)",
            OrgKind::SingleServer => "Mach 3.0/UX (mapped)",
            OrgKind::SingleServerMsg => "Mach 3.0/UX (message)",
            OrgKind::DedicatedServer => "Dedicated servers",
            OrgKind::UserLibrary => "User-level library (ours)",
        }
    }

    pub(super) fn is_user_library(&self) -> bool {
        matches!(self, OrgKind::UserLibrary)
    }
}

/// Cost of one application↔protocol boundary crossing.
pub(super) fn app_boundary_cost(w: &World, h: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        OrgKind::InKernel => c.trap + c.socket_layer,
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_syscall,
        OrgKind::DedicatedServer => c.ux_syscall + c.mach_ipc_one_way,
        OrgKind::UserLibrary => c.library_call,
    }
}

/// Cost of moving `len` app bytes into the protocol on a write.
pub(super) fn tx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // Ultrix's copy-eliminating buffer path "is invoked only when the
        // user packet size is 1024 bytes or larger".
        OrgKind::InKernel => {
            if len >= 1024 {
                0
            } else {
                c.copy(len)
            }
        }
        // IPC to the server copies the data; the server copies into mbufs.
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            2 * c.copy(len)
        }
        // "Our implementation uses a buffer organization that eliminates
        // byte copying" — writes land in the pinned shared region.
        OrgKind::UserLibrary => {
            if w.ablation == Some(Ablation::ZeroCopy) {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Cost of handing `len` received bytes to the application.
pub(super) fn rx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // The copy-eliminating buffer organization engages at ≥1024 bytes.
        OrgKind::InKernel => {
            if len >= 1024 {
                c.socket_layer
            } else {
                c.copy(len) + c.socket_layer
            }
        }
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            c.copy(len) + c.ux_data_per_byte * len as Nanos + c.socket_layer
        }
        OrgKind::UserLibrary => {
            if w.ablation == Some(Ablation::ZeroCopy) {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Per-frame device-access cost on transmit (after protocol processing).
pub(super) fn tx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    let dev = match w.hosts[h].nic {
        Nic::Lance(_) => c.pio(frame_len),
        Nic::An1(_) => c.dma_setup,
    };
    match w.hosts[h].org {
        OrgKind::InKernel => dev,
        // Mapped device: the server drives it directly.
        OrgKind::SingleServer => dev,
        // Message-based device access adds an IPC per packet.
        OrgKind::SingleServerMsg => dev + c.mach_ipc_one_way,
        // Protocol server → device server hop.
        OrgKind::DedicatedServer => dev + c.mach_ipc_one_way,
        // Specialized kernel entry + template check + ring bookkeeping.
        OrgKind::UserLibrary => dev + c.fast_trap + c.template_check + c.ring_op,
    }
}

/// Per-frame cost from wire arrival to the protocol input routine,
/// *excluding* demux and notification (charged separately where they
/// differ structurally).
pub(super) fn rx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].nic {
        Nic::Lance(_) => c.interrupt + c.pio(frame_len),
        Nic::An1(_) => c.interrupt,
    }
}

/// Protocol-processing cost for one TCP segment (identical across
/// organizations — same code).
pub(super) fn tcp_seg_cost(w: &World, payload_and_hdr: usize) -> Nanos {
    let c = &w.costs;
    c.tcp_per_segment + c.ip_per_packet + c.checksum(payload_and_hdr)
}

/// What a monolithic stack pays to get one received segment to its PCB
/// lookup: the per-segment stack cost of `payload_len` bytes of IP
/// payload carrying `data_len` bytes of TCP data, plus the kernel→server
/// dispatch for the server-based organizations.
pub(super) fn tcp_input_cost(w: &World, h: usize, payload_len: usize, data_len: usize) -> Nanos {
    let c = &w.costs;
    let mut cost = tcp_seg_cost(w, payload_len);
    cost += match w.hosts[h].org {
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_pkt_dispatch,
        OrgKind::DedicatedServer => c.ux_pkt_dispatch + c.mach_ipc_one_way,
        // Sub-1024-byte segments take the small-mbuf path in the stock
        // kernel (the copy-eliminating organization needs ≥1024).
        OrgKind::InKernel if data_len < 1024 && data_len != 0 => c.small_pkt_overhead,
        // (A user-library host's TCP never takes the monolithic input.)
        OrgKind::InKernel | OrgKind::UserLibrary => 0,
    };
    // The AN1 controller's inherent device-management cost applies to the
    // kernel's BQI-0 ring exactly as to user rings (paper Table 5).
    if matches!(w.hosts[h].nic, Nic::An1(_)) {
        cost += c.bqi_demux;
    }
    cost
}
