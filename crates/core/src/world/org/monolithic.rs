//! The monolithic organizations' transport — in-kernel, single-server
//! (mapped or message device access) and dedicated-server alike: TCP lives
//! where IP does, so a received segment goes from the kernel's IP input to
//! a PCB lookup, and ports and initial sequence numbers are the kernel's
//! to hand out. What tells the four apart is in `world::costs`.

use unp_buffers::Frame;
use unp_tcp::{ListenTcb, Tcb, TcpConfig};
use unp_wire::{Ipv4Addr, TcpRepr};

use crate::app::AppLogic;
use crate::world::costs::{app_boundary_cost, tcp_input_cost};
use crate::world::event::{host_exec, host_step, Event};
use crate::world::ip::kernel_ip_input;
use crate::world::lifecycle::install_conn;
use crate::world::tcp::{
    apply_tcp_actions, conn_segment, parse_tcp, send_tcp_segment, stage_segment, Staging,
};
use crate::world::{Eng, World};

/// The kernel's allocation state, read by no other organization.
pub(crate) struct Monolithic {
    next_port: u16,
    next_iss: u32,
}

impl Monolithic {
    pub(crate) fn new(host_idx: usize) -> Monolithic {
        Monolithic {
            // Per-host port bases 8000 apart; a `u16` holds eight of them,
            // so from the ninth host on the base wraps (deliberately).
            next_port: (host_idx as u16).wrapping_mul(8000).wrapping_add(2000),
            next_iss: 0x100 + host_idx as u32,
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        p
    }

    fn alloc_iss(&mut self) -> u32 {
        self.next_iss = self.next_iss.wrapping_add(64_000);
        self.next_iss
    }
}

/// An active open: the connect call traps into the stack directly,
/// allocating socket + PCB state.
pub(crate) fn connect(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn AppLogic>,
    write_size: usize,
) {
    let cost = app_boundary_cost(w, host) + w.costs.pcb_setup + w.costs.tcp_per_segment;
    host_exec(w, eng, host, cost, move |w, eng| {
        let local_port = w.hosts[host].kernel.alloc_port();
        let iss = w.hosts[host].kernel.alloc_iss();
        let local_ip = w.hosts[host].ip;
        let now = eng.now();
        let (mut actions, lhl) = (w.tcp_spare.take(), w.hosts[host].link_header_len());
        let local = (local_ip, local_port);
        let out = &mut Staging::new(&w.pool, lhl, &mut actions);
        let tcb = Tcb::connect_into(local, remote, cfg, iss, now, out);
        let c = install_conn(w, host, Box::new(tcb), app, None, write_size);
        apply_tcp_actions(w, eng, host, c, None, actions);
    });
}

/// IP input: the kernel's own, with the TCP it finds taken right here.
pub(crate) fn ip_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    if let Some((src, payload)) = kernel_ip_input(w, eng, h, &frame) {
        tcp_input_direct(w, eng, h, src, payload);
    }
}

/// TCP input for the monolithic organizations: in-kernel (or in-server)
/// PCB lookup and processing. `payload` is the IP payload, usually a
/// zero-copy window over the wire frame.
fn tcp_input_direct(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: Frame) {
    let local_ip = w.hosts[h].ip;
    let Some((repr, data)) = parse_tcp(w, h, src, local_ip, &payload) else {
        return;
    };
    let cost = tcp_input_cost(w, h, payload.len(), data.len());
    let host = h;
    let input = Event::PcbInput {
        host,
        src,
        repr,
        data,
    };
    host_step(w, eng, h, cost, input);
}

/// The monolithic stack's PCB lookup for one parsed segment
/// ([`Event::PcbInput`]): its connection, a listener, or a RST.
pub(crate) fn pcb_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    src: Ipv4Addr,
    repr: &TcpRepr,
    data: &Frame,
) {
    let key = (repr.dst_port, src, repr.src_port);
    let now = eng.now();
    if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
        return conn_segment(w, eng, h, cid, repr, data, data.id());
    }
    // New connection to a listener?
    let pcb_setup = w.costs.pcb_setup;
    let host = &mut w.hosts[h];
    if let Some(listener) = host.listeners.get_mut(&repr.dst_port) {
        // Socket + PCB creation for the accepted connection.
        host.cpu.charge(now, pcb_setup);
        let iss = host.kernel.alloc_iss();
        let ltcb = ListenTcb::new((host.ip, repr.dst_port), listener.cfg.clone());
        let app = (listener.factory)();
        let (mut actions, lhl) = (w.tcp_spare.take(), host.link_header_len());
        let remote = (src, repr.src_port);
        let out = &mut Staging::new(&w.pool, lhl, &mut actions);
        match ltcb.on_syn_into(remote, repr, iss, now, out) {
            Some(tcb) => {
                let write_size = 4096;
                let cid = install_conn(w, h, Box::new(tcb), app, None, write_size);
                apply_tcp_actions(w, eng, h, cid, None, actions);
            }
            None => w.tcp_spare.give(actions),
        }
        return;
    }
    // Stray: RST.
    if !repr.flags.rst {
        let rst = Tcb::rst_for((w.hosts[h].ip, repr.dst_port), repr, data.len());
        let payload = stage_segment(w, h, &rst, &[]);
        send_tcp_segment(w, eng, h, None, rst, payload, src);
    }
}
