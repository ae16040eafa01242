//! One scheduled step of the world: the [`Event`] enum, its dispatch, and
//! the helpers that charge a host's CPU and schedule the next step at the
//! charge's completion time.

use std::collections::VecDeque;
use std::fmt;

use unp_buffers::{Frame, RingId, Staged};
use unp_kernel::ChannelId;
use unp_registry::HsId;
use unp_sim::{EventFn, Nanos};
use unp_wire::{Ipv4Addr, TcpRepr};

use super::app::{app_event, AppEvent};
use super::link::{frame_arrives, kernel_input, transmit_frame};
use super::org::monolithic;
use super::org::userlib::{self, handshake};
use super::tcp::send_tcp_frame;
use super::timers::wheel_fire;
use super::{Eng, Nic, World};

/// One scheduled step of the world. A step the data path schedules per
/// frame, segment, wakeup or timer restart, and every step the user
/// library's connection life cycle schedules, is a variant, kept by value
/// in the engine's slab; the rest is a boxed closure in [`Event::Call`] —
/// what [`host_exec`] and `eng.at` schedule. Every variant fires under its
/// host's attribution scope, as [`host_exec`]'s closures do: deep protocol
/// paths (TCB transitions, registry setup) have no other way to know whose
/// CPU they run on.
#[derive(Debug)]
pub enum Event {
    /// `frame` reaches `host`'s interface: [`frame_arrives`].
    FrameArrives { host: usize, frame: Frame },
    /// The Lance interrupt (and the PIO copy) is paid for: the kernel
    /// takes the next staged frame.
    LanceIntr { host: usize },
    /// The AN1 completion interrupt is paid for: the kernel takes
    /// `frame`, which the controller classified onto `ring`.
    An1Intr {
        host: usize,
        frame: Frame,
        ring: RingId,
    },
    /// A monolithic stack has paid for the segment `repr` + `data` from
    /// `src`: look up its PCB.
    PcbInput {
        host: usize,
        src: Ipv4Addr,
        repr: TcpRepr,
        data: Frame,
    },
    /// The kernel has demultiplexed `frame` to its default path: hand it
    /// to the registry's TCP input.
    RegistryInput { host: usize, frame: Frame },
    /// The registry has paid for the TCP segment in `frame`, already
    /// parsed and accepted once: route it by the state at this time.
    /// `announce` is the BQI its AN1 link header announced.
    RegistrySegment {
        host: usize,
        frame: Frame,
        announce: u16,
    },
    /// Handshake `hs`'s `Complete` is paid for: hand the connection to
    /// the library.
    Finalize { host: usize, hs: HsId },
    /// A frame parked across `cid`'s activation is paid for: its segment
    /// goes to the connection.
    Parked { host: usize, cid: u32, frame: Frame },
    /// The library thread behind channel `chan` wakes up.
    LibraryWakeup { host: usize, chan: ChannelId },
    /// The library has paid for the frame at the front of `batch`: run
    /// the protocol over it, then go on with the rest of the batch.
    LibraryChain {
        host: usize,
        cid: u32,
        batch: VecDeque<Frame>,
    },
    /// A segment's output processing is paid for: build its frame(s)
    /// around `payload`, staged when the segment was produced. `cid`
    /// names the connection whose channel it leaves through (`None` for
    /// the kernel's and the registry's own segments); `announce` is the
    /// BQI a registry handshake segment advertises on AN1.
    SendSegment {
        host: usize,
        cid: Option<u32>,
        repr: TcpRepr,
        payload: Staged,
        remote: Ipv4Addr,
        announce: u16,
    },
    /// Device access is paid for: `frame` goes on the wire.
    Transmit { host: usize, frame: Frame },
    /// An upcall into connection `cid`'s application.
    App {
        host: usize,
        cid: u32,
        upcall: AppEvent,
    },
    /// `host`'s timing wheel reaches its earliest deadline.
    WheelFire { host: usize },
    /// The application's connect RPC to `host`'s registry is paid for:
    /// the registry takes the call at the front of the host's queue of
    /// them ([`handshake::connect_rpc`]).
    Connect { host: usize },
    /// A closure: what `eng.at` and the rare wide captures schedule.
    Call(Closure),
}

/// The body of an [`Event::Call`]; opaque when the queue is printed.
pub struct Closure(EventFn<World, Event>);

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<closure>")
    }
}

impl Event {
    /// The host a step runs on; a closure names its own.
    fn host(&self) -> Option<usize> {
        match self {
            Event::FrameArrives { host, .. }
            | Event::LanceIntr { host }
            | Event::An1Intr { host, .. }
            | Event::PcbInput { host, .. }
            | Event::RegistryInput { host, .. }
            | Event::RegistrySegment { host, .. }
            | Event::Finalize { host, .. }
            | Event::Parked { host, .. }
            | Event::LibraryWakeup { host, .. }
            | Event::LibraryChain { host, .. }
            | Event::SendSegment { host, .. }
            | Event::Transmit { host, .. }
            | Event::App { host, .. }
            | Event::WheelFire { host }
            | Event::Connect { host } => Some(*host),
            Event::Call(_) => None,
        }
    }
}

impl unp_sim::Event<World> for Event {
    fn fire(self, w: &mut World, eng: &mut Eng) {
        let _attr = self.host().map(|h| unp_trace::host_scope(h as u16));
        match self {
            Event::FrameArrives { host, frame } => frame_arrives(w, eng, host, frame),
            Event::LanceIntr { host } => {
                if let Nic::Lance(nic) = &mut w.hosts[host].nic {
                    if let Some(staged) = nic.host_take_frame() {
                        kernel_input(w, eng, host, staged.bytes, None);
                    }
                }
            }
            Event::An1Intr { host, frame, ring } => kernel_input(w, eng, host, frame, Some(ring)),
            Event::PcbInput {
                host,
                src,
                repr,
                data,
            } => monolithic::pcb_input(w, eng, host, src, &repr, &data),
            Event::RegistryInput { host, frame } => {
                userlib::registry_tcp_input(w, eng, host, frame)
            }
            Event::RegistrySegment {
                host,
                frame,
                announce,
            } => userlib::registry_segment(w, eng, host, frame, announce),
            Event::Finalize { host, hs } => handshake::finalize_user_conn(w, eng, host, hs),
            Event::Parked { host, cid, frame } => {
                handshake::parked_segment(w, eng, host, cid, frame)
            }
            Event::LibraryWakeup { host, chan } => userlib::library_wakeup(w, eng, host, chan),
            Event::LibraryChain { host, cid, batch } => {
                userlib::library_chain(w, eng, host, cid, batch)
            }
            Event::SendSegment {
                host,
                cid,
                repr,
                payload,
                remote,
                announce,
            } => {
                // Only the user library's connections have a channel:
                // their data frames stamp the peer's announced BQI
                // (hardware demux) and pass the template check under the
                // channel's send capability.
                let conn = cid.and_then(|c| w.hosts[host].conns.get(&c));
                let chan = conn.and_then(|c| c.chan.as_ref());
                let bqi = chan.and_then(|ci| ci.peer_bqi).unwrap_or(0);
                let cap = chan.map(|ci| ci.send_cap);
                send_tcp_frame(
                    w, eng, host, &repr, payload, remote, bqi, announce, cap, false,
                );
            }
            Event::Transmit { host, frame } => transmit_frame(w, eng, host, frame),
            Event::App { host, cid, upcall } => app_event(w, eng, host, cid, upcall),
            Event::WheelFire { host } => wheel_fire(w, eng, host),
            Event::Connect { host } => handshake::connect_rpc(w, eng, host),
            Event::Call(Closure(f)) => f(w, eng),
        }
    }

    fn call(f: EventFn<World, Event>) -> Event {
        Event::Call(Closure(f))
    }
}

/// Charges `cost` to host `h`'s CPU and schedules `step` at completion.
pub(super) fn host_step(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, step: Event) {
    let done = w.hosts[h].cpu.charge(eng.now(), cost);
    eng.schedule(done, step);
}

/// Like [`host_step`] but at interrupt priority: device interrupt service
/// preempts process/library work instead of queueing behind it (otherwise
/// NIC staging buffers overflow whenever user-level processing is slower
/// than the wire — a receive livelock real interrupt-driven kernels do not
/// exhibit at these rates).
pub(super) fn host_step_intr(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, step: Event) {
    let done = w.hosts[h].cpu.charge_priority(eng.now(), cost);
    eng.schedule(done, step);
}

/// Charges `cost` to host `h`'s CPU and schedules the closure `f` at
/// completion, under `h`'s attribution scope: [`host_step`] for the work
/// that has no [`Event`] variant.
pub fn host_exec<F>(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, f: F)
where
    F: FnOnce(&mut World, &mut Eng) + 'static,
{
    let done = w.hosts[h].cpu.charge(eng.now(), cost);
    eng.at(done, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        f(w, eng);
    });
}
