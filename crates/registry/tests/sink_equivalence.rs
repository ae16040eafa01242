//! Sink ≡ `Vec` for the registry server: every entry point that produces
//! actions has a form appending to the caller's buffer (`*_into`) and a
//! form returning a fresh `Vec`, and they must be the same function. Two
//! identical servers are driven in lockstep, one through each form, the
//! sink pre-loaded with a sentinel: after every call the sink's suffix
//! equals the returned `Vec` (actions carry a `Tcb`, so they are compared
//! as printed) and the sentinel is still in front.

use unp_buffers::OwnerTag;
use unp_registry::{HsId, RegistryAction, RegistryServer};
use unp_tcp::{Tcb, TcpConfig, TcpTimer};
use unp_wire::{Ipv4Addr, TcpRepr};

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const APP_A: OwnerTag = OwnerTag(10);
const APP_B: OwnerTag = OwnerTag(20);
const MS: u64 = 1_000_000;

fn sentinel() -> RegistryAction {
    RegistryAction::CancelTimer(HsId(std::num::NonZeroU64::MAX), TcpTimer::Keepalive)
}

fn printed(actions: &[RegistryAction]) -> String {
    format!("{actions:?}")
}

/// What one call produced, once per form.
struct Both {
    by_vec: Vec<RegistryAction>,
    by_sink: Vec<RegistryAction>,
}

impl Both {
    /// Runs the sink form into a pre-loaded buffer and checks it against
    /// what the `Vec` form returned.
    fn same(by_vec: Vec<RegistryAction>, sink_form: impl FnOnce(&mut Vec<RegistryAction>)) -> Both {
        let mut sink = vec![sentinel()];
        sink_form(&mut sink);
        let by_sink = sink.split_off(1);
        assert_eq!(
            printed(&sink),
            printed(&[sentinel()]),
            "the callee cleared its caller's buffer"
        );
        assert_eq!(printed(&by_sink), printed(&by_vec), "sink form diverged");
        Both { by_vec, by_sink }
    }

    /// The segments to transmit (the same through both forms, as checked).
    fn sends(&self) -> Vec<(TcpRepr, Vec<u8>)> {
        self.by_vec
            .iter()
            .filter_map(|a| match a {
                RegistryAction::Send { repr, payload, .. } => Some((*repr, payload.clone())),
                _ => None,
            })
            .collect()
    }

    /// The connections handed over by `Complete`, one list per form.
    fn completed(self) -> (Vec<Tcb>, Vec<Tcb>) {
        let tcbs = |actions: Vec<RegistryAction>| {
            actions
                .into_iter()
                .filter_map(|a| match a {
                    RegistryAction::Complete { tcb, .. } => Some(*tcb),
                    _ => None,
                })
                .collect()
        };
        (tcbs(self.by_vec), tcbs(self.by_sink))
    }
}

/// One registry server, twice: `by_vec` only ever sees the `Vec`-returning
/// forms, `by_sink` only the sink forms.
struct Twin {
    by_vec: RegistryServer,
    by_sink: RegistryServer,
}

impl Twin {
    fn new(ip: Ipv4Addr) -> Twin {
        Twin {
            by_vec: RegistryServer::new(ip),
            by_sink: RegistryServer::new(ip),
        }
    }

    fn agree(&self) {
        assert_eq!(self.by_vec.tracked(), self.by_sink.tracked());
    }

    fn listen(&mut self, owner: OwnerTag, port: u16) {
        let cfg = TcpConfig::default();
        self.by_vec
            .listen(owner, port, cfg.clone())
            .expect("free port");
        self.by_sink.listen(owner, port, cfg).expect("free port");
    }

    fn connect(
        &mut self,
        owner: OwnerTag,
        remote: (Ipv4Addr, u16),
        now: u64,
    ) -> Option<(HsId, Both)> {
        let cfg = TcpConfig::default();
        let returned = self.by_vec.connect(owner, remote, cfg.clone(), now);
        let mut sink = vec![sentinel()];
        let hs = self
            .by_sink
            .connect_into(owner, remote, cfg, now, &mut sink);
        self.agree();
        match (returned, hs) {
            (Ok((hs_vec, by_vec)), Ok((hs_sink, _))) => {
                assert_eq!(hs_vec, hs_sink);
                // The sink form has run: hand its buffer over as it is.
                Some((hs_vec, Both::same(by_vec, |out| *out = sink)))
            }
            (Err(e), Err(f)) => {
                assert_eq!(e, f);
                assert_eq!(sink.len(), 1, "a refused connect appends nothing");
                None
            }
            (returned, hs) => panic!("connect: {returned:?} vs {hs:?}"),
        }
    }

    fn on_segment(&mut self, src: Ipv4Addr, repr: &TcpRepr, payload: &[u8], now: u64) -> Both {
        let returned = self.by_vec.on_segment(src, repr, payload, now);
        let both = Both::same(returned, |out| {
            self.by_sink.on_segment_into(src, repr, payload, now, out);
        });
        self.agree();
        both
    }

    fn on_timer(&mut self, hs: HsId, t: TcpTimer, now: u64) -> Both {
        let returned = self.by_vec.on_timer(hs, t, now);
        let both = Both::same(returned, |out| self.by_sink.on_timer_into(hs, t, now, out));
        self.agree();
        both
    }

    fn app_exit(
        &mut self,
        owner: OwnerTag,
        tcbs: (Vec<Tcb>, Vec<Tcb>),
        abnormal: bool,
        now: u64,
    ) -> Both {
        let returned = self.by_vec.app_exit(owner, tcbs.0, abnormal, now);
        let both = Both::same(returned, |out| {
            self.by_sink
                .app_exit_into(owner, tcbs.1, abnormal, now, out)
        });
        self.agree();
        both
    }

    fn owner_died(&mut self, owner: OwnerTag) -> Both {
        let (returned, report) = self.by_vec.owner_died(owner);
        let mut sunk_report = None;
        let both = Both::same(returned, |out| {
            sunk_report = Some(self.by_sink.owner_died_into(owner, out));
        });
        assert_eq!(sunk_report, Some(report));
        self.agree();
        both
    }
}

/// Ferries segments between the two servers until traffic dries up;
/// returns the connections each side completed.
#[allow(clippy::type_complexity)]
fn ferry(
    ra: &mut Twin,
    rb: &mut Twin,
    first: Vec<(TcpRepr, Vec<u8>)>,
    mut now: u64,
) -> ((Vec<Tcb>, Vec<Tcb>), (Vec<Tcb>, Vec<Tcb>)) {
    let mut done_a = (Vec::new(), Vec::new());
    let mut done_b = (Vec::new(), Vec::new());
    // (to_b, segment): A spoke first.
    let mut pending: Vec<(bool, (TcpRepr, Vec<u8>))> =
        first.into_iter().map(|s| (true, s)).collect();
    let mut steps = 0;
    while let Some((to_b, (repr, payload))) = pending.pop() {
        steps += 1;
        assert!(steps < 100, "livelock");
        now += MS / 10;
        let (server, from, done) = if to_b {
            (&mut *rb, IP_A, &mut done_b)
        } else {
            (&mut *ra, IP_B, &mut done_a)
        };
        let both = server.on_segment(from, &repr, &payload, now);
        pending.extend(both.sends().into_iter().map(|s| (!to_b, s)));
        let (by_vec, by_sink) = both.completed();
        done.0.extend(by_vec);
        done.1.extend(by_sink);
    }
    (done_a, done_b)
}

#[test]
fn handshake_retransmission_and_both_exits_are_the_same_through_both_forms() {
    let mut ra = Twin::new(IP_A);
    let mut rb = Twin::new(IP_B);
    rb.listen(APP_B, 80);
    // The first SYN is lost; the retransmission timer resends it and the
    // handshake completes at both ends.
    let (hs, syn) = ra.connect(APP_A, (IP_B, 80), 0).expect("ports to spare");
    assert_eq!(syn.sends().len(), 1);
    let resent = ra.on_timer(hs, TcpTimer::Retransmit, 1_000 * MS);
    let (done_a, done_b) = ferry(&mut ra, &mut rb, resent.sends(), 1_000 * MS);
    assert_eq!((done_a.0.len(), done_b.0.len()), (1, 1));
    assert_eq!((ra.by_vec.tracked(), rb.by_vec.tracked()), (0, 0));
    // A's application exits normally: the registry inherits the
    // connection and closes it; B's dies, so its registry resets.
    let fin = ra.app_exit(APP_A, done_a, false, 2_000 * MS);
    assert!(fin.sends().iter().any(|(repr, _)| repr.flags.fin));
    let rst = rb.app_exit(APP_B, done_b, true, 2_000 * MS);
    assert!(rst.sends().iter().any(|(repr, _)| repr.flags.rst));
    // The FIN meets a dead endpoint at B and the RST ends A's closer.
    ferry(&mut ra, &mut rb, fin.sends(), 2_000 * MS);
    let (repr, payload) = rst.sends().remove(0);
    ra.on_segment(IP_B, &repr, &payload, 2_001 * MS);
    assert_eq!(ra.by_vec.tracked(), 0);
    // A timer for a connection that is gone produces nothing.
    assert!(ra
        .on_timer(hs, TcpTimer::Retransmit, 3_000 * MS)
        .by_vec
        .is_empty());
}

#[test]
fn strays_and_a_dying_owner_are_the_same_through_both_forms() {
    let mut ra = Twin::new(IP_A);
    let mut rb = Twin::new(IP_B);
    rb.listen(APP_B, 80);
    // A SYN to a port nobody listens on is reset; the RST is not answered.
    let (_, syn) = ra.connect(APP_A, (IP_B, 81), 0).expect("ports to spare");
    let (repr, payload) = syn.sends().remove(0);
    let rst = rb.on_segment(IP_A, &repr, &payload, MS);
    let (rst_repr, rst_payload) = rst.sends().remove(0);
    assert!(rst_repr.flags.rst);
    assert!(rb.on_segment(IP_A, &rst_repr, &[], MS).by_vec.is_empty());
    // The RST fails A's handshake.
    let failed = ra.on_segment(IP_B, &rst_repr, &rst_payload, 2 * MS);
    assert!(matches!(
        failed.by_vec[..],
        [.., RegistryAction::Failed { .. }]
    ));
    // A non-SYN to a listening port is reset too.
    let ack = TcpRepr {
        flags: unp_wire::TcpFlags::ack(),
        dst_port: 80,
        ..repr
    };
    assert!(
        rb.on_segment(IP_A, &ack, &[], 3 * MS).sends()[0]
            .0
            .flags
            .rst
    );
    // An owner dies with a handshake half open at each end.
    let (_, syn) = ra
        .connect(APP_A, (IP_B, 80), 4 * MS)
        .expect("ports to spare");
    let (repr, payload) = syn.sends().remove(0);
    rb.on_segment(IP_A, &repr, &payload, 5 * MS);
    assert_eq!((ra.by_vec.tracked(), rb.by_vec.tracked()), (1, 1));
    let died_a = ra.owner_died(APP_A);
    assert!(matches!(
        died_a.by_vec[..],
        [.., RegistryAction::Failed { .. }]
    ));
    rb.owner_died(APP_B);
    assert_eq!((ra.by_vec.tracked(), rb.by_vec.tracked()), (0, 0));
    // Every ephemeral port bound: both forms refuse alike.
    let mut full = Twin::new(IP_A);
    while full.connect(APP_A, (IP_B, 80), 0).is_some() {}
}
