//! The registry server's unit tests: handshakes between two registries,
//! port ownership, inheritance and the ways a handshake ends.

use super::*;
use unp_tcp::State;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Ferries segments between two registries until both sides' handshake
/// completes or traffic dries up. Returns completed TCBs.
fn run_handshake(
    ra: &mut RegistryServer,
    rb: &mut RegistryServer,
    mut pending: Vec<(bool, TcpRepr, Vec<u8>)>, // (to_b, repr, payload)
) -> (Vec<Tcb>, Vec<Tcb>) {
    let mut done_a = Vec::new();
    let mut done_b = Vec::new();
    let mut now = 0;
    let mut steps = 0;
    while let Some((to_b, repr, payload)) = pending.pop() {
        steps += 1;
        assert!(steps < 100, "handshake livelock");
        now += 100_000;
        let actions = if to_b {
            rb.on_segment(IP_A, &repr, &payload, now)
        } else {
            ra.on_segment(IP_B, &repr, &payload, now)
        };
        for a in actions {
            match a {
                RegistryAction::Send {
                    repr,
                    payload,
                    remote,
                    ..
                } => {
                    pending.push((remote == IP_B, repr, payload));
                }
                RegistryAction::Complete { tcb, .. } => {
                    if to_b {
                        done_b.push(*tcb);
                    } else {
                        done_a.push(*tcb);
                    }
                }
                _ => {}
            }
        }
    }
    (done_a, done_b)
}

#[test]
fn registry_executes_three_way_handshake() {
    let mut ra = RegistryServer::new(IP_A);
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();

    let (_hs, actions) = ra
        .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let mut pending = Vec::new();
    for a in actions {
        if let RegistryAction::Send {
            repr,
            payload,
            remote,
            ..
        } = a
        {
            pending.push((remote == IP_B, repr, payload));
        }
    }
    let (done_a, done_b) = run_handshake(&mut ra, &mut rb, pending);
    assert_eq!(done_a.len(), 1, "active side completed");
    assert_eq!(done_b.len(), 1, "passive side completed");
    assert_eq!(done_a[0].state(), State::Established);
    assert_eq!(done_b[0].state(), State::Established);
    // Both registries dropped the connection from their tables: the
    // data path now bypasses the server.
    assert_eq!(ra.tracked(), 0);
    assert_eq!(rb.tracked(), 0);
    // The endpoints agree.
    assert_eq!(done_a[0].remote(), done_b[0].local());
    assert_eq!(done_b[0].remote(), done_a[0].local());
}

#[test]
fn connection_specs_are_distillable() {
    // The flow-table fast path depends on setup installing exact-match
    // bindings; pin that here for both link framings.
    for lhl in [14usize, 18] {
        let spec = connection_demux_spec(lhl, (IP_A, 80), (IP_B, 5000));
        let key = spec.distill().expect("setup specs must distill");
        assert_eq!(key.protocol, IpProtocol::Tcp.to_u8());
        assert_eq!((key.local_ip, key.local_port), (IP_A, 80));
        assert_eq!((key.remote_ip, key.remote_port), (IP_B, 5000));
    }
}

#[test]
fn listen_port_conflicts_rejected() {
    let mut r = RegistryServer::new(IP_A);
    assert!(r.listen(OwnerTag(1), 80, TcpConfig::default()).is_ok());
    assert_eq!(
        r.listen(OwnerTag(2), 80, TcpConfig::default()).err(),
        Some(RegistryError::PortUnavailable)
    );
    assert!(r.unlisten(OwnerTag(2), 80).is_err(), "only owner unbinds");
    assert!(r.unlisten(OwnerTag(1), 80).is_ok());
    assert!(r.listen(OwnerTag(2), 80, TcpConfig::default()).is_ok());
}

#[test]
fn stray_segment_answered_with_rst() {
    let mut r = RegistryServer::new(IP_A);
    let stray = TcpRepr {
        src_port: 1234,
        dst_port: 9999,
        seq: unp_wire::SeqNum(5),
        ack_num: unp_wire::SeqNum(0),
        flags: unp_wire::TcpFlags::SYN,
        window: 100,
        mss: None,
    };
    let actions = r.on_segment(IP_B, &stray, &[], 0);
    assert_eq!(actions.len(), 1);
    // A RST on behalf of no connection.
    let RegistryAction::Send { hs: None, repr, .. } = &actions[0] else {
        panic!("expected RST send");
    };
    assert!(repr.flags.rst);
    // RSTs themselves are not answered (no storm).
    let actions = r.on_segment(IP_B, repr, &[], 0);
    assert!(actions.is_empty());
}

#[test]
fn abnormal_exit_resets_peer() {
    // Build an established pair through the registries.
    let mut ra = RegistryServer::new(IP_A);
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
    let (_hs, actions) = ra
        .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let mut pending = Vec::new();
    for a in actions {
        if let RegistryAction::Send {
            repr,
            payload,
            remote,
            ..
        } = a
        {
            pending.push((remote == IP_B, repr, payload));
        }
    }
    let (done_a, _done_b) = run_handshake(&mut ra, &mut rb, pending);
    let tcb_a = done_a.into_iter().next().unwrap();

    // The app on A crashes; registry A resets the peer.
    let actions = ra.app_exit(OwnerTag(10), vec![tcb_a], true, 1_000_000);
    let sent_rst = actions
        .iter()
        .any(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.rst));
    assert!(sent_rst, "abnormal exit must RST the peer: {actions:?}");
}

#[test]
fn owner_death_releases_listeners_and_aborts_handshakes() {
    let mut r = RegistryServer::new(IP_A);
    r.listen(OwnerTag(5), 80, TcpConfig::default()).unwrap();
    r.listen(OwnerTag(6), 81, TcpConfig::default()).unwrap();
    // An in-flight active open by the doomed owner.
    let (hs, _) = r
        .connect(OwnerTag(5), (IP_B, 90), TcpConfig::default(), 0)
        .unwrap();
    assert_eq!(r.tracked(), 1);

    let (actions, report) = r.owner_died(OwnerTag(5));
    assert_eq!(report.listeners, vec![80]);
    assert_eq!(report.handshakes.len(), 1);
    assert_eq!(report.handshakes[0].0, hs.0.get());
    // The aborted handshake surfaces as Failed so the hosting world
    // can tear down its channel (SYN_SENT aborts emit no RST).
    assert!(actions
        .iter()
        .any(|a| matches!(a, RegistryAction::Failed { hs: f, .. } if *f == hs)));
    assert_eq!(r.tracked(), 0, "aborted handshake reaped");
    // The dead owner's listening port is immediately re-bindable; the
    // survivor's is untouched.
    assert!(r.listen(OwnerTag(9), 80, TcpConfig::default()).is_ok());
    assert_eq!(
        r.listen(OwnerTag(9), 81, TcpConfig::default()).err(),
        Some(RegistryError::PortUnavailable)
    );
    // Idempotent on a second call.
    let (actions, report) = r.owner_died(OwnerTag(5));
    assert!(actions.is_empty());
    assert_eq!(report, DeathReport::default());
}

#[test]
fn abort_in_syn_sent_fails_without_a_segment_and_returns_the_port() {
    let mut r = RegistryServer::new(IP_A);
    let mut out = Vec::new();
    let cfg = TcpConfig::default();
    let (hs, port) = r
        .connect_into(OwnerTag(3), (IP_B, 80), cfg, 0, &mut out)
        .unwrap();
    assert!(!r.port_free(port, 0));
    out.clear();
    r.abort_into(hs, &mut out);
    let sends = out
        .iter()
        .filter(|a| matches!(a, RegistryAction::Send { .. }));
    assert_eq!(sends.count(), 0, "the peer never saw our SYN: {out:?}");
    assert!(
        matches!(out.last(), Some(RegistryAction::Failed { hs: f, owner: OwnerTag(3) }) if *f == hs),
        "{out:?}"
    );
    assert_eq!(r.tracked(), 0);
    assert!(r.port_free(port, 0), "the ephemeral port went back");
}

#[test]
fn abort_in_syn_rcvd_resets_the_peer_then_fails() {
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
    let mut ra = RegistryServer::new(IP_A);
    let (_hs, actions) = ra
        .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
        panic!("expected SYN");
    };
    let mut out = Vec::new();
    let hs = rb.on_segment_into(IP_A, syn, &[], 1_000, &mut out);
    let hs = hs.expect("a SYN the listener takes opens a handshake");
    out.clear();
    rb.abort_into(hs, &mut out);
    let [RegistryAction::Send {
        hs: Some(sent),
        repr: rst,
        ..
    }, .., RegistryAction::Failed { hs: failed, .. }] = &out[..]
    else {
        panic!("expected a RST, then Failed: {out:?}");
    };
    assert!(rst.flags.rst && (*sent, *failed) == (hs, hs), "{out:?}");
    assert_eq!(rb.tracked(), 0);
    assert!(!rb.port_free(80, 1_000), "the listener still holds port 80");
    // The peer, still in SYN_SENT, takes the RST: it acknowledges the SYN.
    let reset = ra.on_segment(IP_B, rst, &[], 2_000);
    assert!(
        reset
            .iter()
            .any(|a| matches!(a, RegistryAction::Failed { .. })),
        "{reset:?}"
    );
    // An abort of what the registry no longer tracks adds nothing.
    out.clear();
    rb.abort_into(hs, &mut out);
    assert!(out.is_empty());
}

#[test]
fn library_side_close_returns_the_ephemeral_port() {
    let mut r = RegistryServer::new(IP_A);
    let span = usize::from(ports::EPHEMERAL_LIMIT - ports::EPHEMERAL_BASE) + 1;
    for _ in 0..span {
        r.connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
            .unwrap();
    }
    let exhausted = r.connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0);
    assert_eq!(exhausted.err(), Some(RegistryError::Exhausted));
    r.connection_closed(2000);
    assert!(r
        .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
        .is_ok());
}

#[test]
fn connect_allocates_distinct_ephemeral_ports() {
    let mut r = RegistryServer::new(IP_A);
    let (_h1, a1) = r
        .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let (_h2, a2) = r
        .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let port_of = |acts: &[RegistryAction]| {
        acts.iter()
            .find_map(|a| match a {
                RegistryAction::Send { repr, .. } => Some(repr.src_port),
                _ => None,
            })
            .unwrap()
    };
    assert_ne!(port_of(&a1), port_of(&a2));
    assert_eq!(r.tracked(), 2);
}

#[test]
fn registry_retransmits_syn_on_timer() {
    let mut r = RegistryServer::new(IP_A);
    let (hs, actions) = r
        .connect(OwnerTag(1), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let syn_count = actions
        .iter()
        .filter(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.syn))
        .count();
    assert_eq!(syn_count, 1);
    // No response: the retransmission timer fires and the SYN reissues.
    let actions = r.on_timer(hs, unp_tcp::TcpTimer::Retransmit, 1_000_000_000);
    assert!(actions
        .iter()
        .any(|a| matches!(a, RegistryAction::Send { repr, .. } if repr.flags.syn)));
    assert_eq!(r.tracked(), 1, "handshake still pending");
}

#[test]
fn handshake_gives_up_and_reports_failure() {
    let mut r = RegistryServer::new(IP_A);
    let cfg = TcpConfig {
        max_retransmits: 2,
        ..TcpConfig::default()
    };
    let (hs, _) = r.connect(OwnerTag(7), (IP_B, 80), cfg, 0).unwrap();
    let mut failed = false;
    let mut now = 0u64;
    for _ in 0..6 {
        now += 70_000_000_000;
        let actions = r.on_timer(hs, unp_tcp::TcpTimer::Retransmit, now);
        if actions
            .iter()
            .any(|a| matches!(a, RegistryAction::Failed { owner, .. } if *owner == OwnerTag(7)))
        {
            failed = true;
            break;
        }
    }
    assert!(failed, "retry budget exhausted must report Failed");
    assert_eq!(r.tracked(), 0, "failed handshake reaped");
    // The ephemeral port was released for reuse.
    let (_hs2, actions2) = r
        .connect(OwnerTag(7), (IP_B, 80), TcpConfig::default(), now)
        .unwrap();
    assert!(!actions2.is_empty());
}

/// An active open from `ra` to `rb`'s `port`, run to completion.
fn open(ra: &mut RegistryServer, rb: &mut RegistryServer, port: u16) {
    let (_hs, actions) = ra
        .connect(OwnerTag(10), (IP_B, port), TcpConfig::default(), 0)
        .unwrap();
    let syn = actions.into_iter().filter_map(|a| match a {
        RegistryAction::Send { repr, payload, .. } => Some((true, repr, payload)),
        _ => None,
    });
    let (_, accepted) = run_handshake(ra, rb, syn.collect());
    assert_eq!(accepted.len(), 1, "accepted on port {port}");
}

/// The local port of a fresh active open by `r`.
fn active_open_port(r: &mut RegistryServer) -> u16 {
    let (_hs, actions) = r
        .connect(OwnerTag(20), (IP_A, 9), TcpConfig::default(), 0)
        .unwrap();
    let RegistryAction::Send { repr, .. } = &actions[0] else {
        panic!("expected SYN");
    };
    repr.src_port
}

#[test]
fn a_port_is_released_when_its_last_holder_goes() {
    // An accepted connection shares its listener's port, and outlives
    // the listener: the port stays bound — not handed to an active
    // open, not freed by the first accepted connection to close —
    // until the last of them is gone.
    const PORT: u16 = crate::ports::EPHEMERAL_BASE + 6;
    let mut ra = RegistryServer::new(IP_A);
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), PORT, TcpConfig::default()).unwrap();
    open(&mut ra, &mut rb, PORT);
    open(&mut ra, &mut rb, PORT);
    rb.unlisten(OwnerTag(20), PORT).unwrap();
    assert!(!rb.port_free(PORT, 0), "two accepted connections use it");
    // The allocator walks up from EPHEMERAL_BASE, past PORT.
    let taken: Vec<u16> = (0..8).map(|_| active_open_port(&mut rb)).collect();
    assert!(!taken.contains(&PORT), "handed out under them: {taken:?}");
    rb.connection_closed(PORT);
    assert!(!rb.port_free(PORT, 0), "one accepted connection left");
    rb.connection_closed(PORT);
    assert!(rb.port_free(PORT, 0), "the last holder went");
    // While the listener lives, its accepted connections come and go
    // without touching its binding.
    rb.listen(OwnerTag(20), PORT, TcpConfig::default()).unwrap();
    open(&mut ra, &mut rb, PORT);
    rb.connection_closed(PORT);
    assert!(!rb.port_free(PORT, 0), "the listener holds it");
}

#[test]
fn a_refused_passive_open_leaves_the_listeners_port_bound() {
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), 80, TcpConfig::default()).unwrap();
    let mut ra = RegistryServer::new(IP_A);
    let (_hs, actions) = ra
        .connect(OwnerTag(10), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
        panic!("expected SYN");
    };
    let reply = rb.on_segment(IP_A, syn, &[], 1_000);
    let RegistryAction::Send { repr: syn_ack, .. } = &reply[0] else {
        panic!("expected SYN-ACK");
    };
    assert_eq!(rb.tracked(), 1);
    // The client changes its mind: RST instead of the final ACK.
    let rst = Tcb::rst_for((IP_A, syn.src_port), syn_ack, 0);
    rb.on_segment(IP_A, &rst, &[], 2_000);
    assert_eq!(rb.tracked(), 0, "half-open connection reaped");
    assert!(!rb.port_free(80, 2_000), "the listener still holds port 80");
}

#[test]
fn rst_during_handshake_fails_cleanly() {
    let mut r = RegistryServer::new(IP_A);
    let (hs, actions) = r
        .connect(OwnerTag(3), (IP_B, 80), TcpConfig::default(), 0)
        .unwrap();
    let RegistryAction::Send { repr: syn, .. } = &actions[0] else {
        panic!("expected SYN");
    };
    let _ = hs;
    // The peer answers with RST (port closed there).
    let rst = Tcb::rst_for((IP_B, 80), syn, 0);
    let actions = r.on_segment(IP_B, &rst, &[], 1_000_000);
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, RegistryAction::Failed { .. })),
        "RST must fail the handshake: {actions:?}"
    );
    assert_eq!(r.tracked(), 0);
}

/// The segments among `actions` toward the peer, with their payloads.
fn sent(actions: &[RegistryAction]) -> Vec<(TcpRepr, Vec<u8>)> {
    let sends = actions.iter().filter_map(|a| match a {
        RegistryAction::Send { repr, payload, .. } => Some((*repr, payload.clone())),
        _ => None,
    });
    sends.collect()
}

/// Hands every segment in `actions` to `dst`; what it answers.
fn deliver(dst: &mut Tcb, actions: Vec<TcpAction>, now: Nanos) -> Vec<TcpAction> {
    let mut out = Vec::new();
    for a in actions {
        if let TcpAction::Send(repr, payload) = a {
            out.extend(dst.on_segment(&repr, &payload, now));
        }
    }
    out
}

/// Hands every segment in `actions` to `peer`; what it answers.
fn to_peer(peer: &mut Tcb, actions: &[RegistryAction], now: Nanos) -> Vec<TcpAction> {
    let mut out = Vec::new();
    for (repr, payload) in sent(actions) {
        out.extend(peer.on_segment(&repr, &payload, now));
    }
    out
}

/// Hands every segment `peer` emitted to `r`; what it answers.
fn from_peer(r: &mut RegistryServer, actions: Vec<TcpAction>, now: Nanos) -> Vec<RegistryAction> {
    let mut out = Vec::new();
    for a in actions {
        if let TcpAction::Send(repr, payload) = a {
            out.extend(r.on_segment(IP_B, &repr, &payload, now));
        }
    }
    out
}

#[test]
fn connections_the_registry_ends_leave_their_storage_to_the_next() {
    let cfg = TcpConfig::default();
    let mut ra = RegistryServer::new(IP_A);
    let mut rb = RegistryServer::new(IP_B);
    rb.listen(OwnerTag(20), 80, cfg.clone()).unwrap();
    // A handshake its owner's death aborts leaves its block.
    ra.connect(OwnerTag(10), (IP_B, 90), cfg.clone(), 0)
        .unwrap();
    ra.owner_died(OwnerTag(10));
    assert_eq!(ra.spare(), [1, 0]);
    // The next connection opens in it.
    let (_, actions) = ra.connect(OwnerTag(11), (IP_B, 80), cfg, 0).unwrap();
    assert_eq!(ra.spare(), [0, 0]);
    let pending = sent(&actions).into_iter();
    let (done_a, done_b) = run_handshake(
        &mut ra,
        &mut rb,
        pending.map(|(r, p)| (true, r, p)).collect(),
    );
    let (mut a, mut b) = (
        done_a.into_iter().next().unwrap(),
        done_b.into_iter().next().unwrap(),
    );
    // It carries data, then its application exits: the registry inherits
    // it and closes it. Once it enters TIME_WAIT with both rings drained
    // a record sits out the wait, and the block goes to the spare with its
    // rings; the wait's end gives back nothing more.
    let ack = deliver(&mut b, a.send(b"hello", 1).unwrap().1, 1);
    deliver(&mut a, ack, 2);
    let fin = ra.app_exit(OwnerTag(11), vec![a], false, 3);
    let ack = to_peer(&mut b, &fin, 4);
    from_peer(&mut ra, ack, 5);
    assert_eq!(ra.spare(), [0, 0], "FIN_WAIT_2 keeps its rings");
    let fin = b.close(6).unwrap();
    let wait = from_peer(&mut ra, fin, 7);
    assert_eq!(ra.spare(), [1, 1], "TIME_WAIT holds no block");
    let Some(&RegistryAction::SetTimer(hs, TcpTimer::TimeWait, at)) = wait
        .iter()
        .find(|a| matches!(a, RegistryAction::SetTimer(_, TcpTimer::TimeWait, _)))
    else {
        panic!("TIME_WAIT armed: {wait:?}");
    };
    ra.on_timer(hs, TcpTimer::TimeWait, at);
    assert_eq!((ra.tracked(), ra.spare()), (0, [1, 1]));
}
