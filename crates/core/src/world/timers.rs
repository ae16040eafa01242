//! The timing wheel ↔ engine coupling: one table of armed timers per
//! host beside its wheel, one scheduled [`Event::WheelFire`] at the wheel's
//! earliest deadline, and the dispatch of what fires.

use unp_sim::Nanos;
use unp_timers::TimerService;

use super::event::Event;
use super::org::userlib::handshake::with_registry;
use super::tcp::with_conn;
use super::{Eng, TimerToken, World};

/// Arms (or re-arms) the timer `token` names: the one way a deadline
/// reaches the host's wheel.
pub(super) fn arm_timer(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    token: TimerToken,
    deadline: Nanos,
) {
    let host = &mut w.hosts[h];
    if let Some(old) = host.timers.remove(&token) {
        host.wheel.stop(old);
    }
    let id = host.wheel.start(deadline, token);
    host.timers.insert(token, id);
    resched_wheel(w, eng, h);
}

pub(super) fn cancel_timer(w: &mut World, eng: &mut Eng, h: usize, token: TimerToken) {
    let host = &mut w.hosts[h];
    if let Some(old) = host.timers.remove(&token) {
        host.wheel.stop(old);
        resched_wheel(w, eng, h);
    }
}

pub(super) fn resched_wheel(w: &mut World, eng: &mut Eng, h: usize) {
    let next = w.hosts[h].wheel.next_deadline();
    match (next, w.hosts[h].wheel_event) {
        (Some(d), Some((cur, _))) if d == cur => {}
        (Some(d), prev) => {
            if let Some((_, ev)) = prev {
                eng.cancel(ev);
            }
            let ev = eng.schedule(d, Event::WheelFire { host: h });
            w.hosts[h].wheel_event = Some((d, ev));
        }
        (None, Some((_, ev))) => {
            eng.cancel(ev);
            w.hosts[h].wheel_event = None;
        }
        (None, None) => {}
    }
}

pub(super) fn wheel_fire(w: &mut World, eng: &mut Eng, h: usize) {
    fire_due(w, eng, h, |w, eng, token| {
        let now = eng.now();
        match token {
            TimerToken::Conn(cid, t) => {
                with_conn(w, eng, h, cid, None, |conn, out| {
                    conn.on_timer_into(t, now, out)
                });
            }
            TimerToken::Registry(hs, t) => with_registry(w, eng, h, |registry, out| {
                registry.on_timer_into(hs, t, now, out)
            }),
        }
    });
}

/// Takes every due token off host `h`'s wheel and hands each to
/// `dispatch` in the wheel's `(deadline, start)` order. The whole batch
/// leaves the timer table *before* any of it is dispatched, so an entry a
/// token finds under its own name at its turn can only be a re-arm made
/// by an earlier token of this batch: the table keeps that handle (the
/// timer stays cancellable, and `timers.len() == wheel.pending()` holds
/// throughout), and the fire it supersedes is dropped — the new instance
/// fires at its own deadline. A token an earlier one merely *cancelled*
/// still fires, as it always has: every timer handler re-checks the state
/// it acts on.
pub(super) fn fire_due(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    mut dispatch: impl FnMut(&mut World, &mut Eng, TimerToken),
) {
    let host = &mut w.hosts[h];
    host.wheel_event = None;
    let mut fired = std::mem::take(&mut host.fired);
    host.wheel.advance(eng.now(), &mut fired);
    for token in &fired {
        host.timers.remove(token);
    }
    for token in fired.drain(..) {
        if !w.hosts[h].timers.contains_key(&token) {
            dispatch(w, eng, token);
        }
    }
    w.hosts[h].fired = fired;
    resched_wheel(w, eng, h);
}
