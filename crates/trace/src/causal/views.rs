//! The views over a built [`CausalGraph`]: the per-frame and
//! per-connection postmortems, the summary and its counts, and the Chrome
//! trace export.

use std::collections::BTreeMap;

use super::{Attribution, CausalGraph, Cause, Journey, JourneyFate, Stage};
use crate::Nanos;

impl CausalGraph {
    /// Per-cause retransmit counts, sorted by label.
    pub fn cause_counts(&self) -> Vec<(&'static str, usize)> {
        tally(self.rexmits.iter().map(|a| a.cause.label()))
    }

    /// Per-kind loss counts, sorted by label.
    pub fn loss_counts(&self) -> Vec<(&'static str, usize)> {
        tally(self.losses().map(|(_, loss)| loss.label()))
    }

    /// The postmortem timeline of one frame's journey, with the
    /// attributed cause chain of any retransmit it triggered.
    pub fn explain_frame(&self, frame: u64) -> String {
        let Some(j) = self.journey(frame) else {
            return format!("frame {frame}: not in journal\n");
        };
        let mut out = String::new();
        let peer =
            j.rx.first()
                .and_then(|tr| tr.host)
                .map_or("?".to_string(), |h| h.to_string());
        let me = j.tx_host.map_or("?".to_string(), |h| h.to_string());
        out.push_str(&format!("frame {frame}: host {me} \u{2192} host {peer}\n"));
        let t0 = j.start().unwrap_or(0);
        let line = |t: Nanos, what: String| format!("  +{:<9} {}\n", t.saturating_sub(t0), what);
        if let Some(s) = &j.seg {
            out.push_str(&line(
                s.t,
                format!(
                    "tcp tx   lp={} rp={} seq={} payload={}",
                    s.local_port, s.remote_port, s.seq, s.payload
                ),
            ));
        }
        if let (Some(ok), Some(s)) = (j.template_ok, &j.seg) {
            out.push_str(&line(s.t, format!("template check ok={ok}")));
        }
        if let Some(tx) = j.nic_tx {
            out.push_str(&line(tx, "nic_tx".into()));
            if let (Some(q), Some(w)) = (j.link_queue, j.link_wire) {
                out.push_str(&line(tx + q, format!("wire     queue={q} serialize={w}")));
            }
        }
        for &(t, kind, from, to) in &j.faults {
            out.push_str(&line(
                t,
                format!("fault    {} on link {from}\u{2192}{to}", kind.label()),
            ));
        }
        for tr in &j.rx {
            for (stage, t) in tr.present() {
                out.push_str(&line(t, stage.label().to_string()));
            }
            out.push_str(&format!("  rx outcome: {}\n", tr.outcome.label()));
        }
        out.push_str(&format!("  fate: {}\n", j.describe_fate()));
        if let Some(split) = j.lat_split() {
            let e2e = j.end_to_end().unwrap_or(0);
            out.push_str(&format!("  latency split (end-to-end {e2e} ns):\n"));
            for c in split {
                if c.ns == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<14} {:>9} ns  [{}]\n",
                    c.label,
                    c.ns,
                    if c.queue { "queue" } else { "service" }
                ));
            }
        }
        for a in self.rexmits.iter().filter(|a| match a.cause {
            Cause::DataLoss { frame: f, .. }
            | Cause::AckLoss { data_frame: f, .. }
            | Cause::Reorder { frame: f }
            | Cause::InFlight { frame: f }
            | Cause::LateDelivery { frame: f } => f == frame,
            _ => false,
        }) {
            out.push_str(&format!(
                "  triggered rexmit at t={} seq={} reason={} \u{2014} {}\n",
                a.t,
                a.seq,
                a.reason.label(),
                a.cause.describe()
            ));
        }
        out
    }

    /// The postmortem report of one connection (any attribution or
    /// journey touching `port` on either side).
    pub fn explain_conn(&self, port: u16) -> String {
        let mut out = String::new();
        let rexmits: Vec<&Attribution> = self
            .rexmits
            .iter()
            .filter(|a| a.local_port == port || a.remote_port == port)
            .collect();
        let on_port = |j: &Journey| {
            j.seg
                .as_ref()
                .is_some_and(|s| s.local_port == port || s.remote_port == port)
        };
        let journeys = self.journeys.iter().filter(|j| on_port(j)).count();
        out.push_str(&format!(
            "conn :{port} \u{2014} {journeys} transmissions, {} retransmits\n",
            rexmits.len()
        ));
        for a in &rexmits {
            out.push_str(&format!(
                "  t={:<11} rexmit lp={} seq={} bytes={} reason={:<7} \u{2190} {}\n",
                a.t,
                a.local_port,
                a.seq,
                a.bytes,
                a.reason.label(),
                a.cause.describe()
            ));
        }
        let losses: Vec<_> = self.losses().filter(|(j, _)| on_port(j)).collect();
        if !losses.is_empty() {
            out.push_str("  losses:\n");
            for (j, loss) in losses {
                let s = j.seg.as_ref().unwrap();
                out.push_str(&format!(
                    "    f{:<5} seq={} payload={} \u{2014} {}\n",
                    j.frame,
                    s.seq,
                    s.payload,
                    loss.describe()
                ));
            }
        }
        out
    }

    /// Summary block for reports: coverage plus cause/loss breakdowns.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "journeys: {} ({} arrived, {} lost, {} in flight)\n",
            self.journeys.len(),
            self.journeys
                .iter()
                .filter(|j| j.fate == JourneyFate::Arrived)
                .count(),
            self.losses().count(),
            self.journeys
                .iter()
                .filter(|j| j.fate == JourneyFate::InFlight)
                .count(),
        ));
        out.push_str(&format!(
            "rexmits: {} attributed {:.1}%\n",
            self.rexmits.len(),
            self.coverage() * 100.0
        ));
        for (label, n) in self.cause_counts() {
            out.push_str(&format!("  cause {label:<14} {n}\n"));
        }
        for (label, n) in self.loss_counts() {
            out.push_str(&format!("  loss  {label:<14} {n}\n"));
        }
        out
    }

    /// Serializes the graph as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto format): one process per host, a
    /// `tx path` and an `rx path` track each, duration events per
    /// journey stage, flow arrows (`s`/`f`) tying each wire hop from
    /// sender to receiver, and instant events for fault verdicts and
    /// retransmits. Deterministic: journeys serialize in creation order
    /// and timestamps are exact decimal microseconds.
    pub fn render_chrome_trace(&self) -> String {
        let us = |ns: Nanos| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut ev: Vec<String> = Vec::new();
        let mut hosts: Vec<u16> = self
            .journeys
            .iter()
            .flat_map(|j| {
                j.tx_host
                    .into_iter()
                    .chain(j.rx.iter().filter_map(|tr| tr.host))
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        for &h in &hosts {
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {h}, \"args\": {{\"name\": \"host{h}\"}}}}"
            ));
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {h}, \"tid\": 0, \"args\": {{\"name\": \"tx path\"}}}}"
            ));
            ev.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {h}, \"tid\": 1, \"args\": {{\"name\": \"rx path\"}}}}"
            ));
        }
        for j in &self.journeys {
            let f = j.frame;
            let txh = j.tx_host.unwrap_or(0);
            if let (Some(s), Some(tx)) = (&j.seg, j.nic_tx) {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"tx_build\", \"cat\": \"tx\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}, \"seq\": {}, \"payload\": {}}}}}",
                    us(s.t),
                    us(tx - s.t),
                    s.seq,
                    s.payload
                ));
            }
            if let (Some(tx), Some(q), Some(w)) = (j.nic_tx, j.link_queue, j.link_wire) {
                if q > 0 {
                    ev.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"link_queue\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                        us(tx),
                        us(q)
                    ));
                }
                ev.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"link_wire\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                    us(tx + q),
                    us(w)
                ));
                ev.push(format!(
                    "{{\"ph\": \"s\", \"id\": {f}, \"name\": \"hop\", \"cat\": \"wire\", \"pid\": {txh}, \"tid\": 0, \"ts\": {}}}",
                    us(tx)
                ));
            }
            for (ci, tr) in j.rx.iter().enumerate() {
                let Some(h) = tr.host else { continue };
                let Some(t0) = tr.stage_time(Stage::NicRx) else {
                    continue;
                };
                if ci == 0 && j.nic_tx.is_some() {
                    ev.push(format!(
                        "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": {f}, \"name\": \"hop\", \"cat\": \"wire\", \"pid\": {h}, \"tid\": 1, \"ts\": {}}}",
                        us(t0)
                    ));
                }
                for (stage, dt) in tr.components() {
                    let end = tr.stage_time(stage).unwrap_or(t0);
                    ev.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"rx\", \"pid\": {h}, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {f}}}}}",
                        stage.label(),
                        us(end - dt),
                        us(dt)
                    ));
                }
            }
            for &(t, kind, from, to) in &j.faults {
                ev.push(format!(
                    "{{\"ph\": \"i\", \"s\": \"p\", \"name\": \"fault:{}\", \"pid\": {from}, \"tid\": 0, \"ts\": {}, \"args\": {{\"frame\": {f}, \"to\": {to}}}}}",
                    kind.label(),
                    us(t)
                ));
            }
        }
        for a in &self.rexmits {
            ev.push(format!(
                "{{\"ph\": \"i\", \"s\": \"p\", \"name\": \"rexmit:{}\", \"pid\": {}, \"tid\": 0, \"ts\": {}, \"args\": {{\"seq\": {}, \"cause\": \"{}\"}}}}",
                a.reason.label(),
                a.host.unwrap_or(0),
                us(a.t),
                a.seq,
                a.cause.label()
            ));
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ns\",\n \"traceEvents\": [\n  ");
        out.push_str(&ev.join(",\n  "));
        out.push_str("\n]}\n");
        out
    }
}

/// How many times each label occurs, sorted by label.
fn tally(labels: impl Iterator<Item = &'static str>) -> Vec<(&'static str, usize)> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for label in labels {
        *counts.entry(label).or_default() += 1;
    }
    counts.into_iter().collect()
}
