//! Spans: who called whom, and for how long, recorded from the benchmark's
//! own files around its calls into each layer.
//!
//! A span is `{name, start, end, parent}` plus a call count. Two kinds exist.
//! A *probe* span brackets a batch of calls into one layer's public
//! functions; timing each 10–100 ns call on its own would mostly measure the
//! clock, so the batch is the span and `calls` says how many it covered. An
//! *app* span rolls up every invocation of one application callback inside
//! one engine slice: the callbacks are timed one by one, but a quarter of a
//! million of them per round would drown the output, so the slice they ran in
//! is their parent and `busy` is their summed duration. For every other span
//! `busy` is simply `end - start`.
//!
//! A span's **self time** is its `busy` minus its children's `busy`: for an
//! engine slice, the time spent in the stack and not in the benchmark's apps.
//! Spans live in memory and are written once, when the run ends.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dotted `layer.what` name; probe spans are named after their metric.
    pub name: &'static str,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// When it started.
    pub start_ns: u64,
    /// When it ended.
    pub end_ns: u64,
    /// Calls it covers.
    pub calls: u64,
    /// Time attributed to it (`end - start`, or the rolled-up sum).
    pub busy_ns: u64,
}

/// The application callbacks the benchmark's apps time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `AppLogic::on_connected`.
    Connected,
    /// `AppLogic::on_data`.
    Data,
    /// `AppLogic::on_send_space`.
    SendSpace,
}

impl Callback {
    const ALL: [Callback; 3] = [Callback::Connected, Callback::Data, Callback::SendSpace];

    fn name(self) -> &'static str {
        match self {
            Callback::Connected => "app.on_connected",
            Callback::Data => "app.on_data",
            Callback::SendSpace => "app.on_send_space",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Rollup {
    calls: u64,
    busy_ns: u64,
    first_start_ns: u64,
    last_end_ns: u64,
}

struct AppClock {
    epoch: Instant,
    rollups: [Cell<Rollup>; 3],
}

/// Handle the apps time their callbacks with. Off (the untraced run) it
/// reads no clock at all.
#[derive(Clone)]
pub struct AppTimer(Option<Rc<AppClock>>);

impl AppTimer {
    /// A timer that records nothing.
    pub fn off() -> AppTimer {
        AppTimer(None)
    }

    /// Call on entry to a callback; pass the result to [`AppTimer::stop`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Call on exit from a callback.
    #[inline]
    pub fn stop(&self, callback: Callback, started: Option<Instant>) {
        let (Some(clock), Some(t0)) = (self.0.as_ref(), started) else {
            return;
        };
        let end = Instant::now();
        let cell = &clock.rollups[callback as usize];
        let mut r = cell.get();
        if r.calls == 0 {
            r.first_start_ns = (t0 - clock.epoch).as_nanos() as u64;
        }
        r.calls += 1;
        r.busy_ns += (end - t0).as_nanos() as u64;
        r.last_end_ns = (end - clock.epoch).as_nanos() as u64;
        cell.set(r);
    }
}

/// Holds every span of one traced workload run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    app: Rc<AppClock>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        let epoch = Instant::now();
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            app: Rc::new(AppClock {
                epoch,
                rollups: Default::default(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside whichever span is open now.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            calls: 0,
            busy_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, as covering
    /// `calls` calls.
    pub fn close(&mut self, id: usize, calls: u64) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
        span.calls = calls;
    }

    /// Runs `f` as one span covering `calls` calls.
    pub fn time<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id, calls);
        out
    }

    /// The handle apps time their callbacks with.
    pub fn app_timer(&self) -> AppTimer {
        AppTimer(Some(Rc::clone(&self.app)))
    }

    /// Moves the callback time gathered since the last call into child spans
    /// of the innermost open span (the engine slice that just ran).
    pub fn collect_app(&mut self) {
        let parent = self.open.last().copied();
        for callback in Callback::ALL {
            let r = self.app.rollups[callback as usize].take();
            if r.calls > 0 {
                self.spans.push(Span {
                    name: callback.name(),
                    parent,
                    start_ns: r.first_start_ns,
                    end_ns: r.last_end_ns,
                    calls: r.calls,
                    busy_ns: r.busy_ns,
                });
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self time per call of every span named `name`.
    pub fn self_ns_per_call(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_ns();
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && s.calls > 0)
            .map(|(s, &ns)| ns as f64 / s.calls as f64)
            .collect()
    }

    /// Total `busy` time and calls of every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(b, c), s| (b + s.busy_ns, c + s.calls))
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self.self_ns();
        let mut out =
            format!("{{\"workload\": \"{workload}\", \"time_unit\": \"ns\", \"spans\": [");
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start\": {}, \"end\": {}, \"calls\": {}, \"busy\": {}, \"self\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its `busy` minus what its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.busy_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, busy: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: busy,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", None, 0, 1000, 1000),
            span("child", Some(0), 100, 500, 400),
            span("grandchild", Some(1), 200, 300, 100),
            span("rollup", Some(0), 600, 900, 50),
        ];
        assert_eq!(self_times(&spans), vec![550, 300, 100, 50]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = [
            span("root", None, 0, 10, 10),
            span("child", Some(0), 0, 12, 12),
        ];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_nests_and_rolls_up_app_time() {
        let mut rec = Recorder::new();
        let timer = rec.app_timer();
        let slice = rec.open("core.slice");
        for _ in 0..3 {
            let t = timer.start();
            std::hint::black_box((0..100).sum::<u64>());
            timer.stop(Callback::Data, t);
        }
        rec.collect_app();
        rec.close(slice, 2000);
        let inner = rec.time("wire.parse", 7, || 1 + 1);
        assert_eq!(inner, 2);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].calls),
            ("app.on_data", Some(0), 3)
        );
        assert_eq!((spans[2].parent, spans[2].calls), (None, 7));
        let selfs = rec.self_ns();
        assert_eq!(selfs[0], spans[0].busy_ns - spans[1].busy_ns);
        assert_eq!(rec.totals("app.on_data"), (spans[1].busy_ns, 3));
        // A second collect finds nothing new.
        rec.collect_app();
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn a_timer_that_is_off_reads_no_clock() {
        let timer = AppTimer::off();
        let t = timer.start();
        assert!(t.is_none());
        timer.stop(Callback::Connected, t);
    }

    #[test]
    fn json_parses_and_carries_self_time() {
        let mut rec = Recorder::new();
        let outer = rec.open("probes");
        rec.time("sim.dispatch_ns", 500, || ());
        rec.close(outer, 1);
        let doc = unp_trace::json::parse(&rec.to_json("rr")).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("rr"));
        let spans = doc.get("spans").and_then(|v| v.items()).expect("array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(spans[1].get("calls").and_then(|v| v.as_u64()), Some(500));
        assert!(spans[0].get("self").and_then(|v| v.as_u64()).is_some());
    }
}
