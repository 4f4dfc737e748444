//! Typed begin/end spans: per-request latency attribution.
//!
//! The paper's Figure 1 is a latency-attribution claim — twelve named
//! steps between "packet arrives" and "handler runs" — and Figure 3
//! names the Lauberhorn fast-path stages that replace them. This
//! module provides typed spans ([`Stage`], [`SpanRecord`]) with parent
//! links and per-request ids, so every stack yields a machine-readable
//! per-stage breakdown.
//!
//! Design rules (the zero-perturbation guarantee):
//!
//! * a [`SpanTracer`] never touches the event queue, the RNG, or any
//!   simulated state — it is an append-only side buffer;
//! * every emission is internally gated on [`SpanTracer::is_enabled`],
//!   so a disabled tracer costs one branch and allocates nothing;
//! * enabling tracing must leave every report digest byte-identical
//!   (enforced by the tier-1 `observability` test).
//!
//! Exporters: [`chrome_trace`] renders `chrome://tracing` JSON (all
//! timestamps via integer picosecond math, so output is deterministic)
//! and [`stage_table`] renders an ASCII flamegraph-style per-stage
//! table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::SimTime;

/// Observability configuration carried by a workload: how much the run
/// records about itself. [`ObserveSpec::none`] is the default and is
/// provably zero-cost beyond one branch per would-be emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveSpec {
    /// Maximum spans retained before new ones are counted dropped; zero
    /// turns tracing off.
    pub span_cap: usize,
}

impl ObserveSpec {
    /// No observation: the default for every experiment.
    pub fn none() -> Self {
        ObserveSpec { span_cap: 0 }
    }

    /// Full observation: spans, generously capped. Used by `profile`
    /// and the zero-perturbation test.
    pub fn full() -> Self {
        Self::spans(1 << 20)
    }

    /// Spans with the given cap; zero turns tracing off.
    pub fn spans(cap: usize) -> Self {
        ObserveSpec { span_cap: cap }
    }
}

impl Default for ObserveSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// A named pipeline stage: Figure 1's kernel receive steps, Figure 3's
/// Lauberhorn fast-path stages, the bypass poll loop, and the stages
/// common to every stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Root span: NIC arrival → response at the client NIC.
    Request,
    /// Figure 1: hard interrupt entry (mask + raise softirq).
    Irq,
    /// Figure 1: NAPI softirq poll pass.
    Softirq,
    /// Figure 1: driver + IP + UDP + skb + socket lookup, per packet.
    Protocol,
    /// Figure 1: scheduler wakeup of the blocked receiver (incl. IPI).
    Wakeup,
    /// Figure 1: context switch into the receiver thread.
    ContextSwitch,
    /// Figure 1: `recvmsg`/`sendmsg` syscall entry/exit.
    Syscall,
    /// Figure 1: payload copy-out (plus LLC miss stalls).
    Copy,
    /// Unmarshalling delivered bytes into arguments.
    Unmarshal,
    /// Figure 1: response `sendmsg` + doorbell.
    SendMsg,
    /// Bypass: the busy-poll iteration that found the packet.
    Poll,
    /// Figure 3: CONTROL-line fill, NIC → parked core.
    ControlFill,
    /// Figure 3: a core parked on a CONTROL-line load (blocked in the
    /// coherence protocol, not spinning).
    Park,
    /// Figure 3: TRYAGAIN dummy unblocking a parked core.
    TryAgain,
    /// Figure 3: RETIRE pulling a core back to the kernel loop.
    Retire,
    /// Figure 5: kernel-loop dispatch (context switch into the target
    /// process).
    KernelDispatch,
    /// Figure 3: user fast path consuming the dispatch form in place.
    FastDispatch,
    /// Lauberhorn: NIC collects the response line and transmits.
    Collect,
    /// Application handler execution.
    Handler,
    /// Response transmission (descriptor + doorbell + DMA reads).
    Response,
    /// Time a delivered request sat queued behind earlier work (socket
    /// backlog, bypass RX ring) before a core picked it up.
    Queue,
    /// Time a request spent parked behind a NIC failure: backlogged
    /// during `nic_down`, waiting on shadow-state replay.
    Recovery,
    /// Client-side wait for a retransmission after a loss or drop.
    RetryWait,
    /// Client-side backoff after an overload NACK (pushback shed).
    Backoff,
}

impl Stage {
    /// Stable label used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Irq => "irq",
            Stage::Softirq => "softirq",
            Stage::Protocol => "protocol",
            Stage::Wakeup => "wakeup",
            Stage::ContextSwitch => "ctx-switch",
            Stage::Syscall => "syscall",
            Stage::Copy => "copy",
            Stage::Unmarshal => "unmarshal",
            Stage::SendMsg => "sendmsg",
            Stage::Poll => "poll",
            Stage::ControlFill => "control-fill",
            Stage::Park => "park",
            Stage::TryAgain => "tryagain",
            Stage::Retire => "retire",
            Stage::KernelDispatch => "kernel-dispatch",
            Stage::FastDispatch => "fast-dispatch",
            Stage::Collect => "collect",
            Stage::Handler => "handler",
            Stage::Response => "response",
            Stage::Queue => "queue",
            Stage::Recovery => "recovery",
            Stage::RetryWait => "retry-wait",
            Stage::Backoff => "shed-backoff",
        }
    }
}

/// Index of a span within its tracer. [`SpanId::NONE`] is the absent
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u32);

impl SpanId {
    /// "No span": the parent of root spans, and what a disabled tracer
    /// returns from `begin`.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id refers to a recorded span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }

    /// The arena index this id names, or `None` for [`SpanId::NONE`].
    pub fn index(self) -> Option<usize> {
        if self.is_some() {
            Some(self.0 as usize)
        } else {
            None
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (its index in the tracer).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// What the span measures.
    pub stage: Stage,
    /// The request being processed, when attributable.
    pub request_id: Option<u64>,
    /// Display lane: a core index, or a per-request lane for roots.
    pub track: u32,
    /// Span start.
    pub start: SimTime,
    /// Span end; `None` while still open.
    pub end: Option<SimTime>,
}

/// An append-only arena of typed spans, holding at most
/// [`ObserveSpec::span_cap`] of them; a zero cap turns it off. Each
/// span is stored at the index its id names, and a parent is always
/// recorded before its children.
///
/// Every method self-gates on [`SpanTracer::is_enabled`], so callers
/// never need an `is_enabled` branch for correctness — only to avoid
/// computing expensive inputs.
#[derive(Debug, Default)]
pub struct SpanTracer {
    cap: usize,
    spans: Vec<SpanRecord>,
    open: usize,
    dropped: u64,
    truncated: u64,
}

impl SpanTracer {
    /// Reconfigures for a new run per `spec`, clearing all state.
    pub fn configure(&mut self, spec: &ObserveSpec) {
        self.cap = spec.span_cap;
        self.reset();
    }

    /// Clears recorded spans, preserving the cap.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.open = 0;
        self.dropped = 0;
        self.truncated = 0;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Opens a span; returns [`SpanId::NONE`] when disabled or at cap
    /// (callers may pass that id straight back to [`SpanTracer::end`]).
    pub fn begin(
        &mut self,
        start: SimTime,
        stage: Stage,
        request_id: Option<u64>,
        parent: SpanId,
        track: u32,
    ) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        if self.spans.len() >= self.cap || self.spans.len() >= u32::MAX as usize - 1 {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(SpanRecord {
            id,
            parent,
            stage,
            request_id,
            track,
            start,
            end: None,
        });
        self.open += 1;
        id
    }

    /// Closes `id` at `at`. No-op for [`SpanId::NONE`] or an already
    /// closed span.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(rec) = self.spans.get_mut(id.0 as usize) {
            if rec.end.is_none() {
                rec.end = Some(at);
                self.open = self.open.saturating_sub(1);
            }
        }
    }

    /// Records an already-delimited span in one call.
    pub fn span(
        &mut self,
        stage: Stage,
        request_id: Option<u64>,
        parent: SpanId,
        track: u32,
        start: SimTime,
        end: SimTime,
    ) {
        let id = self.begin(start, stage, request_id, parent, track);
        self.end(id, end);
    }

    /// Force-closes every still-open span (run teardown: parked cores,
    /// requests in flight at the cutoff). Each open span closes at
    /// `end`, pushed out as needed so it still starts no later and ends
    /// no earlier than any of its (possibly future-scheduled) children.
    /// After this the balance invariant holds unconditionally.
    pub fn finish(&mut self, end: SimTime) {
        if self.open == 0 {
            return;
        }
        let mut close_at: Vec<SimTime> = self.spans.iter().map(|r| end.max(r.start)).collect();
        // Children sit at higher indices than their parents, so one
        // reverse pass propagates the latest child end upward. A child
        // may already be closed at an instant past `end` (work
        // scheduled to complete after the cutoff); the force-closed
        // parent must still contain it.
        for i in (0..self.spans.len()).rev() {
            let Some(rec) = self.spans.get(i) else {
                continue;
            };
            let e = rec.end.or_else(|| close_at.get(i).copied()).unwrap_or(end);
            if rec.parent.is_some() {
                if let Some(slot) = close_at.get_mut(rec.parent.0 as usize) {
                    if *slot < e {
                        *slot = e;
                    }
                }
            }
        }
        for (rec, at) in self.spans.iter_mut().zip(close_at) {
            if rec.end.is_none() {
                rec.end = Some(at);
                self.truncated += 1;
            }
        }
        self.open = 0;
    }

    /// All recorded spans, in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total spans recorded over the run.
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Spans refused because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans force-closed by [`SpanTracer::finish`].
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Spans currently open.
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// Checks the balance invariant: every span closed, every parent
    /// recorded before its child, and every closed parent's interval
    /// containing its children's. Returns the first violation.
    pub fn check_balance(&self) -> Result<(), String> {
        for rec in &self.spans {
            let Some(end) = rec.end else {
                return Err(format!("span {:?} ({:?}) never closed", rec.id, rec.stage));
            };
            if end < rec.start {
                return Err(format!("span {:?} ends before it starts", rec.id));
            }
            if rec.parent.is_some() {
                let Some(parent) = self.spans.get(rec.parent.0 as usize) else {
                    return Err(format!("span {:?} has unknown parent", rec.id));
                };
                if parent.id >= rec.id {
                    return Err(format!(
                        "parent {:?} not recorded before child {:?}",
                        parent.id, rec.id
                    ));
                }
                if parent.start > rec.start {
                    return Err(format!(
                        "child {:?} ({:?}) starts before parent {:?} ({:?})",
                        rec.id, rec.stage, parent.id, parent.stage
                    ));
                }
                if let Some(pend) = parent.end {
                    if pend < end {
                        return Err(format!(
                            "child {:?} ({:?}) outlives parent {:?} ({:?})",
                            rec.id, rec.stage, parent.id, parent.stage
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Writes `ps` picoseconds as decimal microseconds ("12.000345")
/// using only integer math, so exporter output is deterministic.
fn push_us(out: &mut String, ps: u64) {
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    // Infallible: write! to String cannot fail.
    let _ = write!(out, "{whole}.{frac:06}");
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). One complete (`"ph":"X"`) event per span; `ts`/`dur` in
/// microseconds with six deterministic decimal places; `tid` is the
/// span's track (core, or per-request lane for roots).
pub fn chrome_trace(process: &str, spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"",
    );
    push_json_escaped(&mut out, process);
    out.push_str("\"}}");
    for rec in spans {
        let end = rec.end.unwrap_or(rec.start);
        let start_ps = rec.start.since(SimTime::ZERO).as_ps();
        let dur_ps = end.since(rec.start).as_ps();
        out.push_str(",\n{\"name\":\"");
        out.push_str(rec.stage.label());
        out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
        push_us(&mut out, start_ps);
        out.push_str(",\"dur\":");
        push_us(&mut out, dur_ps);
        let _ = write!(out, ",\"pid\":0,\"tid\":{}", rec.track);
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"span\":{}", rec.id.0);
        if rec.parent.is_some() {
            let _ = write!(out, ",\"parent\":{}", rec.parent.0);
        }
        if let Some(rid) = rec.request_id {
            let _ = write!(out, ",\"request_id\":{rid}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Per-stage aggregate used by [`stage_table`].
#[derive(Debug, Clone, Default)]
struct StageAgg {
    count: u64,
    total_ps: u64,
    max_ps: u64,
    durs_ps: Vec<u64>,
}

/// Nearest-rank percentile over a sorted duration list, integer math
/// only so table output is deterministic.
fn pct_ps(sorted: &[u64], num: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(100).clamp(1, n);
    sorted.get((rank - 1) as usize).copied().unwrap_or_default()
}

/// Renders an ASCII flamegraph-style per-stage table: count, total,
/// mean, tail percentiles (p50/p90/p99) and max per stage, plus each
/// stage's share of attributed time. The `request` root and `park`
/// idle spans are excluded from the share denominator (they enclose,
/// or sit outside, the work).
pub fn stage_table(spans: &[SpanRecord]) -> String {
    let mut agg: BTreeMap<Stage, StageAgg> = BTreeMap::new();
    for rec in spans {
        let end = rec.end.unwrap_or(rec.start);
        let d = end.since(rec.start).as_ps();
        let e = agg.entry(rec.stage).or_default();
        e.count += 1;
        e.total_ps += d;
        e.max_ps = e.max_ps.max(d);
        e.durs_ps.push(d);
    }
    let denom: u64 = agg
        .iter()
        .filter(|(s, _)| !matches!(s, Stage::Request | Stage::Park))
        .map(|(_, a)| a.total_ps)
        .sum();
    let mut rows: Vec<(Stage, StageAgg)> = agg.into_iter().collect();
    // Largest total first; stage order breaks ties deterministically.
    rows.sort_by(|a, b| b.1.total_ps.cmp(&a.1.total_ps).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}  {}\n",
        "stage",
        "count",
        "total_us",
        "mean_ns",
        "p50_ns",
        "p90_ns",
        "p99_ns",
        "max_ns",
        "share",
        "profile"
    ));
    for (stage, mut a) in rows {
        a.durs_ps.sort_unstable();
        let mean_ns = a.total_ps.checked_div(a.count).unwrap_or(0) / 1000;
        let share = if denom == 0 || matches!(stage, Stage::Request | Stage::Park) {
            None
        } else {
            Some(a.total_ps as f64 / denom as f64)
        };
        let mut total_us = String::new();
        push_us(&mut total_us, a.total_ps);
        let bar = match share {
            Some(s) => "#".repeat(((s * 40.0).round() as usize).min(40)),
            None => String::new(),
        };
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}  {}\n",
            stage.label(),
            a.count,
            total_us,
            mean_ns,
            pct_ps(&a.durs_ps, 50) / 1000,
            pct_ps(&a.durs_ps, 90) / 1000,
            pct_ps(&a.durs_ps, 99) / 1000,
            a.max_ps / 1000,
            match share {
                Some(s) => format!("{:>5.1}%", s * 100.0),
                None => "-".to_string(),
            },
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        // The default tracer, `none()` and a zero cap all mean off.
        for spec in [None, Some(ObserveSpec::none()), Some(ObserveSpec::spans(0))] {
            let mut tr = SpanTracer::default();
            if let Some(spec) = spec {
                tr.configure(&spec);
            }
            assert!(!tr.is_enabled(), "{spec:?}");
            let id = tr.begin(t(1), Stage::Irq, None, SpanId::NONE, 0);
            assert_eq!(id, SpanId::NONE);
            tr.end(id, t(2));
            tr.span(Stage::Copy, Some(7), SpanId::NONE, 0, t(1), t(2));
            assert!(tr.spans().is_empty(), "{spec:?}");
            assert_eq!(tr.dropped(), 0, "{spec:?}");
        }
    }

    #[test]
    fn begin_end_pairs_and_parents() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        let root = tr.begin(t(10), Stage::Request, Some(1), SpanId::NONE, 1000);
        let child = tr.begin(t(12), Stage::Handler, Some(1), root, 0);
        tr.end(child, t(20));
        tr.end(root, t(25));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.open_count(), 0);
        assert!(tr.check_balance().is_ok());
        let c = &tr.spans()[1];
        assert_eq!(c.parent, root);
        assert_eq!(c.end, Some(t(20)));
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::spans(2));
        for i in 0..5 {
            tr.span(Stage::Irq, None, SpanId::NONE, 0, t(i), t(i + 1));
        }
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.dropped(), 3);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        let a = tr.begin(t(5), Stage::Park, None, SpanId::NONE, 0);
        assert!(a.is_some());
        assert!(tr.check_balance().is_err());
        tr.finish(t(100));
        assert_eq!(tr.truncated(), 1);
        assert!(tr.check_balance().is_ok());
        assert_eq!(tr.spans()[0].end, Some(t(100)));
    }

    #[test]
    fn balance_rejects_child_outliving_parent() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        let root = tr.begin(t(10), Stage::Request, Some(1), SpanId::NONE, 0);
        tr.span(Stage::Handler, Some(1), root, 0, t(12), t(50));
        tr.end(root, t(20));
        assert!(tr.check_balance().is_err());
    }

    #[test]
    fn reset_preserves_enablement() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        tr.span(Stage::Irq, None, SpanId::NONE, 0, t(1), t(2));
        tr.reset();
        assert!(tr.is_enabled());
        assert!(tr.spans().is_empty());
        tr.span(Stage::Irq, None, SpanId::NONE, 0, t(1), t(2));
        assert_eq!(tr.spans().len(), 1);
    }

    #[test]
    fn chrome_trace_is_integer_deterministic() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        let root = tr.begin(t(1500), Stage::Request, Some(3), SpanId::NONE, 1003);
        tr.span(Stage::FastDispatch, Some(3), root, 2, t(1500), t(1750));
        tr.end(root, t(4123));
        let json = chrome_trace("lauberhorn/enzian-eci", tr.spans());
        // 1500 ns = 1.5 us rendered via integer math.
        assert!(json.contains("\"ts\":1.500000"), "{json}");
        assert!(json.contains("\"dur\":0.250000"), "{json}");
        assert!(json.contains("\"name\":\"fast-dispatch\""));
        assert!(json.contains("\"request_id\":3"));
        assert!(json.contains("lauberhorn/enzian-eci"));
        // Exact reproducibility of the whole artifact.
        assert_eq!(json, chrome_trace("lauberhorn/enzian-eci", tr.spans()));
    }

    #[test]
    fn stage_table_has_percentile_columns() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        for i in 0..100 {
            tr.span(Stage::Handler, Some(i), SpanId::NONE, 0, t(0), t(i + 1));
        }
        let table = stage_table(tr.spans());
        assert!(table.contains("p50_ns"), "{table}");
        assert!(table.contains("p99_ns"), "{table}");
        // Durations 1..=100 ns: nearest-rank p50 = 50, p99 = 99.
        let row = table.lines().nth(1).unwrap_or("");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols.get(4), Some(&"50"), "{table}");
        assert_eq!(cols.get(6), Some(&"99"), "{table}");
    }

    #[test]
    fn stage_table_shares_exclude_root_and_park() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        let root = tr.begin(t(0), Stage::Request, Some(1), SpanId::NONE, 1000);
        tr.span(Stage::Handler, Some(1), root, 0, t(0), t(300));
        tr.span(Stage::Copy, Some(1), root, 0, t(300), t(400));
        tr.end(root, t(400));
        tr.span(Stage::Park, None, SpanId::NONE, 1, t(0), t(1_000_000));
        let table = stage_table(tr.spans());
        assert!(table.contains("handler"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
    }
}
