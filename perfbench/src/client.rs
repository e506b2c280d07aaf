//! The closed-loop client: replays its pre-generated op stream against the
//! store with no think time, checks every output, and times every op of
//! the steady window into per-kind histograms.
//!
//! In the traced build (`--features probe`) the client also records spans
//! around each call into a layer: the store op itself, and — on every
//! other `get` and `range_scan` — the same read decomposed into routing
//! (`shard_of`) plus a direct backend call on the same key.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gen::{
    decode, value_for, value_matches, Kind, Stream, MULTI_GET_KEYS, RANGE_WIDTH, SWEEP_BUDGET,
    TTL_MS,
};
use crate::hist::Hist;
use crate::store::Target;

pub const TRACED: bool = optik_probe::enabled();

/// Phase word values: 0 is warm-up, `k + 1` is measured interval `k`.
pub const WARMUP: u64 = 0;
pub const STOP: u64 = u64::MAX;

/// One measured interval's latency histograms, by `LAT_*` slot.
pub type Lat = [Hist; 5];

/// Latency histogram slots.
pub const LAT_GET: usize = 0;
pub const LAT_WRITE: usize = 1;
pub const LAT_MULTI_GET: usize = 2;
pub const LAT_RANGE: usize = 3;
/// `sweep_expired`: counted in throughput, reported in no latency metric.
pub const LAT_SWEEP: usize = 4;

/// Span kinds of the traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    Get = 0,
    Put,
    Remove,
    PutTtl,
    MultiGet,
    RangeScan,
    Sweep,
    /// `shard_of` ahead of a direct backend call.
    Route,
    BackendGet,
    BackendRange,
    Quiescent,
}

pub const SPAN_COUNT: usize = 11;

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Get => "kv.get",
            Span::Put => "kv.put",
            Span::Remove => "kv.remove",
            Span::PutTtl => "kv.put_with_ttl",
            Span::MultiGet => "kv.multi_get",
            Span::RangeScan => "kv.range_scan",
            Span::Sweep => "kv.ttl.sweep_expired",
            Span::Route => "kv.shard_of",
            Span::BackendGet => "backend.get",
            Span::BackendRange => "backend.range",
            Span::Quiescent => "reclaim.quiescent",
        }
    }
}

/// One recorded span: the op it belongs to, its kind, and its bounds in
/// TSC cycles.
#[derive(Clone, Copy)]
pub struct SpanRec {
    pub op: u64,
    pub span: Span,
    pub start: u64,
    pub end: u64,
}

/// Spans kept per client for the trace dump (the aggregates below cover
/// every span; the log keeps the first ones verbatim).
const SPAN_LOG: usize = 1 << 14;

pub struct Trace {
    /// Span durations by `Span` kind, in ns. A direct backend range call
    /// is filed once per op, summed over the shards it visited.
    pub spans: Vec<Hist>,
    pub log: Vec<SpanRec>,
    pub multi_get_calls: u64,
    pub multi_get_shards: u64,
    pub range_calls: u64,
    pub range_shards: u64,
    pub range_keys: u64,
    pub sweeps: u64,
    pub swept: u64,
}

impl Trace {
    /// Empty; holds no memory in the untraced build.
    pub fn new() -> Self {
        Self {
            spans: if TRACED {
                (0..SPAN_COUNT).map(|_| Hist::new()).collect()
            } else {
                Vec::new()
            },
            log: Vec::with_capacity(if TRACED { SPAN_LOG } else { 0 }),
            multi_get_calls: 0,
            multi_get_shards: 0,
            range_calls: 0,
            range_shards: 0,
            range_keys: 0,
            sweeps: 0,
            swept: 0,
        }
    }

    #[inline]
    fn log(&mut self, op: u64, span: Span, start: u64, end: u64) {
        if self.log.len() < SPAN_LOG {
            self.log.push(SpanRec {
                op,
                span,
                start,
                end,
            });
        }
    }

    #[inline]
    fn span(&mut self, clock: Clock, op: u64, span: Span, start: u64, end: u64) {
        self.spans[span as usize].record(clock.dithered_ns(end - start, op));
        self.log(op, span, start, end);
    }

    pub fn merge(&mut self, o: &Trace) {
        for (a, b) in self.spans.iter_mut().zip(&o.spans) {
            a.merge(b);
        }
        self.multi_get_calls += o.multi_get_calls;
        self.multi_get_shards += o.multi_get_shards;
        self.range_calls += o.range_calls;
        self.range_shards += o.range_shards;
        self.range_keys += o.range_keys;
        self.sweeps += o.sweeps;
        self.swept += o.swept;
    }
}

/// What one client hands back after the run.
pub struct ClientOut {
    /// Latencies of the ops started in each measured interval.
    pub lat: Vec<Lat>,
    /// Ops issued, warm-up included.
    pub issued: u64,
    pub failed: u64,
    /// Inserts minus removals the client observed (from return values).
    pub net: i64,
    /// Removals that found their key.
    pub removed: u64,
    /// Ops that can change the store's size.
    pub writes: u64,
    pub trace: Trace,
}

/// Converts TSC cycles to nanoseconds.
#[derive(Clone, Copy)]
pub struct Clock {
    ns_per_cycle: f64,
    /// How far the TSC moves per visible step, in ns. A virtualised TSC
    /// can advance in steps of ~10 ns; op latencies of 60-250 ns then
    /// pile onto a few values and a percentile hops between them.
    tick_ns: f64,
}

impl Clock {
    pub fn new(ns_per_cycle: f64) -> Self {
        // The smallest back-to-back advance above the 1-cycle bump a
        // stalled counter shows when read twice within one step.
        let mut step = u64::MAX;
        let mut prev = now();
        for _ in 0..10_000 {
            let t = now();
            if t - prev > 1 {
                step = step.min(t - prev);
            }
            prev = t;
        }
        Self {
            ns_per_cycle,
            tick_ns: step.min(1_000) as f64 * ns_per_cycle,
        }
    }

    fn ns(self, cycles: u64) -> f64 {
        cycles as f64 * self.ns_per_cycle
    }

    pub fn tick_ns(self) -> f64 {
        self.tick_ns
    }

    /// `cycles` in ns, dithered by a deterministic offset within one TSC
    /// step (a golden-ratio sequence over `n`), so quantiles move smoothly
    /// with the distribution instead of snapping to TSC steps. The offset
    /// has mean zero: it spreads samples, it does not shift them.
    #[inline]
    pub fn dithered_ns(self, cycles: u64, n: u64) -> u64 {
        let u = (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        (self.ns(cycles) + (u - 0.5) * self.tick_ns)
            .round()
            .max(0.0) as u64
    }
}

#[inline]
fn now() -> u64 {
    synchro::cycles::now()
}

pub struct Ctx<'a, T> {
    pub store: &'a T,
    pub stream: &'a Stream,
    pub phase: &'a AtomicU64,
    /// One (zeroed) `Lat` per measured interval, allocated and paged in
    /// before the memory baseline is taken.
    pub lat: Vec<Lat>,
    pub clock: Clock,
    pub client: u64,
    /// The CPU this client is pinned to, if any.
    pub cpu: Option<usize>,
}

fn report(failed: &mut u64, client: u64, what: std::fmt::Arguments) {
    if *failed < 10 {
        eprintln!("check failed (client {client}): {what}");
    }
    *failed += 1;
}

fn range_ok(lo: u64, hi: u64, out: &[(u64, u64)]) -> bool {
    out.windows(2).all(|w| w[0].0 < w[1].0)
        && out
            .iter()
            .all(|&(k, v)| (lo..=hi).contains(&k) && value_matches(k, v))
}

pub fn run<T: Target>(ctx: Ctx<'_, T>) -> ClientOut {
    let Ctx {
        store,
        stream,
        phase,
        lat,
        clock,
        client,
        cpu,
    } = ctx;
    if let Some(cpu) = cpu {
        assert!(
            crate::affinity::pin(cpu),
            "could not pin client {client} to CPU {cpu}"
        );
    }
    let mut out = ClientOut {
        lat,
        issued: 0,
        failed: 0,
        net: 0,
        removed: 0,
        writes: 0,
        trace: Trace::new(),
    };
    let ops = &stream.ops;
    let mask = ops.len() - 1;
    let mut range_buf: Vec<(u64, u64)> = Vec::new();
    let mut i = 0usize;
    loop {
        let state = phase.load(Ordering::Relaxed);
        if state == STOP {
            break;
        }
        let (kind, payload) = decode(ops[i & mask]);
        let op_id = out.issued;
        // Stamps are unique per client and op, so a later put's value is
        // distinguishable from the fill's.
        let stamp = op_id << 1 | client;
        // Odd-numbered reads of the traced run go around the store.
        let split = TRACED && op_id & 1 == 1;
        let t0 = now();
        let (slot, span, ok) = match kind {
            Kind::Get if split => {
                let s = store.shard_of(payload);
                let t_route = now();
                let r = store.backend_get(s, payload);
                let t_end = now();
                out.trace.span(clock, op_id, Span::Route, t0, t_route);
                out.trace
                    .span(clock, op_id, Span::BackendGet, t_route, t_end);
                (LAT_GET, None, r.is_none_or(|v| value_matches(payload, v)))
            }
            Kind::Get => {
                let r = store.get(payload);
                (
                    LAT_GET,
                    Some(Span::Get),
                    r.is_none_or(|v| value_matches(payload, v)),
                )
            }
            Kind::Put => {
                let r = store.put(payload, value_for(payload, stamp));
                out.net += i64::from(r.is_none());
                (
                    LAT_WRITE,
                    Some(Span::Put),
                    r.is_none_or(|v| value_matches(payload, v)),
                )
            }
            Kind::PutTtl => {
                let r = store.put_with_ttl(payload, value_for(payload, stamp), TTL_MS);
                out.net += i64::from(r.is_none());
                (
                    LAT_WRITE,
                    Some(Span::PutTtl),
                    r.is_none_or(|v| value_matches(payload, v)),
                )
            }
            Kind::Remove => {
                let r = store.remove(payload);
                out.net -= i64::from(r.is_some());
                out.removed += u64::from(r.is_some());
                (
                    LAT_WRITE,
                    Some(Span::Remove),
                    r.is_none_or(|v| value_matches(payload, v)),
                )
            }
            Kind::MultiGet => {
                let at = payload as usize * MULTI_GET_KEYS;
                let keys = &stream.multi_keys[at..at + MULTI_GET_KEYS];
                let r = store.multi_get(keys);
                let ok = r.len() == keys.len()
                    && keys
                        .iter()
                        .zip(&r)
                        .all(|(&k, v)| v.is_none_or(|v| value_matches(k, v)));
                (LAT_MULTI_GET, Some(Span::MultiGet), ok)
            }
            Kind::Range if split => {
                let hi = payload + RANGE_WIDTH - 1;
                range_buf.clear();
                let (first, last) = (store.shard_of(payload), store.shard_of(hi));
                let mut cycles = 0;
                for s in first..=last {
                    let t = now();
                    store.backend_range(s, payload, hi, &mut range_buf);
                    let t_end = now();
                    out.trace.log(op_id, Span::BackendRange, t, t_end);
                    cycles += t_end - t;
                }
                out.trace.spans[Span::BackendRange as usize]
                    .record(clock.dithered_ns(cycles, op_id));
                (LAT_RANGE, None, range_ok(payload, hi, &range_buf))
            }
            Kind::Range => {
                let hi = payload + RANGE_WIDTH - 1;
                let r = store.range_scan(payload, hi);
                let ok = range_ok(payload, hi, &r);
                if TRACED {
                    out.trace.range_keys += r.len() as u64;
                }
                (LAT_RANGE, Some(Span::RangeScan), ok)
            }
            Kind::Sweep => {
                let n = store.sweep_expired(SWEEP_BUDGET);
                if TRACED {
                    out.trace.sweeps += 1;
                    out.trace.swept += n;
                }
                (LAT_SWEEP, Some(Span::Sweep), true)
            }
        };
        let t1 = now();
        if !ok {
            report(
                &mut out.failed,
                client,
                format_args!("{kind:?} of key {payload} returned a value of another key"),
            );
        }
        out.writes += u64::from(matches!(kind, Kind::Put | Kind::PutTtl | Kind::Remove));
        if state != WARMUP {
            out.lat[state as usize - 1][slot].record(clock.dithered_ns(t1 - t0, op_id));
        }
        if TRACED {
            if let Some(span) = span {
                out.trace.span(clock, op_id, span, t0, t1);
            }
            match kind {
                Kind::MultiGet => {
                    let at = payload as usize * MULTI_GET_KEYS;
                    let mut shards: Vec<usize> = stream.multi_keys[at..at + MULTI_GET_KEYS]
                        .iter()
                        .map(|&k| store.shard_of(k))
                        .collect();
                    shards.sort_unstable();
                    shards.dedup();
                    out.trace.multi_get_calls += 1;
                    out.trace.multi_get_shards += shards.len() as u64;
                }
                Kind::Range => {
                    let hi = payload + RANGE_WIDTH - 1;
                    out.trace.range_calls += 1;
                    out.trace.range_shards +=
                        (store.shard_of(hi) - store.shard_of(payload) + 1) as u64;
                    if split {
                        out.trace.range_keys += range_buf.len() as u64;
                    }
                }
                _ => {}
            }
        }
        out.issued += 1;
        i += 1;
        if TRACED {
            let t = now();
            reclaim::quiescent();
            out.trace.span(clock, op_id, Span::Quiescent, t, now());
        } else {
            reclaim::quiescent();
        }
    }
    out
}
