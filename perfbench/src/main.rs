//! One benchmark run of one workload against `optik-kv`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s>
//! ```
//!
//! Generates the workload's inputs from the seed, builds and fills the
//! store, drives it with two closed-loop clients for a warm-up second
//! plus `--seconds` of measurement, checks every output and the store's
//! state at rest, and prints one JSON object of results as its last line.
//! Built with `--features probe` it is the traced run: it also reports
//! per-layer metrics from its own spans and the probe counters.

mod affinity;
mod client;
mod gen;
mod hist;
mod store;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use optik_probe::{Event, HistKind, Snapshot};

use client::{ClientOut, Clock, Ctx, Lat, Span, Trace, TRACED};
use gen::{Backend, Spec, Stream};
use hist::Hist;
use store::Target;

/// Closed-loop clients, interleaved on one CPU (see `drive`).
const CLIENTS: usize = 2;
const WARMUP: Duration = Duration::from_secs(1);
/// The measured window is cut into intervals of this length. Each timing
/// metric is the quartile of its per-interval values on the fast side:
/// the upper quartile of interval throughput, the lower quartile of
/// interval latency. Other tenants of a shared host only ever slow an
/// interval down, so the fast quartile tracks the program's own speed with
/// less of their noise. On a 2-vCPU EPYC VM, it cut the run-to-run spread
/// of hash-read-large's get p50 from 0.20 (median interval) to 0.06.
const INTERVAL: Duration = Duration::from_millis(500);
const FAST_QUARTILE: f64 = 0.25;
/// Set-ups are repeated until they add up to this much time (at least 3,
/// at most `MAX_SETUPS`); `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 51;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(spec) = gen::spec(&args.workload) else {
        let names: Vec<_> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let host = host_sentinel();
    let fill = gen::fill_keys(spec, args.seed);
    let streams = gen::streams(spec, args.seed, CLIENTS);
    let res = match spec.backend {
        Backend::StripedOptik => drive(spec, &args, &fill, &streams, &host, || {
            store::build_striped(spec)
        }),
        Backend::ResizableTtl => drive(spec, &args, &fill, &streams, &host, store::build_ttl),
        Backend::SkipList => drive(spec, &args, &fill, &streams, &host, || {
            store::build_skiplist(spec)
        }),
    };
    println!("{}", res.to_json(spec, &args, &host));
}

/// Host-speed sentinels, recorded as metadata beside the metrics: a fixed
/// CPU-only loop, timed by the wall clock and the TSC at once (which also
/// calibrates TSC cycles to ns), and the core-to-core cache-line round
/// trip, which the hypervisor's vCPU placement moves by several times on
/// a shared host — and with it every write-shared workload.
struct Host {
    calibration_ms: f64,
    ns_per_cycle: f64,
    rtt_ns: f64,
}

fn host_sentinel() -> Host {
    let (t, c) = (Instant::now(), synchro::cycles::now());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..60_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    let ns = t.elapsed().as_nanos() as f64;
    let cycles = synchro::cycles::now().saturating_sub(c).max(1);
    Host {
        calibration_ms: ns / 1e6,
        ns_per_cycle: ns / cycles as f64,
        rtt_ns: round_trip_ns(),
    }
}

/// Mean round trip of one cache line bounced between two threads.
fn round_trip_ns() -> f64 {
    const ROUNDS: u64 = 100_000;
    let flag = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ROUNDS {
                while flag.load(Ordering::Acquire) != 2 * i + 1 {
                    std::hint::spin_loop();
                }
                flag.store(2 * i + 2, Ordering::Release);
            }
        });
        for i in 0..ROUNDS {
            flag.store(2 * i + 1, Ordering::Release);
            while flag.load(Ordering::Acquire) != 2 * i + 2 {
                std::hint::spin_loop();
            }
        }
    });
    t.elapsed().as_nanos() as f64 / ROUNDS as f64
}

/// Resident set size in bytes, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn new_lat() -> Lat {
    std::array::from_fn(|_| Hist::new())
}

/// The `p`-quantile of `v`, interpolating linearly between order
/// statistics; 0 for an empty slice.
fn quantile_of(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let x = p * (v.len() - 1) as f64;
    let (i, frac) = (x.floor() as usize, x.fract());
    let next = v[(i + 1).min(v.len() - 1)];
    v[i] + (next - v[i]) * frac
}

/// A named check of the run as a whole (state at rest, ledgers).
struct Check {
    what: &'static str,
    ok: bool,
    detail: String,
}

struct Results {
    clients: Vec<ClientOut>,
    /// Latencies per measured interval, both clients merged.
    per_interval: Vec<Lat>,
    trace: Trace,
    throughput: f64,
    rates: Vec<f64>,
    setups: Vec<f64>,
    mem_bytes_per_key: f64,
    /// [`round_trip_ns`] right after the window.
    rtt_end_ns: f64,
    tsc_step_ns: f64,
    checks: Vec<Check>,
    layers: Vec<(&'static str, f64)>,
}

fn drive<T: Target>(
    spec: &Spec,
    args: &Args,
    fill: &[u32],
    streams: &[Stream],
    host: &Host,
    build: impl Fn() -> T,
) -> Results {
    let clock = Clock::new(host.ns_per_cycle);
    let intervals = (Duration::from_secs(args.seconds).as_nanos() / INTERVAL.as_nanos()) as usize;
    // Histograms are allocated (and paged in) before the memory baseline.
    let mut lats: Vec<Vec<Lat>> = (0..CLIENTS)
        .map(|_| (0..intervals).map(|_| new_lat()).collect())
        .collect();
    let rss0 = rss_bytes();
    let probe_setup = Snapshot::take();
    let t = Instant::now();
    let store = build();
    store::fill(&store, fill);
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let len0 = store.len();
    let loads0 = store.shard_loads();
    let probe0 = Snapshot::take();
    let qsbr0 = reclaim::global().stats();
    // The filling thread now only sleeps; offline, it never holds back a
    // grace period (online, it stalls every one and garbage piles up).
    reclaim::offline();
    let phase = AtomicU64::new(client::WARMUP);
    // Both clients share one CPU. Two vCPUs of a shared host do not behave
    // as two steady cores: the cache-line round trip between them (the
    // `rtt` sentinel) moves between ~40 and ~400 ns as the hypervisor
    // places them, and write-shared workloads move 2-3x with it.
    let cpu = affinity::allowed().last().copied();
    let mut bounds = Vec::with_capacity(intervals + 1);
    let (clients, window_backlog, rss_end) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(lats.drain(..))
            .enumerate()
            .map(|(c, (stream, lat))| {
                let ctx = Ctx {
                    store: &store,
                    stream,
                    phase: &phase,
                    lat,
                    clock,
                    client: c as u64,
                    cpu,
                };
                scope.spawn(move || client::run(ctx))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let start = Instant::now();
        bounds.push(start);
        phase.store(1, Ordering::Relaxed);
        for k in 1..=intervals {
            let due = start + INTERVAL * k as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            bounds.push(Instant::now());
            let next = if k == intervals {
                client::STOP
            } else {
                k as u64 + 1
            };
            phase.store(next, Ordering::Relaxed);
        }
        let q = reclaim::global().stats();
        let rss_end = rss_bytes();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        (outs, q.retired - q.freed, rss_end)
    });
    let rtt_end_ns = round_trip_ns();
    reclaim::online();
    let probe1 = Snapshot::take();
    let qsbr1 = reclaim::global().stats();
    let loads1 = store.shard_loads();

    let mut per_interval: Vec<Lat> = (0..intervals).map(|_| new_lat()).collect();
    let mut trace = Trace::new();
    for c in &clients {
        for (into, from) in per_interval.iter_mut().zip(&c.lat) {
            for (a, b) in into.iter_mut().zip(from) {
                a.merge(b);
            }
        }
        trace.merge(&c.trace);
    }
    let rates: Vec<f64> = per_interval
        .iter()
        .zip(bounds.windows(2))
        .map(|(l, w)| l.iter().map(Hist::count).sum::<u64>() as f64 / (w[1] - w[0]).as_secs_f64())
        .collect();

    let mut checks = end_checks(&store, spec, len0, &clients);
    let issued: u64 = clients.iter().map(|c| c.issued).sum();
    let len_end = store.len();
    let layers = if TRACED {
        let run = probe1.delta_since(&probe0);
        // `OptikSkipList2` claims a deleted node by locking it forever: that
        // acquisition is never released, so on the skip-list store the
        // lock-hold ledger falls short by exactly the successful removals.
        let removed: u64 = clients.iter().map(|c| c.removed).sum();
        let retained = if spec.backend == Backend::SkipList {
            removed
        } else {
            0
        };
        let balanced = run
            .conservation()
            .into_iter()
            .map(|(what, a, b)| {
                let gap = if what.starts_with("every lock acquisition") {
                    retained
                } else {
                    0
                };
                (what, a, b, gap)
            })
            .filter(|&(_, a, b, gap)| a != b + gap)
            .map(|(what, a, b, gap)| format!("{what}: {a} != {b} + {gap} retained"))
            .collect::<Vec<_>>();
        checks.push(Check {
            what: "probe conservation balances over the traced window (net of forever-held skip-list victim locks)",
            ok: balanced.is_empty(),
            detail: balanced.join("; "),
        });
        let whole = probe1.delta_since(&probe_setup);
        let ops = issued as f64;
        let writes = clients.iter().map(|c| c.writes).sum::<u64>() as f64;
        let loads: Vec<f64> = loads1
            .iter()
            .zip(&loads0)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        layer_metrics(&LayerInputs {
            spec,
            trace: &trace,
            run: &run,
            whole: &whole,
            ops,
            writes,
            fill_ops: fill.len() as f64,
            loads: &loads,
            retired: (qsbr1.retired - qsbr0.retired) as f64,
            backlog: window_backlog as f64,
        })
    } else {
        Vec::new()
    };
    checks.push(qsbr_drains());
    if TRACED {
        dump_trace(spec, args, &clients, host);
    }
    drop(store);

    // Further set-ups for a steadier `setup_s`; the traced run needs one.
    while !TRACED
        && setups.len() < MAX_SETUPS
        && (setups.len() < 3 || setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let store = build();
        store::fill(&store, fill);
        setups.push(t.elapsed().as_secs_f64());
        drop(store);
    }

    Results {
        clients,
        per_interval,
        trace,
        throughput: quantile_of(&mut rates.clone(), 1.0 - FAST_QUARTILE),
        rates,
        setups,
        mem_bytes_per_key: rss_end.saturating_sub(rss0) as f64 / len_end.max(1) as f64,
        rtt_end_ns,
        tsc_step_ns: clock.tick_ns(),
        checks,
        layers,
    }
}

/// The store's state at rest: a sorted, self-consistent snapshot and a
/// size that agrees with what the clients observed.
fn end_checks<T: Target>(store: &T, spec: &Spec, len0: usize, clients: &[ClientOut]) -> Vec<Check> {
    let snap = store.snapshot();
    let len = store.len();
    let bad = snap
        .windows(2)
        .position(|w| w[0].0 >= w[1].0)
        .map(|i| format!("keys {} then {}", snap[i].0, snap[i + 1].0))
        .or_else(|| {
            snap.iter()
                .find(|&&(k, v)| k == 0 || k > spec.range || !gen::value_matches(k, v))
                .map(|&(k, v)| format!("key {k} holds value {v:#x}"))
        });
    let mut checks = vec![Check {
        what: "snapshot is strictly ascending and every value encodes its key",
        ok: bad.is_none(),
        detail: bad.unwrap_or_default(),
    }];
    let net: i64 = clients.iter().map(|c| c.net).sum();
    let writes: u64 = clients.iter().map(|c| c.writes).sum();
    checks.push(if spec.backend == Backend::ResizableTtl {
        // Expired entries stay physically present until swept or
        // overwritten, so the clients' ledger bounds the size instead of
        // fixing it.
        let drift = (len as i64 - len0 as i64).unsigned_abs();
        Check {
            what: "len() stays within the writes' drift of the fill size, above the live snapshot",
            ok: drift <= writes && snap.len() <= len,
            detail: format!(
                "len {len}, fill {len0}, writes {writes}, live {}",
                snap.len()
            ),
        }
    } else {
        let expect = len0 as i64 + net;
        Check {
            what: "len() equals fill + inserts - removals, and the snapshot holds len() entries",
            ok: len as i64 == expect && snap.len() == len,
            detail: format!("len {len}, expected {expect}, snapshot {}", snap.len()),
        }
    });
    checks
}

/// With every client gone and this thread quiescing, the QSBR ledger must
/// drain: everything retired gets freed.
fn qsbr_drains() -> Check {
    let mut stats = reclaim::global().stats();
    for _ in 0..10_000 {
        if stats.retired == stats.freed {
            break;
        }
        reclaim::with_local(|h| h.flush());
        reclaim::quiescent();
        std::thread::yield_now();
        stats = reclaim::global().stats();
    }
    Check {
        what: "QSBR ledger drains once every client has quiesced (retired == freed)",
        ok: stats.retired == stats.freed,
        detail: format!("retired {}, freed {}", stats.retired, stats.freed),
    }
}

struct LayerInputs<'a> {
    spec: &'a Spec,
    trace: &'a Trace,
    /// Probe counters from rest after the fill to rest after the clients.
    run: &'a Snapshot,
    /// The same, from before construction (covers the fill).
    whole: &'a Snapshot,
    ops: f64,
    writes: f64,
    fill_ops: f64,
    loads: &'a [f64],
    retired: f64,
    backlog: f64,
}

fn layer_metrics(x: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let t = x.trace;
    // Medians, not means: a span that a context switch lands in lasts a
    // whole scheduler slice.
    let p50_ns = |s: Span| t.spans[s as usize].quantile(0.5);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let per_op = |e: Event| ratio(x.run.get(e) as f64, x.ops);
    let p = |k: HistKind, q: f64| x.run.hist(k).percentile(q).unwrap_or(0) as f64;
    let backend_get = p50_ns(Span::BackendGet);
    let hashed = x.spec.backend != Backend::SkipList;
    let loads_mean = x.loads.iter().sum::<f64>() / x.loads.len() as f64;
    let loads_max = x.loads.iter().copied().fold(0.0, f64::max);
    let magazine = (x.whole.get(Event::MagazineHit) + x.whole.get(Event::MagazineMiss)) as f64;
    vec![
        ("hashtables.get_ns", if hashed { backend_get } else { 0.0 }),
        ("skiplists.get_ns", if hashed { 0.0 } else { backend_get }),
        ("skiplists.range_ns", p50_ns(Span::BackendRange)),
        ("kv.route_ns", p50_ns(Span::Route)),
        (
            "kv.get_overhead_ns",
            p50_ns(Span::Get) - p50_ns(Span::Route) - backend_get,
        ),
        (
            "kv.multi_get_shards_per_call",
            ratio(t.multi_get_shards as f64, t.multi_get_calls as f64),
        ),
        (
            "kv.range_shards_per_call",
            ratio(t.range_shards as f64, t.range_calls as f64),
        ),
        (
            "kv.range_keys_per_call",
            ratio(t.range_keys as f64, t.range_calls as f64),
        ),
        ("kv.read_retry_per_op", per_op(Event::ReadRetry)),
        ("kv.retry_loop_p99_cycles", p(HistKind::RetryLoop, 0.99)),
        (
            "kv.range_window_p99_cycles",
            p(HistKind::ValidationWindow, 0.99),
        ),
        ("kv.shard_load_max_over_mean", ratio(loads_max, loads_mean)),
        ("kv.ttl.sweep_ns", p50_ns(Span::Sweep)),
        (
            "kv.ttl.expired_per_sweep",
            ratio(t.swept as f64, t.sweeps as f64),
        ),
        ("core.validation_fail_per_op", per_op(Event::ValidationFail)),
        ("core.lock_acquire_per_op", per_op(Event::LockAcquire)),
        ("core.lock_hold_p50_cycles", p(HistKind::LockHold, 0.50)),
        ("core.lock_hold_p99_cycles", p(HistKind::LockHold, 0.99)),
        ("synchro.backoff_wait_per_op", per_op(Event::BackoffWait)),
        (
            "synchro.backoff_escalate_per_op",
            per_op(Event::BackoffEscalate),
        ),
        (
            "synchro.combine_published_per_write",
            ratio(x.run.get(Event::CombinePublished) as f64, x.writes),
        ),
        (
            "synchro.combine_batch_mean",
            x.run.hist(HistKind::CombineBatch).mean(),
        ),
        (
            "synchro.combine_applied_share",
            ratio(
                x.run.get(Event::CombineApplied) as f64,
                x.run.get(Event::CombinePublished) as f64,
            ),
        ),
        (
            "synchro.prefetch_issued_per_op",
            per_op(Event::PrefetchIssued),
        ),
        (
            "reclaim.magazine_hit_rate",
            ratio(x.whole.get(Event::MagazineHit) as f64, magazine),
        ),
        (
            "reclaim.magazine_miss_per_op",
            ratio(x.whole.get(Event::MagazineMiss) as f64, x.fill_ops + x.ops),
        ),
        ("reclaim.quiescent_ns", p50_ns(Span::Quiescent)),
        ("reclaim.grace_p99_cycles", p(HistKind::GraceLatency, 0.99)),
        (
            "reclaim.grace_batches_per_op",
            per_op(Event::GraceBatchFree),
        ),
        ("reclaim.retired_per_op", ratio(x.retired, x.ops)),
        ("reclaim.qsbr_backlog", x.backlog),
    ]
}

/// Writes the first spans of each client as Chrome trace-event JSON next
/// to the binary (loadable in Perfetto or `about:tracing`).
fn dump_trace(spec: &Spec, args: &Args, clients: &[ClientOut], host: &Host) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
    else {
        return;
    };
    let base = clients
        .iter()
        .filter_map(|c| c.trace.log.first().map(|s| s.start))
        .min()
        .unwrap_or(0);
    let us = |cycles: u64| cycles.saturating_sub(base) as f64 * host.ns_per_cycle / 1e3;
    let mut out = String::from("[");
    for (c, client) in clients.iter().enumerate() {
        for s in &client.trace.log {
            if out.len() > 1 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{c},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"client.op\"}}}}",
                s.span.name(),
                us(s.start),
                us(s.end) - us(s.start),
                s.op
            );
        }
    }
    out.push_str("\n]\n");
    let path = dir.join(format!("trace-{}-{}.json", spec.name, args.seed));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

impl Results {
    /// The fast-side quartile over the measured intervals of each
    /// interval's `q`-quantile for latency slot `slot` (intervals without
    /// samples of that kind skipped; 0 when there are none).
    fn interval_quantile(&self, slot: usize, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .per_interval
            .iter()
            .filter(|l| l[slot].count() > 0)
            .map(|l| l[slot].quantile(q))
            .collect();
        quantile_of(&mut v, FAST_QUARTILE)
    }

    fn to_json(&self, spec: &Spec, args: &Args, host: &Host) -> String {
        let issued: u64 = self.clients.iter().map(|c| c.issued).sum();
        let op_failed: u64 = self.clients.iter().map(|c| c.failed).sum();
        let check_failed = self.checks.iter().filter(|c| !c.ok).count() as u64;
        for c in self.checks.iter().filter(|c| !c.ok) {
            eprintln!("check failed: {}: {}", c.what, c.detail);
        }
        let attempted = issued + self.checks.len() as u64;
        let failed = op_failed + check_failed;
        let names = ["get", "write", "multi_get", "range_scan"];
        let mut metrics: Vec<(String, f64, &str)> =
            vec![("throughput_ops_s".into(), self.throughput, "ops/s")];
        for (slot, name) in names.iter().enumerate() {
            for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
                metrics.push((
                    format!("{name}_{label}_ns"),
                    self.interval_quantile(slot, q),
                    "ns",
                ));
            }
        }
        metrics.push((
            "error_rate".into(),
            failed as f64 / attempted as f64,
            "ratio",
        ));
        metrics.push((
            "setup_s".into(),
            quantile_of(&mut self.setups.clone(), 0.5),
            "s",
        ));
        metrics.push(("mem_bytes_per_key".into(), self.mem_bytes_per_key, "B/key"));
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"clients\":{CLIENTS},\
             \"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\
             \"host\":{{\"calibration_ms\":{},\"ns_per_cycle\":{},\"rtt_start_ns\":{},\"rtt_end_ns\":{},\"tsc_step_ns\":{},\"available_parallelism\":{}}},\
             \"setups\":{},\"intervals\":{},\"interval_rates\":[{}],\"samples\":{{",
            spec.name,
            args.seed,
            args.seconds,
            TRACED,
            failed == 0,
            num(host.calibration_ms),
            num(host.ns_per_cycle),
            num(host.rtt_ns),
            num(self.rtt_end_ns),
            num(self.tsc_step_ns),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            self.setups.len(),
            self.rates.len(),
            self.rates.iter().map(|&r| num(r)).collect::<Vec<_>>().join(","),
        );
        for (slot, name) in names.iter().enumerate() {
            let sep = if slot == 0 { "" } else { "," };
            let n: u64 = self.per_interval.iter().map(|l| l[slot].count()).sum();
            let _ = write!(json, "{sep}\"{name}\":{n}");
        }
        json.push_str("},\"metrics\":{");
        let layer_units = self.layers.iter().map(|&(n, v)| (n.to_string(), v, ""));
        for (i, (name, value, unit)) in metrics.into_iter().chain(layer_units).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            );
        }
        let spans: u64 = self.trace.spans.iter().map(Hist::count).sum();
        let _ = write!(json, "}},\"spans\":{spans}}}");
        json
    }
}

/// A finite JSON number with every digit `{:?}` gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::quantile_of;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile_of(&mut [5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 2.0);
        assert_eq!(quantile_of(&mut [4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile_of(&mut [7.0], 0.75), 7.0);
        assert_eq!(quantile_of(&mut [], 0.5), 0.0);
    }
}
