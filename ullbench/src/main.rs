//! The repository benchmark: end-to-end serving of an α/β-converted
//! VGG-11 SNN through `ull-serve`, with per-layer timings.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ullbench/Cargo.toml -- \
//!     --workload serve_open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (the seed drives only the request stream; see `setup.rs`):
//!
//! * `serve_open` — in-process open loop: `steady` (50 rps, default
//!   deadlines, Full rung), `tight` (20 rps, 48 ms deadlines, so the
//!   ladder picks Anytime) and `overload` (1000 rps, about twice the
//!   Full-rung knee: the queue grows, the ladder and shedding act).
//! * `serve_wire` — closed loop over TCP with two connections, each
//!   sending its next length-prefixed JSON request after the previous
//!   reply: `steady` with default deadlines, then `tight`.
//!
//! Both run their phases in eight interleaved rounds.
//!
//! `--trace 0` measures with `ull_obs` off and prints the end-to-end
//! metrics; `--trace 1` repeats that pass, times each layer's public
//! entry points, runs a second pass with the registry on, and prints the
//! per-layer metrics and the tracing overhead. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! FINDINGS.md describes the metrics and what they found.

mod layers;
mod serve;
mod setup;
mod stats;

use std::time::{Duration, Instant};

use ull_obs::MetricsSnapshot;
use ull_serve::{Client, Server};

use serve::{PhaseRun, Stream, Tally};
use setup::{References, Served, MAX_BATCH, POOL, T_FULL};
use stats::{median, percentile, ratio, tail_supported, Metrics};

const WORKLOADS: [&str; 2] = ["serve_open", "serve_wire"];
/// Deadline of `tight` requests: below the ladder's `est_full_ms` (50),
/// so batches run the Anytime rung, with 28 ms of queueing slack before
/// the remaining budget drops under `est_reduced_ms` (20) and the ladder
/// falls through to Reduced.
const TIGHT_DEADLINE_MS: u64 = 48;
/// Open-loop rates. Steady and tight load their rung's two workers to
/// about a sixth (batch-1 Full ≈ 6.5 ms, Anytime ≈ 16 ms), so their
/// latencies measure service time even when a shared host steals a third
/// of the CPU, instead of the queueing that amplifies every loss of CPU
/// near the knee; overload offers about twice the Full-rung knee.
const STEADY_RPS: f64 = 50.0;
const TIGHT_RPS: f64 = 20.0;
const OVERLOAD_RPS: f64 = 1000.0;
/// Connections of the wire workload (the machine's core count).
const WIRE_CONNECTIONS: usize = 2;
/// Every pass runs its phases in this many interleaved rounds.
const ROUNDS: usize = 8;
/// Replies needed before p99 has ten samples beyond it.
const P99_SAMPLES: usize = 1000;
/// End-to-end metrics a pass produces (besides `setup_s`, `peak_rss_mb`).
const PASS_METRICS: [&str; 4] = ["p50_ms", "tight_p50_ms", "throughput_rps", "accuracy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One named load phase and what it produced.
struct Phase {
    name: &'static str,
    run: PhaseRun,
    tally: Tally,
    /// Whether `Overloaded` / `DeadlineExceeded` count as failures here.
    refusals_fail: bool,
    snapshot: Option<MetricsSnapshot>,
}

/// One pass over a workload's phases.
struct Pass {
    phases: Vec<Phase>,
    metrics: Metrics,
}

impl Pass {
    fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.tally.sent).sum()
    }

    fn failed(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.tally.failed(p.refusals_fail))
            .sum()
    }

    /// Output-check failures (wrong logits, missing or duplicate replies).
    fn broken(&self) -> Option<String> {
        self.phases.iter().find_map(|p| {
            (p.tally.check_failures > 0 || p.run.outcomes.iter().any(|o| o.reply.is_none()))
                .then(|| p.tally.first_failure.clone().unwrap_or_default())
        })
    }
}

/// Runs one phase; with `traced`, the registry is reset before and read
/// after, so each phase's counters are its own.
fn measure(traced: bool, f: impl FnOnce() -> PhaseRun) -> (PhaseRun, Option<MetricsSnapshot>) {
    if traced {
        ull_obs::reset();
    }
    let run = f();
    (run, traced.then(ull_obs::snapshot))
}

/// Adds `b`'s counters and histograms into `a`.
fn merge_snapshot(a: &mut MetricsSnapshot, b: &MetricsSnapshot) {
    for (k, v) in &b.counters {
        *a.counters.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &b.histograms {
        a.histograms.entry(k.clone()).or_default().merge(h);
    }
}

impl Phase {
    /// One phase from the rounds it ran in.
    fn merged(
        spec: &PhaseSpec,
        refs: &References,
        rounds: Vec<(PhaseRun, Option<MetricsSnapshot>)>,
    ) -> Phase {
        let mut run = PhaseRun::default();
        let mut snapshot: Option<MetricsSnapshot> = None;
        for (r, snap) in rounds {
            run.outcomes.extend(r.outcomes);
            run.late_ms.extend(r.late_ms);
            run.submit_us.extend(r.submit_us);
            run.window_s += r.window_s;
            if let Some(snap) = snap {
                merge_snapshot(snapshot.get_or_insert_with(MetricsSnapshot::default), &snap);
            }
        }
        let tally = Tally::of(&run, refs);
        Phase {
            name: spec.name,
            run,
            tally,
            refusals_fail: spec.refusals_fail,
            snapshot,
        }
    }
}

/// One phase of a workload: its share of the run, and whether refusals
/// count as failures in it.
struct PhaseSpec {
    name: &'static str,
    share: f64,
    refusals_fail: bool,
}

/// A pass whose phases ran in interleaved rounds.
struct Rounds {
    phases: Vec<Phase>,
    /// Per phase, per round: the round's tally and window in seconds.
    per_round: Vec<Vec<(Tally, f64)>>,
}

/// Runs every phase of `specs` once per round; `run(phase, round,
/// seconds)` drives one phase for its share of the round. Interleaving
/// lets each phase sample the whole run rather than one stretch of it.
fn run_rounds(
    specs: &[PhaseSpec],
    seconds: f64,
    traced: bool,
    refs: &References,
    mut run: impl FnMut(usize, usize, f64) -> PhaseRun,
) -> Rounds {
    let mut runs: Vec<Vec<_>> = specs.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (i, spec) in specs.iter().enumerate() {
            let secs = spec.share * seconds / ROUNDS as f64;
            runs[i].push(measure(traced, || run(i, round, secs)));
        }
    }
    let per_round = runs
        .iter()
        .map(|rs| {
            rs.iter()
                .map(|(r, _)| (Tally::of(r, refs), r.window_s))
                .collect()
        })
        .collect();
    let phases = specs
        .iter()
        .zip(runs)
        .map(|(spec, rs)| Phase::merged(spec, refs, rs))
        .collect();
    Rounds { phases, per_round }
}

/// The end-to-end metrics both workloads share. Phase 0 is `steady`,
/// phase 1 `tight`, and `goodput_phase` the phase whose goodput is the
/// throughput. Other guests on a shared host only ever add latency and
/// take capacity, so each timing is the best round's: the lowest
/// per-round median latency and the highest per-round goodput.
fn pass_metrics(r: &Rounds, goodput_phase: usize) -> Metrics {
    let best_p50 = |i: usize| {
        r.per_round[i]
            .iter()
            .filter(|(t, _)| !t.latency_ms.is_empty())
            .map(|(t, _)| median(&t.latency_ms))
            .fold(f64::INFINITY, f64::min)
    };
    let best_goodput = r.per_round[goodput_phase]
        .iter()
        .map(|(t, window_s)| ratio(t.predictions as f64, *window_s))
        .fold(0.0, f64::max);
    let (steady, tight) = (&r.phases[0].tally, &r.phases[1].tally);
    let mut m = Metrics::default();
    m.add("p50_ms", best_p50(0), "ms", steady.latency_ms.len());
    m.add("tight_p50_ms", best_p50(1), "ms", tight.latency_ms.len());
    m.add(
        "throughput_rps",
        best_goodput,
        "1/s",
        r.phases[goodput_phase].tally.predictions,
    );
    // Correct predictions over requests sent below capacity: refused and
    // failed requests count as wrong.
    let sent = steady.sent + tight.sent;
    let correct = steady.correct + tight.correct;
    m.add(
        "accuracy",
        ratio(correct as f64, sent as f64),
        "ratio",
        sent,
    );
    m
}

fn count(rate_rps: f64, seconds: f64) -> usize {
    (rate_rps * seconds).ceil() as usize
}

fn open_pass(
    server: &Server,
    served: &Served,
    refs: &References,
    seed: u64,
    seconds: f64,
    traced: bool,
    min_replies: usize,
) -> Pass {
    let client = server.client();
    let specs = [
        PhaseSpec {
            name: "steady",
            share: 0.5,
            refusals_fail: true,
        },
        PhaseSpec {
            name: "tight",
            share: 0.3,
            refusals_fail: true,
        },
        PhaseSpec {
            name: "overload",
            share: 0.2,
            refusals_fail: false,
        },
    ];
    let rates = [STEADY_RPS, TIGHT_RPS, OVERLOAD_RPS];
    let deadlines = [None, Some(TIGHT_DEADLINE_MS), None];
    let r = run_rounds(&specs, seconds, traced, refs, |i, round, secs| {
        let mut n = count(rates[i], secs);
        if i == 0 {
            n = n.max(min_replies.div_ceil(ROUNDS));
        }
        let mut stream = Stream::new(seed, (round * specs.len() + i + 1) as u64);
        serve::open_loop(&client, served, &mut stream, rates[i], n, deadlines[i])
    });
    let metrics = pass_metrics(&r, 2);
    Pass {
        phases: r.phases,
        metrics,
    }
}

fn wire_pass(
    addr: std::net::SocketAddr,
    served: &Served,
    refs: &References,
    seed: u64,
    seconds: f64,
    traced: bool,
    min_replies: usize,
) -> Pass {
    let specs = [
        PhaseSpec {
            name: "steady",
            share: 0.7,
            refusals_fail: true,
        },
        PhaseSpec {
            name: "tight",
            share: 0.3,
            refusals_fail: true,
        },
    ];
    let deadlines = [None, Some(TIGHT_DEADLINE_MS)];
    let r = run_rounds(&specs, seconds, traced, refs, |i, round, secs| {
        let min_total = if i == 0 {
            min_replies.div_ceil(ROUNDS)
        } else {
            0
        };
        serve::wire_loop(
            addr,
            served,
            WIRE_CONNECTIONS,
            seed,
            ((round * specs.len() + i + 1) as u64) << 8,
            deadlines[i],
            Duration::from_secs_f64(secs),
            min_total,
        )
    });
    let metrics = pass_metrics(&r, 0);
    Pass {
        phases: r.phases,
        metrics,
    }
}

/// A workload's server: started in set-up, listening on loopback for
/// the wire workload.
fn start(served: &Served, workload: &str) -> (Server, Option<std::net::SocketAddr>) {
    let mut server = Server::start(served.engine());
    let addr = (workload == "serve_wire").then(|| {
        server
            .listen("127.0.0.1:0")
            .expect("bind a loopback port for the wire workload")
    });
    (server, addr)
}

fn run_pass(
    served: &Served,
    refs: &References,
    args: &Args,
    traced: bool,
    server: &Server,
    addr: Option<std::net::SocketAddr>,
) -> Pass {
    // Only the untraced pass of a trace run reports the p99 tail, so only
    // it runs the steady phase until p99 has ten replies beyond it.
    let min_replies = if args.trace && !traced {
        P99_SAMPLES
    } else {
        0
    };
    match addr {
        Some(addr) => wire_pass(
            addr,
            served,
            refs,
            args.seed,
            args.seconds,
            traced,
            min_replies,
        ),
        None => open_pass(
            server,
            served,
            refs,
            args.seed,
            args.seconds,
            traced,
            min_replies,
        ),
    }
}

/// Digest of the served network's logits on a fixed batch, for the
/// rebuild-determinism check.
fn logits_digest(served: &Served) -> u64 {
    let logits = served.snn.forward(&served.first(32), T_FULL).logits;
    let words: Vec<u64> = logits
        .data()
        .iter()
        .map(|v| u64::from(v.to_bits()))
        .collect();
    ull_tensor::init::mix64(0x5eed, &words)
}

/// Offline accuracy over the pool of the reference logits `by_sample`.
fn offline_accuracy(by_sample: &[Vec<f32>], labels: &[usize]) -> f64 {
    let correct = (0..POOL)
        .filter(|&s| argmax(&by_sample[s]) == labels[s])
        .count();
    ratio(correct as f64, POOL as f64)
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Per-layer metrics of a trace run.
fn per_layer(
    served: &Served,
    refs: &References,
    args: &Args,
    plain: &Pass,
    traced: &Pass,
    client: &Client,
    m: &mut Metrics,
) {
    // Reply-derived, from the untraced pass the end-to-end numbers come from.
    for name in ["steady", "tight", "overload"] {
        let p = plain.phase(name);
        let t = p.map(|p| &p.tally);
        for (slot, rung) in ["full", "anytime", "reduced"].iter().enumerate() {
            let share = t.map_or(0.0, |t| t.rung_share(slot));
            m.add(
                format!("ladder.share.{rung}.{name}"),
                share,
                "ratio",
                t.map_or(0, |t| t.predictions),
            );
        }
        m.add(
            format!("server.shed_share.{name}"),
            t.map_or(0.0, |t| ratio(t.overloaded as f64, t.sent as f64)),
            "ratio",
            t.map_or(0, |t| t.sent),
        );
        m.add(
            format!("server.deadline_exceeded.{name}"),
            t.map_or(0.0, |t| t.deadline_exceeded as f64),
            "count",
            t.map_or(0, |t| t.sent),
        );
        let snap = traced.phase(name).and_then(|p| p.snapshot.clone());
        layers::phase_registry(name, &snap.unwrap_or_default(), MAX_BATCH, m);
    }
    let snaps: Vec<MetricsSnapshot> = traced
        .phases
        .iter()
        .filter_map(|p| p.snapshot.clone())
        .collect();
    layers::pass_registry(&snaps, m);

    let tight = plain
        .phase("tight")
        .expect("every workload has a tight phase");
    let anytime: Vec<(usize, usize, usize)> = tight
        .run
        .outcomes
        .iter()
        .filter_map(|o| match &o.reply {
            Some(ull_serve::Reply::Prediction {
                class,
                rung: ull_serve::RungLabel::Anytime,
                steps,
                ..
            }) => Some((o.sample, *class, *steps)),
            _ => None,
        })
        .collect();
    layers::anytime_metrics(&anytime, &layers::offline_anytime(served), m);
    m.add(
        "snn.accuracy",
        offline_accuracy(&refs.full, &refs.labels),
        "ratio",
        POOL,
    );
    m.add(
        "snn.reduced_accuracy",
        offline_accuracy(&refs.reduced, &refs.labels),
        "ratio",
        POOL,
    );
    m.add(
        "dnn.accuracy",
        f64::from(served.dnn_accuracy),
        "ratio",
        POOL,
    );

    let steady = plain
        .phase("steady")
        .expect("every workload has a steady phase");
    let lat = &steady.tally.latency_ms;
    if !tail_supported(lat.len(), 0.99) {
        eprintln!(
            "warning: steady.p99_ms rests on {} replies, fewer than {P99_SAMPLES}",
            lat.len()
        );
    }
    m.add("steady.p90_ms", percentile(lat, 0.9), "ms", lat.len());
    m.add("steady.p99_ms", percentile(lat, 0.99), "ms", lat.len());
    let overload = plain.phase("overload").map(|p| &p.tally);
    m.add(
        "overload.accuracy",
        overload.map_or(0.0, |t| ratio(t.correct as f64, t.sent as f64)),
        "ratio",
        overload.map_or(0, |t| t.sent),
    );
    if args.workload == "serve_wire" {
        // The same two-caller closed loop without the socket.
        let inproc = serve::inproc_loop(
            client,
            served,
            WIRE_CONNECTIONS,
            args.seed,
            1 << 16,
            Duration::from_secs_f64(0.3 * args.seconds),
            0,
        );
        let inproc_tally = Tally::of(&inproc, refs);
        m.add(
            "wire.transport_ms",
            median(&steady.tally.latency_ms) - median(&inproc_tally.latency_ms),
            "ms",
            inproc_tally.latency_ms.len(),
        );
        m.add(
            "server.submit_us",
            median(&inproc.submit_us),
            "us",
            inproc.submit_us.len(),
        );
        m.add("gen.late_ms.p99", 0.0, "ms", 0);
    } else {
        m.add("wire.transport_ms", 0.0, "ms", 0);
        m.add(
            "server.submit_us",
            median(&steady.run.submit_us),
            "us",
            steady.run.submit_us.len(),
        );
        let late: Vec<f64> = plain
            .phases
            .iter()
            .flat_map(|p| p.run.late_ms.iter().copied())
            .collect();
        m.add("gen.late_ms.p99", percentile(&late, 0.99), "ms", late.len());
    }
    for name in PASS_METRICS {
        let (a, b) = (
            plain.metrics.get(name).unwrap_or(0.0),
            traced.metrics.get(name).unwrap_or(0.0),
        );
        m.add(
            format!("obs.overhead_pct.{name}"),
            ratio(b - a, a) * 100.0,
            "%",
            1,
        );
    }
}

/// The checked-out commit when run from a git work tree's root, else
/// "unknown".
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ullbench: {e}");
            eprintln!(
                "usage: ullbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    ull_obs::set_enabled(false);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "ullbench workload={} seed={} seconds={} trace={} nproc={} ULL_THREADS={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        std::env::var("ULL_THREADS").unwrap_or_else(|_| "unset".into()),
        commit()
    );

    let jiffies_at_start = stats::cpu_jiffies();
    let t = Instant::now();
    let served = setup::build();
    let (server, addr) = start(&served, &args.workload);
    let setup_s = t.elapsed().as_secs_f64();
    println!(
        "set-up {setup_s:.2} s: DNN test accuracy {:.3}, anytime margins {:?}",
        served.dnn_accuracy, served.schedule.margins
    );
    // Offline references come before any tracing, so their forwards never
    // reach the registry.
    let refs = References::compute(&served);

    let plain = run_pass(&served, &refs, &args, false, &server, addr);
    let mut attempted = plain.attempted();
    let mut failed = plain.failed();
    let mut broken = plain.broken();

    let mut out = Metrics::default();
    if !args.trace {
        for m in &plain.metrics.0 {
            out.0.push(m.clone());
        }
        out.add("setup_s", setup_s, "s", 1);
        out.add("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    } else {
        layers::timings(&served, &mut out);
        let client = server.client();
        let (traced_server, traced_addr) = start(&served, &args.workload);
        ull_obs::set_enabled(true);
        layers::tensor_counts(&served, &mut out);
        let traced = run_pass(&served, &refs, &args, true, &traced_server, traced_addr);
        ull_obs::set_enabled(false);
        traced_server.shutdown();
        attempted += traced.attempted();
        failed += traced.failed();
        broken = broken.or(traced.broken());
        per_layer(&served, &refs, &args, &plain, &traced, &client, &mut out);

        // The same pinned set-up, built a second time, must serve the
        // same network (checked on one workload: it costs a set-up).
        if args.workload == "serve_open" {
            let again = setup::build();
            attempted += 1;
            if again.dnn_accuracy != served.dnn_accuracy
                || logits_digest(&again) != logits_digest(&served)
            {
                failed += 1;
                broken = broken.or(Some("a second set-up built a different network".into()));
            }
        }
    }
    server.shutdown();
    let (steal0, total0) = jiffies_at_start;
    let (steal1, total1) = stats::cpu_jiffies();
    let steal_share = ratio((steal1 - steal0) as f64, (total1 - total0) as f64);
    if args.trace {
        out.add("host.steal_share", steal_share, "ratio", 1);
    }

    for p in &plain.phases {
        let t = &p.tally;
        println!(
            "phase {:<8} sent {:>5}  predictions {:>5}  overloaded {:>4}  deadline {:>4}  errors {}  check failures {}  rungs full/anytime/reduced {}/{}/{}",
            p.name, t.sent, t.predictions, t.overloaded, t.deadline_exceeded, t.errors, t.check_failures, t.rungs[0], t.rungs[1], t.rungs[2]
        );
        let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&p| format!("p{}={:.2}", p * 100.0, percentile(&t.latency_ms, p)))
            .collect();
        println!("      latency ms {}", q.join(" "));
    }
    for m in &out.0 {
        println!(
            "  {:<36} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "host CPU steal during the run: {:.1} %",
        steal_share * 100.0
    );
    if let Some(why) = &broken {
        println!("OUTPUT CHECK FAILED: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        broken.is_none(),
        attempted,
        failed,
        out.to_json()
    );
}
