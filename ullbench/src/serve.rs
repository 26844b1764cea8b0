//! Load generators and output checks for the serving workloads.
//!
//! * [`open_loop`]: one generator thread calls `Client::submit` on a fixed
//!   arrival schedule; every request is timed from when it was due, so a
//!   stall also charges the requests queued behind it. A collector thread
//!   stamps each reply as it arrives.
//! * [`wire_loop`]: closed loop over TCP, one thread per connection, each
//!   sending its next length-prefixed JSON request only after the reply to
//!   the previous one arrived.
//! * [`inproc_loop`]: the same closed loop through in-process
//!   `Client::call`, the baseline that isolates transport cost.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::Rng;
use ull_serve::{read_frame, write_frame, Client, Reply, RungLabel};
use ull_tensor::init::seeded_rng;

use crate::setup::{References, Served, CLASSES, POOL, T_FULL, T_REDUCED};

/// One request's fate.
pub struct Outcome {
    pub id: u64,
    pub sample: usize,
    /// `None` when the reply never arrived.
    pub reply: Option<Reply>,
    /// From due (open loop) or send (closed loop) to reply, in ms.
    pub latency_ms: f64,
    /// A second reply arrived on the request's channel.
    pub duplicated: bool,
}

/// What one load phase produced.
#[derive(Default)]
pub struct PhaseRun {
    pub outcomes: Vec<Outcome>,
    /// Open loop: how late the generator submitted each request, in ms.
    pub late_ms: Vec<f64>,
    /// Wall time of each `Client::submit` call, in µs.
    pub submit_us: Vec<f64>,
    /// From the first send to the last reply, in seconds.
    pub window_s: f64,
}

/// Index of the largest logit (first on ties), as the server computes
/// the predicted class.
fn is_argmax(logits: &[f32], class: usize) -> bool {
    logits
        .get(class)
        .is_some_and(|&v| logits.iter().all(|&o| o <= v))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Output check of one reply: Full and Reduced logits must be bit-equal to
/// the sample's offline forward at the same T; Anytime replies must name
/// the argmax of their logits and report 1 ≤ steps ≤ t_full.
pub fn check(o: &Outcome, refs: &References) -> Result<(), String> {
    let Some(reply) = &o.reply else {
        return Err(format!("request {} got no reply", o.id));
    };
    if o.duplicated {
        return Err(format!("request {} got more than one reply", o.id));
    }
    if reply.id() != o.id {
        return Err(format!("request {} got the reply for {}", o.id, reply.id()));
    }
    let Reply::Prediction {
        class,
        logits,
        rung,
        steps,
        ..
    } = reply
    else {
        return Ok(());
    };
    if logits.len() != CLASSES || !is_argmax(logits, *class) {
        return Err(format!("request {}: class {class} is not the argmax", o.id));
    }
    let (reference, want_steps) = match rung {
        RungLabel::Full => (&refs.full[o.sample], T_FULL),
        RungLabel::Reduced => (&refs.reduced[o.sample], T_REDUCED),
        RungLabel::Anytime => {
            return if (1..=T_FULL).contains(steps) {
                Ok(())
            } else {
                Err(format!("request {}: anytime steps {steps}", o.id))
            };
        }
    };
    if *steps != want_steps {
        return Err(format!("request {}: {rung:?} ran {steps} steps", o.id));
    }
    if bits(logits) != bits(reference) {
        return Err(format!(
            "request {} (sample {}): {rung:?} logits differ from the offline forward",
            o.id, o.sample
        ));
    }
    Ok(())
}

/// Counts over one phase's outcomes.
#[derive(Default, Debug)]
pub struct Tally {
    pub sent: usize,
    pub predictions: usize,
    pub correct: usize,
    pub overloaded: usize,
    pub deadline_exceeded: usize,
    /// `Error` / `BadRequest` replies and missing replies.
    pub errors: usize,
    pub check_failures: usize,
    pub first_failure: Option<String>,
    /// Predictions per rung: Full, Anytime, Reduced.
    pub rungs: [usize; 3],
    pub anytime_steps: Vec<usize>,
    /// Latencies of predictions, in ms.
    pub latency_ms: Vec<f64>,
}

impl Tally {
    pub fn of(run: &PhaseRun, refs: &References) -> Tally {
        let mut t = Tally {
            sent: run.outcomes.len(),
            ..Tally::default()
        };
        for o in &run.outcomes {
            if let Err(e) = check(o, refs) {
                if o.reply.is_none() {
                    t.errors += 1;
                } else {
                    t.check_failures += 1;
                }
                t.first_failure.get_or_insert(e);
                continue;
            }
            match o.reply.as_ref().expect("checked above") {
                Reply::Prediction {
                    class, rung, steps, ..
                } => {
                    t.predictions += 1;
                    t.latency_ms.push(o.latency_ms);
                    if *class == refs.labels[o.sample] {
                        t.correct += 1;
                    }
                    let slot = match rung {
                        RungLabel::Full => 0,
                        RungLabel::Anytime => {
                            t.anytime_steps.push(*steps);
                            1
                        }
                        RungLabel::Reduced => 2,
                    };
                    t.rungs[slot] += 1;
                }
                Reply::Overloaded { .. } => t.overloaded += 1,
                Reply::DeadlineExceeded { .. } => t.deadline_exceeded += 1,
                Reply::BadRequest { .. } | Reply::Error { .. } => t.errors += 1,
            }
        }
        t
    }

    /// Failed operations. Refusals (`Overloaded`, `DeadlineExceeded`) fail
    /// only where the phase is sized so that none should happen.
    pub fn failed(&self, refusals_fail: bool) -> usize {
        let refusals = if refusals_fail {
            self.overloaded + self.deadline_exceeded
        } else {
            0
        };
        self.errors + self.check_failures + refusals
    }

    pub fn rung_share(&self, slot: usize) -> f64 {
        crate::stats::ratio(self.rungs[slot] as f64, self.predictions as f64)
    }
}

/// The request stream of one phase: pool samples drawn from the workload
/// seed, with ids unique across the run.
pub struct Stream {
    rng: rand::rngs::StdRng,
    next_id: u64,
}

impl Stream {
    pub fn new(seed: u64, phase: u64) -> Stream {
        Stream {
            rng: seeded_rng(ull_tensor::init::mix64(seed, &[phase])),
            next_id: phase << 32,
        }
    }

    pub fn next(&mut self) -> (u64, usize) {
        self.next_id += 1;
        (self.next_id, self.rng.gen_range(0..POOL))
    }
}

struct InFlight {
    id: u64,
    sample: usize,
    due: Instant,
    rx: mpsc::Receiver<Reply>,
}

/// Drains the generator's hand-offs, stamping each reply when it lands.
fn collect(handoff: mpsc::Receiver<InFlight>) -> (Vec<Outcome>, Instant) {
    let mut outcomes = Vec::new();
    let mut waiting: VecDeque<InFlight> = VecDeque::new();
    let mut generator_done = false;
    let mut answered = Vec::new();
    let mut last = Instant::now();
    loop {
        loop {
            match handoff.try_recv() {
                Ok(f) => waiting.push_back(f),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        let Some(oldest) = waiting.front() else {
            if generator_done {
                break;
            }
            match handoff.recv() {
                Ok(f) => waiting.push_back(f),
                Err(_) => generator_done = true,
            }
            continue;
        };
        // Block on the oldest request (stamped the moment it lands), then
        // sweep the rest; a later reply is stamped at most 1 ms late.
        let first = oldest.rx.recv_timeout(Duration::from_millis(1));
        let now = Instant::now();
        let mut still = VecDeque::with_capacity(waiting.len());
        for (i, f) in waiting.drain(..).enumerate() {
            let got = if i == 0 {
                match &first {
                    Ok(r) => Some(Some(r.clone())),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => Some(None),
                }
            } else {
                match f.rx.try_recv() {
                    Ok(r) => Some(Some(r)),
                    Err(mpsc::TryRecvError::Empty) => None,
                    Err(mpsc::TryRecvError::Disconnected) => Some(None),
                }
            };
            match got {
                Some(reply) => {
                    last = now;
                    outcomes.push(Outcome {
                        id: f.id,
                        sample: f.sample,
                        reply,
                        latency_ms: now.saturating_duration_since(f.due).as_secs_f64() * 1e3,
                        duplicated: false,
                    });
                    answered.push(f.rx);
                }
                None => still.push_back(f),
            }
        }
        waiting = still;
    }
    // Exactly one reply per request: nothing may follow the first.
    for (o, rx) in outcomes.iter_mut().zip(&answered) {
        o.duplicated = rx.try_recv().is_ok();
    }
    (outcomes, last)
}

/// Open loop: `count` requests, one every `1/rate` seconds from the start.
pub fn open_loop(
    client: &Client,
    served: &Served,
    stream: &mut Stream,
    rate_rps: f64,
    count: usize,
    deadline_ms: Option<u64>,
) -> PhaseRun {
    let period = Duration::from_secs_f64(1.0 / rate_rps);
    let requests: Vec<_> = (0..count)
        .map(|_| {
            let (id, sample) = stream.next();
            (served.request(id, sample, deadline_ms), sample)
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let (late_ms, submit_us, (outcomes, last)) = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx));
        let mut late_ms = Vec::with_capacity(count);
        let mut submit_us = Vec::with_capacity(count);
        for (i, (req, sample)) in requests.into_iter().enumerate() {
            let due = start + period * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            let id = req.id;
            let reply = client.submit(req);
            submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            tx.send(InFlight {
                id,
                sample,
                due,
                rx: reply,
            })
            .expect("collector outlives the generator");
        }
        drop(tx);
        let collected = collector.join().expect("collector thread");
        (late_ms, submit_us, collected)
    });
    PhaseRun {
        outcomes,
        late_ms,
        submit_us,
        window_s: last.saturating_duration_since(start).as_secs_f64(),
    }
}

/// Closed loop: `callers` threads, each running `call` back to back until
/// at least `min_time` has passed and `min_total` requests completed
/// across all callers.
fn closed_loop<C>(
    callers: usize,
    seed: u64,
    phase: u64,
    min_time: Duration,
    min_total: usize,
    mut make_caller: impl FnMut(usize) -> C,
) -> PhaseRun
where
    C: FnMut(u64, usize) -> (Option<Reply>, f64) + Send,
{
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let per_caller: Vec<Vec<(Outcome, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let mut call = make_caller(c);
                let mut stream = Stream::new(seed, phase + c as u64);
                let done = &done;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while start.elapsed() < min_time || done.load(Ordering::Relaxed) < min_total {
                        let (id, sample) = stream.next();
                        let sent = Instant::now();
                        let (reply, submit_us) = call(id, sample);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        done.fetch_add(1, Ordering::Relaxed);
                        out.push((
                            Outcome {
                                id,
                                sample,
                                reply,
                                latency_ms,
                                duplicated: false,
                            },
                            submit_us,
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut run = PhaseRun {
        window_s,
        ..PhaseRun::default()
    };
    for (o, submit_us) in per_caller.into_iter().flatten() {
        run.outcomes.push(o);
        run.submit_us.push(submit_us);
    }
    run
}

/// Closed loop over TCP: one connection per caller with `TCP_NODELAY` on
/// the client side; frames are the protocol's length-prefixed JSON.
#[allow(clippy::too_many_arguments)]
pub fn wire_loop(
    addr: SocketAddr,
    served: &Served,
    callers: usize,
    seed: u64,
    phase: u64,
    deadline_ms: Option<u64>,
    min_time: Duration,
    min_total: usize,
) -> PhaseRun {
    closed_loop(callers, seed, phase, min_time, min_total, |_| {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the TCP stream"));
        let mut writer = BufWriter::new(stream);
        move |id, sample| {
            let req = served.request(id, sample, deadline_ms);
            let json = serde_json::to_string(&req).expect("serialise a request");
            if write_frame(&mut writer, json.as_bytes()).is_err() {
                return (None, 0.0);
            }
            let reply = read_frame(&mut reader)
                .ok()
                .and_then(|f| serde_json::from_str::<Reply>(&String::from_utf8_lossy(&f)).ok());
            (reply, 0.0)
        }
    })
}

/// The same closed loop through in-process `Client::submit` + receive.
pub fn inproc_loop(
    client: &Client,
    served: &Served,
    callers: usize,
    seed: u64,
    phase: u64,
    min_time: Duration,
    min_total: usize,
) -> PhaseRun {
    closed_loop(callers, seed, phase, min_time, min_total, |_| {
        let client = client.fork();
        move |id, sample| {
            let t = Instant::now();
            let rx = client.submit(served.request(id, sample, None));
            let submit_us = t.elapsed().as_secs_f64() * 1e6;
            (rx.recv().ok(), submit_us)
        }
    })
}
