//! `serve-mix`: an in-process `stuc-serve` (`Server::spawn`) over the
//! `stuc-loadgen` 60-fact path program and its 8-goal mix. Every request is
//! a fresh TCP connection (the server has no keep-alive), so accepting,
//! HTTP, queueing and response writing outweigh the engine's share.
//!
//! The end-to-end run is a closed loop over two connections; each request
//! is timed from send to reply. The traced run adds an open loop at a fixed
//! offered rate ([`crate::inputs::SERVE_RATE`]) from two sender threads,
//! each request timed from the moment it was due, for the generator lag.
//! Its due-time latencies are printed, not gated: a shared 2-vCPU VM
//! stalls for 40–110 ms about once a second, and in an open loop every
//! request due during a stall waits it out, so their
//! p99 measured the host (it spread 0.96 to 1.66 of its median across
//! seeds), while a closed loop holds only two requests in flight.
//!
//! The client threads share the process with the server, so
//! `cpu_ms_per_op` counts both sides of each request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use stuc::core::serve::http::Request;
use stuc::core::serve::{ServeConfig, Server, ServiceState};
use stuc::data::tid::TidInstance;
use stuc::lang::lower::program_instance;
use stuc::lang::parse_program;
use stuc::Engine;

use super::{
    closed_loop, end_to_end_result, repeat_setup, set_hit_ratios, traced_loop, RunConfig, Stop,
    PROBE_EVERY, UNTRACED_SHARE,
};
use crate::inputs::{self, RequestOrder, SERVE_RATE};
use crate::layers::replay_text;
use crate::report::{median, quantile, EndToEnd, Latency, LayerValues, RunResult, Tally};
use crate::speed::{Kernel, Speedometer};
use crate::sys::{process_cpu_ns, reset_on_close};
use crate::trace::{OpScope, Tracer};

/// Load threads and connections: at most one per core of the 2-core
/// machine the benchmark was designed on.
const CLIENTS: usize = 2;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP reply.
struct Reply {
    status: u16,
    body: String,
}

/// One `POST /query` over a fresh connection. `scope`, when given, times
/// the connect inside the op.
fn post(addr: SocketAddr, body: &str, scope: Option<&mut OpScope>) -> Result<Reply, String> {
    let connect = || TcpStream::connect_timeout(&addr, IO_TIMEOUT);
    let mut stream = match scope {
        Some(s) => s.time("serve.connect", connect),
        None => connect(),
    }
    .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    // The server closed first; a reset frees both ends at once.
    reset_on_close(&stream).map_err(|e| format!("linger: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// The `"probability"` field of a one-goal query response, as printed.
fn probability_field(body: &str) -> Option<&str> {
    let rest = body.split_once("\"probability\":")?.1;
    Some(&rest[..rest.find([',', '}'])?])
}

/// A running server; dropping it stops the server and joins its threads.
struct Served {
    server: Option<Server>,
    addr: SocketAddr,
}

impl Served {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("the server runs until dropped")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Spawns the server over the program and asks every goal once, cold.
fn setup(program: &str, goals: &[String]) -> Result<Served, String> {
    let state = ServiceState::from_program(Engine::new(), program).map_err(|e| e.to_string())?;
    let server = Server::spawn(ServeConfig::default(), state).map_err(|e| e.to_string())?;
    let served = Served {
        addr: server.addr(),
        server: Some(server),
    };
    for goal in goals {
        let reply = post(served.addr, goal, None)?;
        if reply.status != 200 {
            return Err(format!(
                "cold {goal}: status {}: {}",
                reply.status, reply.body
            ));
        }
    }
    Ok(served)
}

/// The shared request context: where to send, what to ask, and the answer
/// each goal must get.
struct Client<'a> {
    addr: SocketAddr,
    goals: &'a [String],
    expected: &'a [String],
    order: &'a RequestOrder,
}

impl Client<'_> {
    /// Sends request `i`.
    fn request(&self, i: usize, scope: Option<&mut OpScope>) -> Result<Reply, String> {
        post(self.addr, &self.goals[self.order.goal(i)], scope)
    }

    /// Counts request `i`: failed unless answered 200, wrong unless its
    /// probability reads as expected.
    fn judge(&self, i: usize, reply: Result<Reply, String>, tally: &mut Tally) {
        let g = self.order.goal(i);
        match reply {
            Err(e) => tally.failed(|| format!("request {i}: {e}")),
            Ok(reply) if reply.status != 200 => {
                tally.failed(|| format!("request {i}: status {}: {}", reply.status, reply.body))
            }
            Ok(reply) => {
                let got = probability_field(&reply.body);
                tally.check(got == Some(self.expected[g].as_str()), || {
                    format!(
                        "request {i} ({}): {got:?} != {}",
                        self.goals[g], self.expected[g]
                    )
                });
            }
        }
    }
}

/// Requests completed, counted by the load threads for the meter.
#[derive(Default)]
struct Counters {
    done: AtomicU64,
    ok: AtomicU64,
}

impl Counters {
    fn count(&self, reply: &Result<Reply, String>) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if matches!(reply, Ok(r) if r.status == 200) {
            self.ok.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One meter window: its length, the process CPU spent in it and the
/// requests completed in it (all, and those answered 200).
struct Window {
    secs: f64,
    cpu_ns: u64,
    done: u64,
    ok: u64,
}

/// Reads `counters` and the process CPU clock every `window_s` until
/// `end`; windows cut short at the end are dropped when under half a
/// window long.
fn meter(counters: &Counters, end: Instant, window_s: f64) -> Vec<Window> {
    let read = || {
        (
            Instant::now(),
            process_cpu_ns(),
            counters.done.load(Ordering::Relaxed),
            counters.ok.load(Ordering::Relaxed),
        )
    };
    let mut windows = Vec::new();
    let mut previous = read();
    while Instant::now() < end {
        std::thread::sleep(
            end.saturating_duration_since(Instant::now())
                .min(Duration::from_secs_f64(window_s)),
        );
        let now = read();
        windows.push(Window {
            secs: (now.0 - previous.0).as_secs_f64(),
            cpu_ns: now.1 - previous.1,
            done: now.2 - previous.2,
            ok: now.3 - previous.3,
        });
        previous = now;
    }
    windows.retain(|w| w.secs >= window_s / 2.0 && w.done > 0);
    windows
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    rejected: u64,
    tally: Tally,
}

/// Offers `rate` requests per second for `seconds` from [`CLIENTS`] sender
/// threads. Request `i` is due at `start + i / rate`; its latency runs from
/// that moment to the end of its reply, so a stall also charges the wait
/// it imposes on the requests behind it. A sender that falls behind sends
/// at once; how late it sent is the generator lag.
fn open_loop(client: &Client, rate: f64, seconds: f64) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(5);
    let total = (rate * seconds) as usize;
    let parts: Vec<OpenLoop> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    let mut part = OpenLoop::default();
                    for i in (t..total).step_by(CLIENTS) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let lag = Instant::now().saturating_duration_since(due);
                        part.lags_ms.push(lag.as_secs_f64() * 1e3);
                        let reply = client.request(i, None);
                        part.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        if matches!(&reply, Ok(r) if r.status == 503) {
                            part.rejected += 1;
                        }
                        client.judge(i, reply, &mut part.tally);
                    }
                    part
                })
            })
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut out = OpenLoop::default();
    for part in parts {
        out.latencies_ms.extend(part.latencies_ms);
        out.lags_ms.extend(part.lags_ms);
        out.rejected += part.rejected;
        out.tally.merge(part.tally);
    }
    out
}

/// What the closed loop measured: each request's latency, send to reply,
/// and the meter windows.
struct ClosedLoop {
    latencies_ms: Vec<f64>,
    windows: Vec<Window>,
}

/// Closed loop over [`CLIENTS`] connections for `seconds`, metered in one
/// window, with request numbers continuing from `next`.
fn closed_clients(
    client: &Client,
    seconds: f64,
    next: &AtomicUsize,
    tally: &mut Tally,
) -> ClosedLoop {
    let counters = Counters::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let (parts, windows) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut part = Tally::default();
                    let mut latencies_ms = Vec::new();
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let reply = client.request(i, None);
                        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        counters.count(&reply);
                        client.judge(i, reply, &mut part);
                    }
                    (part, latencies_ms)
                })
            })
            .collect();
        let windows = meter(&counters, end, seconds);
        let parts: Vec<(Tally, Vec<f64>)> = workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (parts, windows)
    });
    let mut latencies_ms = Vec::new();
    for (part, latencies) in parts {
        tally.merge(part);
        latencies_ms.extend(latencies);
    }
    ClosedLoop {
        latencies_ms,
        windows,
    }
}

/// Probes of the machine's speed before each closed-loop slice.
const SLICE_PROBES: usize = 3;

/// Seconds of a closed-loop slice. The latency quantiles and the rates
/// are medians over slices, so that the benchmark keeps one slice's
/// latencies at a time: kept for the whole run, they grew the process by
/// megabytes in step with the requests it completed, and `peak_rss_mb`
/// followed the machine's speed.
const SLICE_S: f64 = 0.5;

/// The end-to-end closed loop: `seconds` cut into slices of about
/// [`SLICE_S`]. Before each slice, with the clients stopped and the server
/// idle, the machine's speed is probed; the slice's times are scaled by it.
fn closed_loop_scaled(
    client: &Client,
    seconds: f64,
    speed: &mut Speedometer,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let slices = (seconds / SLICE_S).ceil().max(1.0);
    let next = AtomicUsize::new(0);
    let mut e2e = EndToEnd::default();
    let mut latency = (Vec::new(), Vec::new());
    let mut rates = (Vec::new(), Vec::new());
    let mut cpu_ms = Vec::new();
    for _ in 0..slices as usize {
        speed.probe(SLICE_PROBES)?;
        let scale = speed.scale();
        let slice = closed_clients(client, seconds / slices, &next, tally);
        let raw = Latency::of(&slice.latencies_ms);
        latency.0.push(Latency {
            p50: raw.p50 * scale.wall,
            p90: raw.p90 * scale.wall,
            p99: raw.p99 * scale.wall,
            ..raw
        });
        latency.1.push(raw);
        for w in &slice.windows {
            rates.0.push(w.ok as f64 / (w.secs * scale.wall));
            rates.1.push(w.ok as f64 / w.secs);
            cpu_ms.push(w.cpu_ns as f64 / 1e6 / w.done as f64 * scale.cpu);
        }
    }
    e2e.latency = Latency::median_of(&latency.0);
    e2e.raw.latency = Latency::median_of(&latency.1);
    e2e.throughput = median(&rates.0);
    e2e.raw.throughput = median(&rates.1);
    e2e.cpu_ms_per_op = median(&cpu_ms);
    Ok(e2e)
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let program = inputs::serve_program();
    let goals = inputs::serve_goals();
    let order = RequestOrder::new(cfg.seed, goals.len());

    // The answer every goal must get, from a separate in-process engine,
    // printed as the server prints it.
    let instance: TidInstance =
        program_instance(&parse_program(&program).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    let reference = Engine::new();
    let expected: Vec<String> = goals
        .iter()
        .map(|g| {
            let p = reference
                .evaluate_text(&instance, g)
                .map_err(|e| e.to_string())?
                .goals[0]
                .probability;
            Ok(format!("{p:.9}"))
        })
        .collect::<Result<_, String>>()?;

    let mut speed = Speedometer::new(Kernel::ComputeAndNetwork, PROBE_EVERY)?;
    let (served, setups) = repeat_setup(cfg.setups(), &mut speed, || setup(&program, &goals))?;
    let client = Client {
        addr: served.addr,
        goals: &goals,
        expected: &expected,
        order: &order,
    };
    let mut tally = Tally::default();

    if !cfg.trace {
        let mut e2e = closed_loop_scaled(&client, cfg.seconds, &mut speed, &mut tally)?;
        e2e.setups = setups;
        let summary = vec![format!(
            "closed loop: {CLIENTS} connections, {} requests",
            e2e.latency.ops
        )];
        return end_to_end_result(e2e, &speed, tally, summary);
    }
    traced(cfg, tracer, &client, served.server(), &instance, tally)
}

/// The traced run: an untraced single-connection closed loop (for
/// `trace.overhead` and the cache hit ratios), a short open loop (for the
/// generator lag and rejections), then traced requests with their layer
/// calls replayed in process.
fn traced(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    client: &Client,
    server: &Server,
    instance: &TidInstance,
    mut tally: Tally,
) -> Result<RunResult, String> {
    let mut layers = LayerValues::default();
    let state = server.state();
    let engine = state.engine();
    let before = engine.cache_stats();
    let untraced = closed_loop(
        Stop::After(cfg.seconds * UNTRACED_SHARE),
        &mut tally,
        None,
        |i, timed, tally| {
            let reply = timed.time(|| client.request(i as usize, None));
            client.judge(i as usize, reply, tally);
            Ok(())
        },
    )?;
    set_hit_ratios(&mut layers, &before, &engine.cache_stats());

    let open = open_loop(client, SERVE_RATE, cfg.seconds * 0.2);
    layers.set("serve.generator_lag_ms", quantile(&open.lags_ms, 0.99));
    let open_summary = format!(
        "open loop: {} requests offered at {SERVE_RATE} req/s from {CLIENTS} threads; \
         from due time p50 {:.4} ms, p99 {:.4} ms; generator lag p99 {:.4} ms",
        open.latencies_ms.len(),
        quantile(&open.latencies_ms, 0.5),
        quantile(&open.latencies_ms, 0.99),
        quantile(&open.lags_ms, 0.99),
    );
    let mut rejected = open.rejected;
    tally.merge(open.tally);

    let first = untraced.ops() as u64;
    traced_loop(
        cfg.seconds * (0.8 - UNTRACED_SHARE),
        first,
        tracer,
        &mut tally,
        |i, tracer, tally| {
            let (reply, mut scope) = tracer.op(i, |scope| client.request(i as usize, Some(scope)));
            rejected += u64::from(matches!(&reply, Ok(r) if r.status == 503));
            let failed = !matches!(&reply, Ok(r) if r.status == 200);
            client.judge(i as usize, reply, tally);
            if failed {
                return Ok(());
            }
            let goal = &client.goals[client.order.goal(i as usize)];
            let request = Request {
                method: "POST".into(),
                path: "/query".into(),
                body: goal.clone(),
            };
            scope.time("serve.respond", || state.respond(&request));
            replay_text(&mut scope, engine, instance, goal)?;
            tracer.finish(scope);
            Ok(())
        },
    );
    layers.set("serve.rejected_503", rejected as f64);
    let mut samples = tracer.samples().to_vec();
    for s in &mut samples {
        let respond = s.layer_us.get("serve.respond").copied().unwrap_or(0.0);
        s.layer_us.insert("serve.roundtrip", s.op_us);
        s.layer_us.insert("serve.transport", s.op_us - respond);
    }
    layers.from_samples(&samples);
    super::set_overhead(&mut layers, &untraced.latencies_ms(), &samples);
    let mut summary = super::trace_summary(&samples);
    summary.push(open_summary);
    Ok(RunResult {
        metrics: layers.metrics(),
        tally,
        summary,
    })
}
