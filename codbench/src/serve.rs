//! `serve_codl_cora`: online CODL lookups through the HTTP tier.
//!
//! Cora-like graph, pooled engine with its base hierarchy, HIMOR index and
//! a warm-up prefix built during set-up, `cod_serve::serve` in front, and
//! `nproc` closed-loop clients issuing
//! `GET /query?node=&attr=&method=codl`, one connection per request. No
//! deadline is set, so answers do not depend on timing.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cod_core::{CodConfig, Method, Query};
use cod_graph::AttributedGraph;
use cod_serve::json::{self, Value};
use cod_serve::{ServeConfig, ServerHandle};
use rand::prelude::*;

use crate::engine::{
    self, direct_loop, engine_config, engine_layers, nproc, prepare, Answer, LoopOut, Served,
};
use crate::spans::Spans;
use crate::stats::{peak_rss_mb, process_cpu_s, quantile, ratio, thread_cpu_s, Report};
use crate::Opts;

/// Generator seed of the cora-like graph. The graph is fixed; the
/// workload seed picks the queries.
const GRAPH_SEED: u64 = 1;

/// Queries answered during set-up before the measured stream starts.
const WARM_UP: usize = 2_000;

/// Queries generated per run: more than any run can serve.
const STREAM_LEN: usize = 200_000;

/// A pooled engine with its hierarchy, HIMOR index and warm-up queries,
/// behind a running server.
fn start(g: &Arc<AttributedGraph>, cfg: CodConfig, warm: &[Query]) -> Result<ServerHandle, String> {
    let setup = prepare(g, cfg, warm);
    cod_serve::serve(
        Arc::clone(&setup.engine),
        ServeConfig {
            workers: nproc(),
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start the server: {e}"))
}

/// The request target of a CODL lookup.
fn target(g: &AttributedGraph, q: &Query) -> String {
    let attr = q
        .attr
        .and_then(|a| g.interner().name(a))
        .expect("generated queries carry an interned attribute");
    format!("/query?node={}&attr={attr}&method=codl", q.node)
}

/// One `Connection: close` exchange: returns (connect ms, total ms,
/// status, body).
fn exchange(addr: SocketAddr, target: &str) -> std::io::Result<(f64, f64, u16, String)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: codbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let raw = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 reply"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((connect_ms, total_ms, status, body.to_owned()))
}

/// Parses a `/query` reply body into the comparable answer.
fn parse_answer(body: &str) -> Result<Option<Answer>, String> {
    let v = json::parse(body)?;
    let a = v.get("answer").ok_or("reply has no \"answer\"")?;
    if *a == Value::Null {
        return Ok(None);
    }
    let members = a
        .get("members")
        .and_then(Value::as_arr)
        .ok_or("answer has no members")?
        .iter()
        .map(|m| m.as_u64().ok_or("member is not a node id"))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(Some(Answer {
        members,
        rank: a.get("rank").and_then(Value::as_u64).ok_or("no rank")?,
        from_index: a.get("source").and_then(Value::as_str) == Some("index"),
        uncertain: a.get("uncertain") == Some(&Value::Bool(true)),
        degraded: !matches!(a.get("degraded"), None | Some(Value::Null)),
    }))
}

/// Closed-loop HTTP clients over `queries[first..]` for `seconds`. Each
/// request is a span `http.request` with children `http.connect` and
/// `http.exchange` (write request, read reply).
fn http_loop(
    addr: SocketAddr,
    g: &AttributedGraph,
    queries: &[Query],
    first: usize,
    seconds: f64,
    spans_on: bool,
    epoch: Instant,
) -> (LoopOut, Vec<f64>) {
    let next = AtomicUsize::new(first);
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let per_thread: Vec<(Vec<Served>, Vec<f64>, f64, Spans)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..nproc())
            .map(|t| {
                let next = &next;
                s.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let mut spans = Spans::new(epoch, t as u64 + 1, spans_on);
                    let mut served = Vec::new();
                    let mut connect = Vec::new();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(idx) else { break };
                        let path = target(g, q);
                        let start = spans.now();
                        let result = exchange(addr, &path);
                        let end = spans.now();
                        let (ms, answer) = match result {
                            Ok((connect_ms, ms, status, body)) => {
                                connect.push(connect_ms);
                                let req = spans.record("http.request", idx as u64, 0, start, end);
                                let connected = start + (connect_ms * 1e6) as u64;
                                spans.record("http.connect", idx as u64, req, start, connected);
                                spans.record("http.exchange", idx as u64, req, connected, end);
                                let answer = if status == 200 {
                                    parse_answer(&body)
                                } else {
                                    Err(format!("HTTP {status}: {}", body.trim()))
                                };
                                (ms, answer)
                            }
                            Err(e) => ((end - start) as f64 / 1e6, Err(e.to_string())),
                        };
                        served.push(Served { idx, ms, answer });
                    }
                    (served, connect, thread_cpu_s() - cpu0, spans)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let process_s = process_cpu_s() - cpu0;
    let mut out = LoopOut {
        served: Vec::new(),
        wall_s,
        cpu_s: process_s,
        spans: Spans::new(epoch, 0, spans_on),
    };
    let mut connect_ms = Vec::new();
    // The clients run in this process; their CPU is not the server's.
    for (served, connect, client_s, spans) in per_thread {
        out.served.extend(served);
        connect_ms.extend(connect);
        out.cpu_s -= client_s;
        out.spans.absorb(spans);
    }
    (out, connect_ms)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let g = Arc::new(cod_datasets::cora_like(GRAPH_SEED).graph);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let queries: Vec<Query> = cod_datasets::gen_queries(&g, STREAM_LEN, &mut rng)
        .into_iter()
        .map(|(node, attr)| Query::new(node, attr, Method::Codl))
        .collect();
    let warm = &queries[..WARM_UP];
    let epoch = Instant::now();
    let mut report = Report::default();

    let (server, first) = crate::timed(|| start(&g, engine_config(false), warm));
    let server = server?;
    let (untraced, _) = http_loop(
        server.addr(),
        &g,
        &queries,
        WARM_UP,
        opts.seconds,
        false,
        epoch,
    );
    report.e2e("peak_rss_mb", "MiB", peak_rss_mb(), String::new());
    let stats = server.shutdown().http_stats;
    let mut shed = stats.shed_socket + stats.shed_engine;
    crate::record_setup(&mut report, first, || {
        let (again, time) = crate::timed(|| start(&g, engine_config(false), warm));
        again?.shutdown();
        Ok(time)
    })?;

    let traced = if opts.trace {
        // The HTTP loop again, on a traced engine, then the same stream
        // replayed by direct calls on an identically warmed engine: the
        // difference of the two medians is the serve layer's own time.
        let server = start(&g, engine_config(true), warm)?;
        let (out, connect_ms) = http_loop(
            server.addr(),
            &g,
            &queries,
            WARM_UP,
            opts.seconds,
            true,
            epoch,
        );
        let stats = server.shutdown().http_stats;
        shed += stats.shed_socket + stats.shed_engine;

        let replay_engine = prepare(&g, engine_config(true), warm);
        report.layer(
            "hierarchy.build_s",
            "s",
            replay_engine.hierarchy_s,
            String::new(),
        );
        report.layer("himor.build_s", "s", replay_engine.himor_s, String::new());
        let mut order: Vec<usize> = out.served.iter().map(|s| s.idx).collect();
        order.sort_unstable();
        let before = replay_engine.engine.metrics();
        let cache_before = replay_engine.engine.cache_stats();
        let replay = direct_loop(
            &replay_engine.engine,
            &queries,
            &order,
            f64::INFINITY,
            1,
            true,
            epoch,
        );
        let direct_ms: Vec<f64> = replay.served.iter().map(|s| s.ms).collect();
        engine_layers(
            &mut report,
            &replay_engine.engine,
            &before,
            cache_before,
            &direct_ms,
        );
        let http_ms: Vec<f64> = out.served.iter().map(|s| s.ms).collect();
        let (http_p50, direct_p50) = (quantile(&http_ms, 0.5), quantile(&direct_ms, 0.5));
        report.layer(
            "serve.self_ms_p50",
            "ms",
            http_p50 - direct_p50,
            format!("HTTP p50 {http_p50:.6} ms - direct p50 {direct_p50:.6} ms"),
        );
        report.layer(
            "serve.self_share",
            "ratio",
            ratio(http_p50 - direct_p50, http_p50),
            format!("of the HTTP p50 {http_p50:.6} ms"),
        );
        report.layer(
            "serve.connect_ms_p50",
            "ms",
            quantile(&connect_ms, 0.5),
            format!("n={}", connect_ms.len()),
        );
        Some((out, replay))
    } else {
        None
    };
    report.layer(
        "serve.shed",
        "count",
        shed as f64,
        "socket and engine sheds over all HTTP loops".into(),
    );
    let mut all: Vec<Query> = untraced.served.iter().map(|s| queries[s.idx]).collect();
    if let Some((http, replay)) = &traced {
        all.extend(
            http.served
                .iter()
                .chain(&replay.served)
                .map(|s| queries[s.idx]),
        );
    }
    let refs = engine::reference(&g, engine_config(false), all);
    let ok_ms = engine::tally(&mut report, &refs, &queries, &untraced);
    engine::latency_metrics(&mut report, &ok_ms, &untraced);
    if let Some((http, replay)) = traced {
        engine::tally(&mut report, &refs, &queries, &http);
        engine::tally(&mut report, &refs, &queries, &replay);
        crate::overhead_ratio(&mut report, &untraced, &http);
        let mut spans = http.spans;
        spans.absorb(replay.spans);
        crate::write_spans(opts, &spans)?;
    }
    Ok(report)
}
