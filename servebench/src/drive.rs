//! The closed loop: each connection sends its next request only after the
//! previous answer has fully arrived, and every connection stops at each
//! epoch barrier, where the epoch's reload (if any) runs alone.

use crate::server::Server;
use crate::workload::{Query, Reload, Sequence};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use urbane_serve::Client;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Epoch of the timed phase.
    pub epoch: usize,
    /// Connection that sent it.
    pub conn: usize,
    /// Position within the connection's epoch lane.
    pub pos: usize,
    /// Index into [`Sequence::queries`].
    pub query: usize,
    /// HTTP status; 0 when the request failed below HTTP.
    pub status: u16,
    /// Client round trip, ms.
    pub rtt_ms: f64,
    /// Answer arrival, seconds since the phase began.
    pub end_s: f64,
    /// Response body bytes.
    pub bytes: usize,
    /// The answer's provenance fields, read off the body as it arrives.
    pub summary: Option<Summary>,
    /// The whole body, kept only for answers sampled for recomputation
    /// (and for errors, as their message).
    pub body: Option<String>,
}

/// What the gate needs from every answer, without keeping the body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// `guard.path` is `"full"` and `guard.degraded` is false.
    pub full: bool,
    /// Generation that answered.
    pub generation: u64,
    /// `guard.elapsed_ms`: the service's own time for the request.
    pub elapsed_ms: f64,
}

/// The raw text of a scalar field (`"key":value`). The answer layout is
/// fixed by `wire::answer_to_json`: every key the gate reads occurs once,
/// and region objects only carry `id`, `name` and `value`.
fn scalar<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// Read the gate's fields off a `/query` answer body.
pub fn summarize(body: &str) -> Option<Summary> {
    Some(Summary {
        full: scalar(body, "path")? == "\"full\"" && scalar(body, "degraded")? == "false",
        generation: scalar(body, "generation")?.parse::<f64>().ok()? as u64,
        elapsed_ms: scalar(body, "elapsed_ms")?.parse().ok()?,
    })
}

/// The acknowledged result of one `/reload`.
#[derive(Debug, Clone)]
pub struct ReloadAck {
    /// Epoch whose closing barrier ran it.
    pub epoch: usize,
    /// The reload as sent.
    pub reload: Reload,
    /// Send time, seconds since the phase began.
    pub start_s: f64,
    /// Generation the server acknowledged (`None` on failure).
    pub generation: Option<u64>,
}

/// One span of the trace log.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary it wraps.
    pub name: &'static str,
    /// Request it belongs to (position in the phase).
    pub request: usize,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// Start, µs on the span's clock.
    pub start_us: f64,
    /// End, µs on the span's clock.
    pub end_us: f64,
    /// The service's `guard.elapsed_ms`, on HTTP spans.
    pub guard_ms: Option<f64>,
}

/// Everything the timed phase observed.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Outcomes in sequence order (epoch, connection, position).
    pub outcomes: Vec<Outcome>,
    /// Reloads, in order.
    pub reloads: Vec<ReloadAck>,
    /// Wall time from first send to last answer, seconds.
    pub wall_s: f64,
    /// Traced pass only: one `http.query` span per request, recorded in the
    /// loop, in phase order (span `i` belongs to outcome `i`).
    pub spans: Vec<Span>,
    /// Traced pass only: the longest time one connection spent recording
    /// its spans, seconds.
    pub record_s: f64,
}

/// One request on a keep-alive connection. A connection that failed is
/// reopened for the next request, as a real client would.
fn send(
    server: &Server,
    client: &mut Result<Client, String>,
    path: &str,
    body: &str,
) -> (u16, String) {
    if client.is_err() {
        *client = server.connect();
    }
    let c = match client {
        Ok(c) => c,
        Err(e) => return (0, e.clone()),
    };
    match c.post(path, body) {
        Ok(r) => (r.status, r.body),
        Err(e) => {
            let msg = e.to_string();
            *client = Err(msg.clone());
            (0, msg)
        }
    }
}

fn reload_generation(status: u16, body: &str) -> Option<u64> {
    if status != 200 {
        return None;
    }
    let v = urbane_geom::geojson::parse_json(body).ok()?;
    v.get("generation")?.as_f64().map(|g| g as u64)
}

/// Run the timed phase of `seq` against `server` to completion, keeping
/// the bodies of the phase positions listed in `keep`. With `trace`, each
/// connection also records a span per request as it goes.
pub fn run(server: &Server, seq: &Sequence, keep: &[usize], trace: bool) -> Phase {
    let conns = seq.epochs.first().map_or(1, |e| e.lanes.len());
    let bodies: Vec<String> = seq.queries.iter().map(Query::body).collect();
    let barrier = Barrier::new(conns);
    let reloads = Mutex::new(Vec::new());
    // Flat position of each (epoch, connection) lane's first query.
    let mut offsets = Vec::with_capacity(seq.epochs.len());
    let mut next = 0;
    for e in &seq.epochs {
        offsets.push(
            e.lanes
                .iter()
                .map(|l| {
                    let at = next;
                    next += l.len();
                    at
                })
                .collect::<Vec<_>>(),
        );
    }
    let t0 = Instant::now();
    type Lane = (Vec<Outcome>, Vec<Span>, Duration);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, reloads, bodies, offsets) = (&barrier, &reloads, &bodies, &offsets);
                scope.spawn(move || {
                    let mut client = server.connect();
                    let mut out = Vec::new();
                    let mut spans = Vec::new();
                    let mut recording = Duration::ZERO;
                    for (e, epoch) in seq.epochs.iter().enumerate() {
                        for (pos, &q) in epoch.lanes[c].iter().enumerate() {
                            let start = Instant::now();
                            let (status, body) = send(server, &mut client, "/query", &bodies[q]);
                            let end = Instant::now();
                            let at = offsets[e][c] + pos;
                            let summary = summarize(&body);
                            if trace {
                                spans.push(Span {
                                    name: "http.query",
                                    request: at,
                                    parent: None,
                                    start_us: (start - t0).as_secs_f64() * 1e6,
                                    end_us: (end - t0).as_secs_f64() * 1e6,
                                    guard_ms: summary.map(|s| s.elapsed_ms),
                                });
                                recording += end.elapsed();
                            }
                            let kept = status != 200 || keep.contains(&at);
                            out.push(Outcome {
                                epoch: e,
                                conn: c,
                                pos,
                                query: q,
                                status,
                                rtt_ms: (end - start).as_secs_f64() * 1e3,
                                end_s: (end - t0).as_secs_f64(),
                                bytes: body.len(),
                                summary,
                                body: kept.then_some(body),
                            });
                        }
                        if let Some(r) = &epoch.reload {
                            barrier.wait();
                            if c == 0 {
                                let start = Instant::now();
                                let (status, body) =
                                    send(server, &mut client, "/reload", &r.body());
                                let ack = ReloadAck {
                                    epoch: e,
                                    reload: r.clone(),
                                    start_s: (start - t0).as_secs_f64(),
                                    generation: reload_generation(status, &body),
                                };
                                reloads
                                    .lock()
                                    .expect("no connection panics holding it")
                                    .push(ack);
                            }
                        }
                        barrier.wait();
                    }
                    (out, spans, recording)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let record_s = lanes
        .iter()
        .map(|l| l.2.as_secs_f64())
        .fold(0.0, f64::max);
    let mut outcomes = Vec::new();
    let mut spans = Vec::new();
    for (o, s, _) in lanes {
        outcomes.extend(o);
        spans.extend(s);
    }
    outcomes.sort_by_key(|o| (o.epoch, o.conn, o.pos));
    spans.sort_by_key(|s| s.request);
    let reloads = reloads.into_inner().expect("connection threads have ended");
    Phase {
        outcomes,
        reloads,
        wall_s,
        spans,
        record_s,
    }
}

/// Send the warm-up queries; every one must come back full.
pub fn warm_up(server: &Server, queries: &[Query]) -> Result<(), String> {
    let mut client = server.connect();
    for q in queries {
        let (status, body) = send(server, &mut client, "/query", &q.body());
        let full = status == 200 && summarize(&body).is_some_and(|s| s.full);
        if !full {
            return Err(format!("warm-up query {} -> {status}: {body}", q.body()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reads_a_served_answer() {
        let body = r#"{"cached":false,"dataset":"taxi","generation":3,"guard":{"batched":null,"deadline_ms":2000,"degraded":false,"elapsed_ms":1.25,"error_bound":77.1,"fallbacks":[],"path":"full","retried":false},"level":1,"regions":[{"id":0,"name":"r0","value":4}],"total_count":4}"#;
        assert_eq!(
            summarize(body),
            Some(Summary {
                full: true,
                generation: 3,
                elapsed_ms: 1.25
            })
        );
        let degraded = body.replace(r#""path":"full""#, r#""path":"degraded_bounded""#);
        assert!(!summarize(&degraded).unwrap().full);
        assert_eq!(summarize("not an answer"), None);
    }
}
