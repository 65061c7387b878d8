//! Open-loop load generator over pipelined protocol frames.
//!
//! Request `i` of a step is *due* at `i / rate` seconds after the step
//! starts, whatever happened to earlier requests, and its latency is
//! counted from that due time — so a stall in the server or in the
//! generator is charged to every request it delays. Requests are dealt
//! round-robin over `nproc / 2` connections (at least one), each driven
//! by a writer thread that sleeps until the next due time and a reader
//! thread that blocks on the socket, so the generator uses `nproc`
//! threads and never busy-polls the CPU the server needs.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use stco_serve::protocol::{FrameDecoder, Reply};

/// Due time of request `index` at `rate` requests per second.
pub fn due(index: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(index as f64 / rate)
}

/// Requests in a step of `seconds` at `rate` (at least one).
pub fn step_requests(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

/// The request indices connection `conn` of `conns` sends, in order.
pub fn conn_indices(total: usize, conn: usize, conns: usize) -> impl Iterator<Item = usize> {
    (conn..total).step_by(conns.max(1))
}

/// One prepared request: its encoded frame and the exact reply values
/// in-process inference gives for it.
pub struct Payload {
    /// Length-prefixed request frame.
    pub frame: Vec<u8>,
    /// Expected reply values, compared bitwise.
    pub expected: Vec<f64>,
}

/// Outcome of one open-loop step.
#[derive(Debug, Default, Clone)]
pub struct StepResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the schedule held.
    pub scheduled: usize,
    /// Requests written to a socket.
    pub sent: usize,
    /// Replies with values bitwise equal to in-process inference.
    pub ok: usize,
    /// Requests refused `overloaded` by load shedding.
    pub shed: usize,
    /// Everything else: error replies, wrong values, lost replies.
    pub failed: usize,
    /// `(request index, ms from due time to reply)` for every scheduled
    /// request, in due order. Refused, wrong and lost requests read
    /// infinite: they miss any latency limit.
    pub latency: Vec<(usize, f64)>,
    /// How late each frame was written after its due time, ms.
    pub late_ms: Vec<f64>,
}

struct InFlight {
    index: usize,
    due: Instant,
    payload: usize,
}

/// Longest a step waits for outstanding replies after its last due time.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// Writer half of one connection: sleeps until each request falls due,
/// then writes its frame. Announces each request to the reader before
/// writing it, so a reply can never overtake its announcement.
fn write_schedule(
    mut stream: TcpStream,
    payloads: &[Payload],
    rate: f64,
    indices: impl Iterator<Item = usize>,
    start: Instant,
    tx: &mpsc::Sender<InFlight>,
) -> std::io::Result<Vec<f64>> {
    let mut late_ms = Vec::new();
    for i in indices {
        let due_at = start + due(i, rate);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let payload = i % payloads.len();
        late_ms.push(
            Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64()
                * 1e3,
        );
        if tx
            .send(InFlight {
                index: i,
                due: due_at,
                payload,
            })
            .is_err()
        {
            break; // the reader gave up
        }
        stream.write_all(&payloads[payload].frame)?;
    }
    Ok(late_ms)
}

/// Reader half: blocks on the socket, timestamps each reply as it lands
/// and checks it bitwise against the in-process answer.
fn read_replies(
    mut stream: TcpStream,
    payloads: &[Payload],
    expect: usize,
    give_up: Instant,
    rx: &mpsc::Receiver<InFlight>,
) -> std::io::Result<StepResult> {
    let mut out = StepResult::default();
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut seen = 0usize;
    while seen < expect && Instant::now() < give_up {
        let n = match stream.read(&mut rbuf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        };
        let got = Instant::now();
        decoder
            .push(&rbuf[..n], &mut frames)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        for frame in frames.drain(..) {
            let Ok(req) = rx.recv() else {
                return Err(std::io::Error::other("reply without a request"));
            };
            seen += 1;
            let ms = got.saturating_duration_since(req.due).as_secs_f64() * 1e3;
            let ms = match frame.map(|doc| Reply::from_json(&doc)) {
                Ok(Ok(Reply::Values(values)))
                    if bitwise_eq(&values, &payloads[req.payload].expected) =>
                {
                    out.ok += 1;
                    ms
                }
                Ok(Ok(Reply::Error { code, .. })) if code == "overloaded" => {
                    out.shed += 1;
                    f64::INFINITY
                }
                _ => {
                    out.failed += 1;
                    f64::INFINITY
                }
            };
            out.latency.push((req.index, ms));
        }
    }
    Ok(out)
}

/// One connection: a writer and a reader thread over one socket.
fn conn_step(
    addr: SocketAddr,
    payloads: &[Payload],
    rate: f64,
    total: usize,
    conn: usize,
    conns: usize,
    start: Instant,
) -> std::io::Result<StepResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let expect = conn_indices(total, conn, conns).count();
    let give_up = start + due(total.saturating_sub(1), rate) + REPLY_GRACE;
    let (tx, rx) = mpsc::channel();
    let (late, read) = std::thread::scope(|scope| {
        let read = scope.spawn(move || read_replies(reader, payloads, expect, give_up, &rx));
        let late = write_schedule(
            stream,
            payloads,
            rate,
            conn_indices(total, conn, conns),
            start,
            &tx,
        );
        drop(tx);
        let read = read
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("reader panicked")));
        (late, read)
    });
    let mut out = read?;
    out.late_ms = late?;
    out.sent = out.late_ms.len();
    // Whatever never got an answer (or was never sent) counts as failed.
    let answered: std::collections::BTreeSet<usize> = out.latency.iter().map(|&(i, _)| i).collect();
    for i in conn_indices(total, conn, conns).filter(|i| !answered.contains(i)) {
        out.failed += 1;
        out.latency.push((i, f64::INFINITY));
    }
    Ok(out)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one open-loop step of `seconds` at `rate` over `conns`
/// connections (one thread each) and merges their results.
pub fn run_step(
    addr: SocketAddr,
    payloads: &[Payload],
    rate: f64,
    seconds: f64,
    conns: usize,
) -> StepResult {
    let total = step_requests(rate, seconds);
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<std::io::Result<StepResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| scope.spawn(move || conn_step(addr, payloads, rate, total, c, conns, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("panic")))
            })
            .collect()
    });
    let mut merged = StepResult {
        rate,
        scheduled: total,
        ..StepResult::default()
    };
    for (c, part) in parts.into_iter().enumerate() {
        match part {
            Ok(p) => {
                merged.sent += p.sent;
                merged.ok += p.ok;
                merged.shed += p.shed;
                merged.failed += p.failed;
                merged.latency.extend(p.latency);
                merged.late_ms.extend(p.late_ms);
            }
            Err(e) => {
                eprintln!("loadgen: connection {c} failed: {e}");
                for i in conn_indices(total, c, conns) {
                    merged.failed += 1;
                    merged.latency.push((i, f64::INFINITY));
                }
            }
        }
    }
    merged.latency.sort_by_key(|&(i, _)| i);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_evenly_from_zero() {
        assert_eq!(due(0, 1000.0), Duration::ZERO);
        assert_eq!(due(1000, 1000.0), Duration::from_secs(1));
        assert_eq!(due(1, 4000.0), Duration::from_micros(250));
        assert_eq!(step_requests(4000.0, 1.5), 6000);
        assert_eq!(step_requests(0.1, 1.0), 1);
    }

    #[test]
    fn connections_partition_the_schedule() {
        let total = 11;
        let mut seen: Vec<usize> = (0..3).flat_map(|c| conn_indices(total, c, 3)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert_eq!(
            conn_indices(total, 1, 3).collect::<Vec<_>>(),
            vec![1, 4, 7, 10]
        );
        // Each connection's own due times stay in increasing order.
        let dues: Vec<Duration> = conn_indices(total, 2, 3).map(|i| due(i, 500.0)).collect();
        assert!(dues.windows(2).all(|w| w[0] < w[1]));
    }
}
