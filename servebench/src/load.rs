//! The open-loop load generator: one connection split into a sending
//! half (the calling thread, on a seeded Poisson arrival schedule) and
//! a receiving half (one more thread), talking the public wire frame
//! codec.
//!
//! Requests are timed from when they were *due*, so a stall in the
//! server or the generator charges every request it delays. Frames are
//! encoded before the clock starts; sending only stamps the request id
//! and CRC into a copy.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use privehd_core::HdModel;
use privehd_serve::wire::frame::{DEFAULT_MAX_BODY, TRAILER_LEN};
use privehd_serve::wire::{crc32, Frame, WireStatus};
use privehd_serve::{ModelId, ShardedRegistry};

use crate::data::Req;

/// Longest the receiver waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// Both halves of the generator's one connection.
pub struct Conn {
    tx: TcpStream,
    rx: TcpStream,
    next_id: u64,
}

impl Conn {
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        // Both halves share the nonblocking flag: neither thread ever
        // sleeps in the kernel (see `run`).
        stream.set_nonblocking(true)?;
        let rx = stream.try_clone()?;
        Ok(Self {
            tx: stream,
            rx,
            next_id: 1,
        })
    }
}

/// Copies `template` into `out` with `id` as its request id (header
/// bytes 6..14) and a recomputed CRC trailer; the layout is the frozen
/// v1 header of docs/WIRE.md.
fn stamp(out: &mut Vec<u8>, template: &[u8], id: u64) {
    out.clear();
    out.extend_from_slice(template);
    out[6..14].copy_from_slice(&id.to_le_bytes());
    let body_end = out.len() - TRAILER_LEN;
    let crc = crc32(&out[..body_end]);
    out[body_end..].copy_from_slice(&crc.to_le_bytes());
}

/// `write_all` for a nonblocking socket: yields while the send buffer
/// is full.
fn send_all(mut tx: &TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match tx.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => buf = &buf[k..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now()
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Republishing one tenant's unchanged weights during a phase.
pub struct Republish<'a> {
    pub registry: &'a ShardedRegistry,
    pub tenant: usize,
    pub id: &'a ModelId,
    pub model: &'a HdModel,
    pub every: Duration,
}

pub struct Answer {
    /// The response named the tenant the request addressed.
    pub tenant_ok: bool,
    pub class: u32,
    pub score_bits: u64,
    pub version: u64,
}

pub struct Reply {
    /// When the read that completed the frame returned.
    pub at: Instant,
    /// When the frame was decoded (receive span end).
    pub decoded: Instant,
    pub outcome: Result<Answer, WireStatus>,
}

pub struct Published {
    pub start: Instant,
    pub end: Instant,
    pub tenant: usize,
    pub version: u64,
}

/// Everything one phase observed.
pub struct PhaseRun {
    pub start: Instant,
    pub base_id: u64,
    pub reqs: Vec<Req>,
    /// Send span per request: write start, write end.
    pub sent: Vec<(Instant, Instant)>,
    pub replies: Vec<Option<Reply>>,
    pub published: Vec<Published>,
    pub bytes_sent: u64,
    /// A transport or protocol error ended the phase early.
    pub broken: Option<String>,
}

impl PhaseRun {
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(self.reqs[i].at)
    }

    pub fn attempted(&self) -> usize {
        self.replies.len()
    }

    pub fn answered(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| matches!(r, Some(Reply { outcome: Ok(_), .. })))
            .count()
    }

    /// Due-to-response latency of every answered request, in µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.replies
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Some(Reply {
                    at, outcome: Ok(_), ..
                }) => Some(us(*at - self.due(i))),
                _ => None,
            })
            .collect()
    }

    /// How late each send started against its due time, in µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .enumerate()
            .map(|(i, (t0, _))| us(t0.saturating_duration_since(self.due(i))))
            .collect()
    }

    /// Share of requests answered within `limit` of their due time;
    /// unanswered and refused requests miss.
    pub fn within(&self, limit: Duration) -> f64 {
        let ok = self
            .replies
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                matches!(r, Some(Reply { at, outcome: Ok(_), .. }) if *at - self.due(*i) <= limit)
            })
            .count();
        ok as f64 / self.replies.len().max(1) as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Offers `reqs` on their schedule, open loop, and collects every
/// response.
///
/// Both threads busy-wait, yielding each turn, instead of sleeping: on
/// a KVM guest a halted vCPU wakes only after a host scheduling delay
/// that follows other tenants' load (the `steal` column of
/// `/proc/stat`), and with sleeping threads that delay set most of the
/// run-to-run spread of the latency medians. Yielding hands the CPU to
/// any serve-stack thread that is ready. `frames[tenant][sample]` are the encoded request frames.
/// With `spans` off, the send-end and decode timestamps are not taken
/// (they read as the send start and the read return).
pub fn run(
    conn: &mut Conn,
    frames: &[Vec<Vec<u8>>],
    tenants: &[ModelId],
    reqs: Vec<Req>,
    republish: Option<&Republish<'_>>,
    spans: bool,
) -> PhaseRun {
    let n = reqs.len();
    let base_id = conn.next_id;
    conn.next_id += n as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let mut phase = PhaseRun {
        start,
        base_id,
        reqs,
        sent: Vec::with_capacity(n),
        replies: Vec::new(),
        published: Vec::new(),
        bytes_sent: 0,
        broken: None,
    };
    let deadline = phase.due(n - 1) + DRAIN;
    let (tx, rx) = (&conn.tx, &conn.rx);
    let reqs_ref = &phase.reqs;
    std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(rx, base_id, tenants, reqs_ref, deadline, spans));
        let mut buf = Vec::new();
        let mut next_publish = republish.map(|r| start + r.every);
        for (i, req) in reqs_ref.iter().enumerate() {
            let due = start + Duration::from_secs_f64(req.at);
            while Instant::now() < due {
                std::thread::yield_now();
            }
            if let (Some(r), Some(at)) = (republish, next_publish) {
                // Publishing just before a request of the republished
                // tenant makes the rollout time publish + one request.
                if req.tenant == r.tenant && Instant::now() >= at {
                    let model = r.model.clone();
                    let t0 = Instant::now();
                    let version = r
                        .registry
                        .publish(r.id, model, "republish")
                        .expect("republishing trained weights succeeds");
                    let t1 = Instant::now();
                    phase.published.push(Published {
                        start: t0,
                        end: t1,
                        tenant: r.tenant,
                        version,
                    });
                    next_publish = Some((at + r.every).max(t1));
                }
            }
            stamp(
                &mut buf,
                &frames[req.tenant][req.sample],
                base_id + i as u64,
            );
            let t0 = Instant::now();
            if let Err(e) = send_all(tx, &buf) {
                phase.broken = Some(format!("send failed: {e}"));
                break;
            }
            phase
                .sent
                .push((t0, if spans { Instant::now() } else { t0 }));
            phase.bytes_sent += buf.len() as u64;
        }
        let (replies, err) = receiver.join().expect("receiver thread panicked");
        phase.replies = replies;
        if phase.broken.is_none() {
            phase.broken = err;
        }
    });
    phase
}

fn receive(
    mut rx: &TcpStream,
    base_id: u64,
    tenants: &[ModelId],
    reqs: &[Req],
    deadline: Instant,
    spans: bool,
) -> (Vec<Option<Reply>>, Option<String>) {
    let n = reqs.len();
    let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    let mut got = 0;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while got < n {
        if Instant::now() > deadline {
            return (replies, Some(format!("{} responses missing", n - got)));
        }
        let k = match rx.read(&mut chunk) {
            Ok(0) => return (replies, Some("server closed the connection".into())),
            Ok(k) => k,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                std::thread::yield_now();
                continue;
            }
            Err(e) => return (replies, Some(format!("receive failed: {e}"))),
        };
        let at = Instant::now();
        buf.extend_from_slice(&chunk[..k]);
        let mut used = 0;
        loop {
            let resp = match Frame::decode(&buf[used..], DEFAULT_MAX_BODY) {
                Ok(Some((Frame::Response(resp), len))) => {
                    used += len;
                    resp
                }
                Ok(Some(_)) => return (replies, Some("unexpected frame kind".into())),
                Ok(None) => break,
                Err(e) => return (replies, Some(format!("bad response frame: {e}"))),
            };
            let Some(i) = resp
                .request_id
                .checked_sub(base_id)
                .map(|i| i as usize)
                .filter(|&i| i < n && replies[i].is_none())
            else {
                return (
                    replies,
                    Some(format!("stray response id {}", resp.request_id)),
                );
            };
            let outcome = resp
                .outcome
                .map(|p| Answer {
                    tenant_ok: p.model == tenants[reqs[i].tenant],
                    class: p.class,
                    score_bits: p.score.to_bits(),
                    version: p.model_version,
                })
                .map_err(|fault| fault.status);
            replies[i] = Some(Reply {
                at,
                decoded: if spans { Instant::now() } else { at },
                outcome,
            });
            got += 1;
        }
        buf.drain(..used);
    }
    (replies, None)
}
