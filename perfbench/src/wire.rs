//! The wire path: `wire-mix`.
//!
//! The shipped `edge-market serve` daemon runs as a child process. A
//! load generator posts a seeded event stream over at most `nproc`
//! connections: first open-loop at a fixed rate (latency timed from each
//! request's due time), then closed-loop (capacity). `/metrics` is
//! scraped on a fixed period throughout. Offline, a prefix of the same
//! stream, with a round close every few events, is written through
//! `LogWriter` and replayed with `parse_log` + `AuctionService::apply_all`
//! — the operator's crash-recovery path.

use crate::host::HostSpeed;
use crate::pins::Pins;
use crate::report::Report;
use crate::stats::{self, Timed};
use crate::{env, layers, Workload};
use edge_auction::service::{parse_log, AuctionService, LogWriter, ServiceConfig, ServiceEvent};
use edge_auction::ssam::{run_ssam, SsamConfig};
use edge_auction::wsp::WspInstance;
use edge_common::rng::derive_rng;
use edge_market_cli::serve::{parse_wire_event, stage_provider, ServeConfig};
use edge_telemetry::spans;
use edge_workload::params::PaperParams;
use rand::Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Replies slower than this count as failed requests.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon's market: 75 microservices, 300 requests a round, stages
/// of five rounds, a round closed every 100 ms.
const MICROSERVICES: usize = 75;
const REQUESTS: u64 = 300;
const STAGE_ROUNDS: u64 = 5;
const INTERVAL_MS: u64 = 100;
/// Open-loop send rate: a third of the seed commit's closed-loop
/// capacity (about 900 ev/s). At half, the tail tracked host noise.
const OPEN_LOOP_EPS: f64 = 300.0;
/// The admission-latency limit on p99; a failed request counts as
/// taking at least this long.
const P99_LIMIT_MS: f64 = 50.0;
const SCRAPE_PERIOD: Duration = Duration::from_millis(100);
const CLOSED_WINDOW: Duration = Duration::from_millis(1000);
/// Share of the run given to the live phases; blocks of offline
/// replays, one after each live cycle, fill the rest.
const LIVE_SHARE: f64 = 0.85;
/// Events generated: more than the live phases can send.
const STREAM_EVENTS: usize = 100_000;
/// The offline log: a stream prefix with a round close every 25 events.
const OFFLINE_EVENTS: usize = 20_000;
const CLOSE_EVERY: usize = 25;
/// Set-ups per run whose median is `setup_s` (each takes about 0.2 s).
const SETUPS: usize = 9;

/// One generated wire request.
struct WireEvent {
    path: &'static str,
    body: String,
    event: ServiceEvent,
    /// The bid a withdrawal removes: it is sent only after that bid's
    /// reply has arrived.
    after: Option<usize>,
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        microservices: MICROSERVICES,
        requests: REQUESTS,
        total_rounds: 0,
        stage_rounds: STAGE_ROUNDS,
        interval_ms: INTERVAL_MS,
        ..ServeConfig::default()
    }
}

/// The size the stream holds the wire book at: the longest bid list the
/// daemon's stage provider gives one round, every microservice offering
/// all `J` alternatives of `PaperParams`. Each closed round then carries
/// as many wire bids as generated ones.
fn book_target() -> usize {
    MICROSERVICES * PaperParams::default().bids_per_seller
}

/// The seeded event stream: 2% seller defaults, 8% demand reports, and
/// for the rest bids against withdrawals of bids already placed at
/// 65 : 25. A bid never goes in while the book holds [`book_target`]
/// bids; that event is a withdrawal instead. Without that, bids
/// outnumbering withdrawals grow the book until the daemon refuses bids
/// at its cap.
fn stream(seed: u64, len: usize) -> Vec<WireEvent> {
    let mut rng = derive_rng(seed, "perfbench.wire-mix");
    let book_target = book_target();
    let mut book: Vec<(usize, u64, usize)> = Vec::new();
    let mut next_bid = vec![0u64; MICROSERVICES];
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let u: f64 = rng.gen();
        let seller = rng.gen_range(0..MICROSERVICES);
        let (path, body, after) = if u < 0.02 {
            let fraction = (rng.gen_range(0.2..0.9f64) * 100.0).round() / 100.0;
            (
                "/v1/default",
                format!("{{\"seller\":{seller},\"delivered_fraction\":{fraction}}}"),
                None,
            )
        } else if u < 0.10 {
            let units = rng.gen_range(1..=4u64);
            ("/v1/demand", format!("{{\"units\":{units}}}"), None)
        } else if book.is_empty() || (rng.gen::<f64>() < 0.65 / 0.90 && book.len() < book_target) {
            let bid = next_bid[seller];
            next_bid[seller] += 1;
            let amount = rng.gen_range(1..=4u64);
            let price =
                (rng.gen_range(10.0..35.0f64) * amount as f64 / 5.0 * 100.0).round() / 100.0;
            book.push((seller, bid, i));
            (
                "/v1/bid",
                format!(
                    "{{\"seller\":{seller},\"bid\":{bid},\"amount\":{amount},\"price\":{price}}}"
                ),
                None,
            )
        } else {
            let (seller, bid, placed) = book.swap_remove(rng.gen_range(0..book.len()));
            (
                "/v1/bid/withdraw",
                format!("{{\"seller\":{seller},\"bid\":{bid}}}"),
                Some(placed),
            )
        };
        let event = parse_wire_event(path, &body).expect("generated bodies parse");
        out.push(WireEvent {
            path,
            body,
            event,
            after,
        });
    }
    out
}

/// The offline log's events: a stream prefix with a round close after
/// every [`CLOSE_EVERY`] events.
fn offline_events(stream: &[WireEvent]) -> Vec<ServiceEvent> {
    let mut events = Vec::new();
    for (i, e) in stream.iter().take(OFFLINE_EVENTS).enumerate() {
        events.push(e.event.clone());
        if (i + 1) % CLOSE_EVERY == 0 {
            events.push(ServiceEvent::RoundClosed);
        }
    }
    events
}

/// Writes the log, returning each append's time in microseconds.
fn write_log(
    path: &Path,
    config: &ServiceConfig,
    events: &[ServiceEvent],
) -> Result<Vec<f64>, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer =
        LogWriter::new(std::io::BufWriter::new(file), config).map_err(|e| e.to_string())?;
    let mut append_us = Vec::with_capacity(events.len());
    for event in events {
        let t = Instant::now();
        writer.append(event).map_err(|e| e.to_string())?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(append_us)
}

/// The crash-recovery replay: read, `parse_log` (chain verification),
/// `apply_all`. Returns the final state digest and the parse time.
fn replay(path: &Path) -> Result<(String, Duration), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t = Instant::now();
    let parsed = parse_log(&text, false).map_err(|e| e.to_string())?;
    let parse_time = t.elapsed();
    let mut svc = AuctionService::new(parsed.config, stage_provider(parsed.config));
    svc.apply_all(&parsed.records, None)
        .map_err(|e| e.to_string())?;
    Ok((svc.state_digest_hex(), parse_time))
}

/// The offline log's final state digest at `seed`, applied directly
/// (no log), for pinning and as the cross-check of every replay.
pub fn offline_digest(seed: u64) -> Result<String, String> {
    let service = serve_config(seed).service_config();
    let events = offline_events(&stream(seed, OFFLINE_EVENTS));
    let mut svc = AuctionService::new(service, stage_provider(service));
    for event in &events {
        svc.apply(event, None)
            .map_err(|e| format!("offline event rejected: {e}"))?;
    }
    Ok(svc.state_digest_hex())
}

/// A reply read off the wire, with its connect / first-byte / rest
/// times in seconds.
struct Reply {
    status: u16,
    body: String,
    connect: f64,
    ttfb: f64,
    read: f64,
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon closes each).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let t1 = Instant::now();
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8192];
    let mut n = stream.read(&mut chunk)?;
    let t2 = Instant::now();
    while n > 0 {
        buf.extend_from_slice(&chunk[..n]);
        n = stream.read(&mut chunk)?;
    }
    let t3 = Instant::now();
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Reply {
        status,
        body: body.to_owned(),
        connect: (t1 - t0).as_secs_f64(),
        ttfb: (t2 - t1).as_secs_f64(),
        read: (t3 - t2).as_secs_f64(),
    })
}

/// `(seq, digest)` of an accepted wire reply.
fn accepted(reply: &Reply) -> Option<(u64, String)> {
    if reply.status != 200 {
        return None;
    }
    let v: serde::Value = serde_json::from_str(&reply.body).ok()?;
    match (v.get("ok"), v.get("seq"), v.get("digest")) {
        (
            Some(serde::Value::Bool(true)),
            Some(serde::Value::U64(seq)),
            Some(serde::Value::Str(d)),
        ) => Some((*seq, d.clone())),
        _ => None,
    }
}

/// The daemon child process; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Drains the daemon's stderr; ends when the daemon exits.
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(binary: &Path, c: &ServeConfig, log: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .arg("serve")
            .args(["--seed", &c.seed.to_string()])
            .args(["--microservices", &c.microservices.to_string()])
            .args(["--requests", &c.requests.to_string()])
            .args(["--rounds", "0"])
            .args(["--stage-rounds", &c.stage_rounds.to_string()])
            .args(["--interval-ms", &c.interval_ms.to_string()])
            .args(["--port", "0"])
            .arg("--event-log")
            .arg(log)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        // The daemon announces its address on stderr; keep draining
        // stderr afterwards so it never blocks on a full pipe.
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("serving http://") {
                    let _ = tx.send(addr.split_whitespace().next().unwrap_or("").to_owned());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon never announced its address".to_owned())?;
        daemon.addr = addr
            .parse()
            .map_err(|_| format!("bad daemon address {addr}"))?;
        let start = Instant::now();
        loop {
            if let Ok(r) = http(daemon.addr, "GET", "/healthz", "") {
                if r.status == 200 && r.body == "ok\n" {
                    return Ok(daemon);
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("the daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(&self, path: &str) -> Result<String, String> {
        match http(self.addr, "GET", path, "") {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("GET {path} answered {}", r.status)),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// Removes the scratch directory on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Repetitions of the offline replay, checked against the expected
/// state digest, each after a host-speed sample. With `trace`, traced and
/// untraced repetitions alternate.
struct Replays {
    expected: String,
    host: HostSpeed,
    trace: bool,
    plain: Vec<f64>,
    spanned: Vec<f64>,
    parse: Vec<f64>,
    trees: Vec<Vec<(&'static str, f64)>>,
}

impl Replays {
    fn rep(&mut self, report: &mut Report, log: &Path) -> Result<(), String> {
        let with_spans = self.trace && self.spanned.len() < self.plain.len();
        self.host.sample();
        if with_spans {
            spans::install();
        }
        let t = Instant::now();
        let result = {
            let _root = spans::enter("bench.replay");
            replay(log)
        };
        let took = t.elapsed().as_secs_f64();
        if with_spans {
            let tree = spans::uninstall().ok_or("span tree was not installed")?;
            self.trees.push(layers::from_tree(&tree));
            self.spanned.push(took);
        } else {
            self.plain.push(took);
        }
        match result {
            Ok((digest, parse)) => {
                self.parse.push(parse.as_secs_f64());
                let expected = &self.expected;
                report.check(digest == *expected, || {
                    format!("offline replay digest {digest}, expected {expected}")
                });
            }
            Err(e) => report.check(false, || format!("offline replay failed: {e}")),
        }
        Ok(())
    }
}

/// One wire request as sent and answered.
struct Sample {
    idx: usize,
    timed: Timed,
    accepted: Option<(u64, String)>,
    split: Option<(f64, f64, f64)>,
}

enum Pace {
    /// Request `k` of the phase is due at `k / rate` seconds.
    Open(f64),
    /// Each connection sends its next request as soon as its reply ends.
    Closed,
}

/// Shared state of a load phase.
struct Phase<'a> {
    addr: SocketAddr,
    events: &'a [WireEvent],
    replied: &'a [AtomicBool],
    next: Mutex<usize>,
    first: usize,
    pace: Pace,
    length: f64,
    inflight: AtomicUsize,
    inflight_max: AtomicUsize,
}

impl Phase<'_> {
    /// Takes the next event in stream order and its due time, or `None`
    /// when the phase is over.
    fn take(&self, start: Instant) -> Option<(usize, f64)> {
        let mut next = self.next.lock().expect("phase lock");
        let i = *next;
        let due = match self.pace {
            Pace::Open(rate) => (i - self.first) as f64 / rate,
            Pace::Closed => start.elapsed().as_secs_f64(),
        };
        if i >= self.events.len() || due >= self.length {
            return None;
        }
        *next += 1;
        Some((i, due))
    }

    fn worker(&self, start: Instant) -> Vec<Sample> {
        let mut out = Vec::new();
        while let Some((i, due)) = self.take(start) {
            let event = &self.events[i];
            if let Some(bid) = event.after {
                let wait = Instant::now();
                while !self.replied[bid].load(Ordering::Acquire) && wait.elapsed() < REQUEST_TIMEOUT
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            let now = start.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let sent = start.elapsed().as_secs_f64();
            let depth = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            self.inflight_max.fetch_max(depth, Ordering::AcqRel);
            let reply = http(self.addr, "POST", event.path, &event.body);
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            let done = start.elapsed().as_secs_f64();
            self.replied[i].store(true, Ordering::Release);
            let accepted = reply.as_ref().ok().and_then(accepted);
            out.push(Sample {
                idx: i,
                timed: Timed {
                    due,
                    sent,
                    done,
                    ok: accepted.is_some(),
                },
                split: reply.ok().map(|r| (r.connect, r.ttfb, r.read)),
                accepted,
            });
        }
        out
    }
}

/// Runs one load phase over `workers` connections; returns its samples
/// (in stream order), the next unsent event, and the peak in-flight count.
fn load_phase(
    addr: SocketAddr,
    events: &[WireEvent],
    replied: &[AtomicBool],
    first: usize,
    pace: Pace,
    length: Duration,
    workers: usize,
) -> (Vec<Sample>, usize, usize) {
    let phase = Phase {
        addr,
        events,
        replied,
        next: Mutex::new(first),
        first,
        pace,
        length: length.as_secs_f64(),
        inflight: AtomicUsize::new(0),
        inflight_max: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| phase.worker(start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    let next = *phase.next.lock().expect("phase lock");
    (samples, next, phase.inflight_max.load(Ordering::Acquire))
}

/// One periodic `/metrics` scrape: latency from its due time, size,
/// queue depth seen, success.
struct Scrape {
    latency_ms: f64,
    bytes: usize,
    queue_depth: f64,
    ok: bool,
}

fn scraper(addr: SocketAddr, period: Duration, stop: &AtomicBool) -> Vec<Scrape> {
    let start = Instant::now();
    let mut out = Vec::new();
    for k in 0u32.. {
        let due = period * k;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let reply = http(addr, "GET", "/metrics", "");
        let latency_ms = (start.elapsed() - due).as_secs_f64() * 1e3;
        out.push(match reply {
            Ok(r) if r.status == 200 => Scrape {
                latency_ms,
                bytes: r.body.len(),
                queue_depth: series_sum(&prometheus(&r.body), "edge_service_queue_depth", ""),
                ok: true,
            },
            _ => Scrape {
                latency_ms,
                bytes: 0,
                queue_depth: 0.0,
                ok: false,
            },
        });
    }
    out
}

/// Prometheus text exposition → series (name with labels) → value.
fn prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// Sum of the series of family `name` whose labels contain `label`.
fn series_sum(map: &BTreeMap<String, f64>, name: &str, label: &str) -> f64 {
    map.iter()
        .filter(|(k, _)| {
            let labels = k
                .strip_prefix(name)
                .filter(|rest| rest.is_empty() || rest.starts_with('{'));
            labels.is_some_and(|l| l.contains(label))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Checks the daemon's own log against the replies it gave: the log's
/// chain verifies, every accepted reply's `(seq, digest)` is the record
/// holding the event sent, and those seqs with the daemon's own round
/// closes cover the log contiguously. Replaying the log must reproduce
/// the stage digest `/status` reported.
fn check_live_log(
    report: &mut Report,
    log: &Path,
    events: &[WireEvent],
    samples: &[Sample],
    stages: u64,
    last_digest: &str,
) -> Result<(), String> {
    let text = std::fs::read_to_string(log).map_err(|e| format!("{}: {e}", log.display()))?;
    // The daemon was killed, so a final record may be cut mid-write.
    let parsed = match parse_log(&text, true) {
        Ok(parsed) => parsed,
        Err(e) => {
            report.check(false, || format!("live log does not parse: {e}"));
            return Ok(());
        }
    };
    let by_seq: BTreeMap<u64, (usize, &str)> = samples
        .iter()
        .filter_map(|s| {
            s.accepted
                .as_ref()
                .map(|(seq, digest)| (*seq, (s.idx, digest.as_str())))
        })
        .collect();
    let mut problem = None;
    let mut seen = 0;
    for record in &parsed.records {
        match by_seq.get(&record.seq) {
            Some(&(idx, digest)) => {
                seen += 1;
                if record.event != events[idx].event || record.digest != digest {
                    problem.get_or_insert(format!(
                        "live log seq {} does not hold the reply's event",
                        record.seq
                    ));
                }
            }
            None if record.event != ServiceEvent::RoundClosed => {
                problem.get_or_insert(format!(
                    "live log seq {} holds an event no reply accepted",
                    record.seq
                ));
            }
            None => {}
        }
    }
    if seen != by_seq.len() {
        problem.get_or_insert(format!(
            "{} accepted replies name seqs past the log",
            by_seq.len() - seen
        ));
    }
    report.check(problem.is_none(), || problem.unwrap_or_default());

    let service = parsed.config;
    let mut svc = AuctionService::new(service, stage_provider(service));
    let mut stage_digests = Vec::new();
    for record in &parsed.records {
        match svc.apply(&record.event, None) {
            Ok(applied) => stage_digests.extend(applied.stage.map(|s| s.outcome_digest)),
            Err(e) => {
                report.check(false, || {
                    format!("live log seq {} rejected on replay: {e}", record.seq)
                });
                return Ok(());
            }
        }
    }
    let replayed = usize::try_from(stages)
        .ok()
        .and_then(|k| k.checked_sub(1))
        .and_then(|k| stage_digests.get(k));
    report.check(replayed.is_some_and(|d| d == last_digest), || {
        format!(
            "live log replays stage {stages} to {replayed:?}, the daemon reported {last_digest}"
        )
    });
    Ok(())
}

fn ms_tail(report: &mut Report, name: &str, xs: &[f64], q: f64) {
    if !xs.is_empty() {
        report.set(name, stats::tail_or_highest(xs, q, &[0.95, 0.9]).value);
    }
}

/// Runs `wire-mix` for `seconds` and fills the report.
pub fn run(
    pins: &Pins,
    seed: u64,
    seconds: Duration,
    trace: bool,
    binary: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let serve = serve_config(seed);
    let service = serve.service_config();
    let tmp = TempDir(
        env::target_dir(&env::repo_root()).join(format!("perfbench-wire-{}", std::process::id())),
    );
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let offline_log = tmp.0.join("offline.jsonl");

    // Set-up, several times: daemon spawn until /healthz answers, plus
    // generating and writing the seeded offline log.
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut daemon = None;
    let mut live_log = PathBuf::new();
    let (mut events, mut offline, mut append_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut host = HostSpeed::new();
    for k in 0..SETUPS {
        drop(daemon.take());
        host.sample();
        live_log = tmp.0.join(format!("live-{k}.jsonl"));
        let t = Instant::now();
        daemon = Some(Daemon::spawn(binary, &serve, &live_log)?);
        let generate = Instant::now();
        events = stream(seed, STREAM_EVENTS);
        offline = offline_events(&events);
        generate_s.push(generate.elapsed().as_secs_f64());
        append_us = write_log(&offline_log, &service, &offline)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one setup");
    let workers = edge_auction::available_pricing_threads();

    let expected = match pins.get(Workload::WireMix, seed) {
        Some(pin) => pin.to_owned(),
        None => {
            report.note(format!(
                "seed {seed} has no pinned digest; replays are checked against a direct apply"
            ));
            offline_digest(seed)?
        }
    };
    let mut replays = Replays {
        expected,
        host,
        trace,
        plain: Vec::new(),
        spanned: Vec::new(),
        parse: Vec::new(),
        trees: Vec::new(),
    };

    // Cycles of live load and offline replays. Open-loop windows of
    // `window` requests alternate with closed-loop windows, so a burst
    // of host noise lands on a few windows of each kind and the medians
    // over windows pass it by; the scraper runs through both. A block of
    // replays follows each cycle while the daemon idles (no requests, no
    // scrapes), so every replay is timed under that one condition and
    // the replay samples span the run, as the batch repetitions do.
    let window = stats::MIN_BEYOND * 100; // p99 of this many leaves ten beyond it
    let open_window = Duration::from_secs_f64(window as f64 / OPEN_LOOP_EPS);
    let cycle = open_window + CLOSED_WINDOW;
    let cycles = ((seconds.mul_f64(LIVE_SHARE).as_secs_f64() / cycle.as_secs_f64()) as u32).max(1);
    let replay_block = seconds.saturating_sub(cycle * cycles) / cycles;
    let before = prometheus(&daemon.get("/metrics")?);
    let replied: Vec<AtomicBool> = events.iter().map(|_| AtomicBool::new(false)).collect();
    let (mut windows, mut scrapes) = (Vec::new(), Vec::new());
    let mut next = 0;
    for _ in 0..cycles {
        let stop = AtomicBool::new(false);
        let (open, closed, cycle_scrapes) = std::thread::scope(|s| {
            let scrapes = s.spawn(|| scraper(daemon.addr, SCRAPE_PERIOD, &stop));
            let open = load_phase(
                daemon.addr,
                &events,
                &replied,
                next,
                Pace::Open(OPEN_LOOP_EPS),
                open_window,
                workers,
            );
            let closed = load_phase(
                daemon.addr,
                &events,
                &replied,
                open.1,
                Pace::Closed,
                CLOSED_WINDOW,
                workers,
            );
            stop.store(true, Ordering::Release);
            (open, closed, scrapes.join().expect("scraper"))
        });
        next = closed.1;
        windows.push((open, closed));
        scrapes.extend(cycle_scrapes);
        let block = Instant::now();
        loop {
            replays.rep(report, &offline_log)?;
            if block.elapsed() >= replay_block {
                break;
            }
        }
    }
    while replays.plain.len() < 3 || (trace && replays.spanned.is_empty()) {
        replays.rep(report, &offline_log)?;
    }
    let after = prometheus(&daemon.get("/metrics")?);
    let status: serde::Value =
        serde_json::from_str(&daemon.get("/status")?).map_err(|e| format!("/status: {e}"))?;
    let stages = status
        .get("stages")
        .and_then(serde::Value::as_f64)
        .unwrap_or(0.0) as u64;
    let last_digest = match status.get("last_digest") {
        Some(serde::Value::Str(d)) => d.clone(),
        _ => String::new(),
    };
    let rss = env::peak_rss_mb(&daemon.child.id().to_string())?;
    drop(daemon);
    if windows
        .last()
        .is_some_and(|(_, closed)| closed.1 >= events.len())
    {
        report.note("the live phases used the whole event stream".into());
    }

    let mut open_lat = Vec::new(); // per open window, in due order
    let mut capacity = Vec::new(); // per closed window
    let mut inflight_max = 0;
    let (mut open, mut sent) = (Vec::new(), Vec::new());
    for ((o, _, o_max), (cl, _, c_max)) in windows {
        let timed: Vec<Timed> = o.iter().map(|s| s.timed).collect();
        open_lat.push(stats::open_loop_latencies_ms(&timed, P99_LIMIT_MS));
        let wall = cl.iter().map(|s| s.timed.done).fold(0.0, f64::max);
        capacity.push(cl.iter().filter(|s| s.timed.ok).count() as f64 / wall.max(1e-9));
        inflight_max = inflight_max.max(o_max).max(c_max);
        for s in o.iter().chain(&cl) {
            report.count(1, u64::from(!s.timed.ok));
        }
        open.extend(o.iter().map(|s| (s.timed, s.split)));
        sent.extend(o.into_iter().chain(cl));
    }
    report.count(
        scrapes.len() as u64,
        scrapes.iter().filter(|s| !s.ok).count() as u64,
    );
    check_live_log(report, &live_log, &events, &sent, stages, &last_digest)?;

    // The gated tail is p90: on a 2-vCPU host with a few percent of CPU
    // steal, the run-to-run spread of p99 exceeds any usable bound. p99
    // and the limit on it are still measured and printed.
    let lat: Vec<f64> = open_lat.concat();
    let window_tail = |q: f64| {
        let tails: Vec<f64> = open_lat
            .iter()
            .filter_map(|w| stats::tail(w, q))
            .map(|t| t.value)
            .collect();
        (!tails.is_empty()).then(|| stats::median(&tails))
    };
    let p90 = window_tail(0.9).unwrap_or_else(|| stats::tail_or_highest(&lat, 0.9, &[0.5]).value);
    let p99 = stats::tail_or_highest(&lat, 0.99, &[0.95, 0.9]);
    let shape: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995]
        .iter()
        .filter_map(|&q| stats::tail(&lat, q).map(|t| format!("p{} {:.3}", q * 100.0, t.value)))
        .collect();
    report.note(format!(
        "open loop: {} windows of {window} requests at {} ev/s; p90_ms is the median of the window p90s \
         (window p99 median {:.3}); whole-phase latency ms over {} requests: {}; p{} {:.3} ms {} the {} ms limit",
        open_lat.len(),
        OPEN_LOOP_EPS,
        window_tail(0.99).unwrap_or(f64::NAN),
        lat.len(),
        shape.join(", "),
        p99.q * 100.0,
        p99.value,
        if p99.value <= P99_LIMIT_MS { "meets" } else { "misses" },
        P99_LIMIT_MS,
    ));
    report.note(format!(
        "closed loop: {} windows of {} ms on {workers} connections; {} scrapes; {} replays of {} events ({})",
        capacity.len(),
        CLOSED_WINDOW.as_millis(),
        scrapes.len(),
        replays.plain.len(),
        offline.len(),
        replays.plain.iter().map(|t| format!("{t:.3}")).collect::<Vec<_>>().join(" "),
    ));
    // Timings on the benchmark's own CPU are scaled to the reference host
    // speed (see `host`); the live latencies and capacity are not.
    report.note(replays.host.describe());
    let scale = replays.host.factor();
    report.set("setup_s", stats::median(&setup_s) * scale);
    report.set("run_s", stats::median(&replays.plain) * scale);
    report.set("peak_rss_mb", rss);
    report.set("p50_ms", stats::median(&lat));
    report.set("p90_ms", p90);
    report.set("capacity_eps", stats::median(&capacity));

    if trace {
        let kinds: Vec<_> = ["/v1/bid", "/v1/bid/withdraw", "/v1/demand", "/v1/default"]
            .iter()
            .map(|p| {
                format!(
                    "{p} {}",
                    sent.iter().filter(|s| events[s.idx].path == *p).count()
                )
            })
            .collect();
        report.note(format!("mix sent: {}", kinds.join(", ")));
        report.set("scenario.generate_s", stats::median(&generate_s));
        traced_layers(
            report,
            &service,
            &events,
            &offline,
            &append_us,
            &replays.parse,
        )?;
        let split = |k: usize| -> Vec<f64> {
            open.iter()
                .filter_map(|(_, split)| *split)
                .map(|t| [t.0, t.1, t.2][k] * 1e3)
                .collect()
        };
        for (k, name) in ["http.connect_ms", "http.ttfb_ms", "http.read_ms"]
            .iter()
            .enumerate()
        {
            let xs = split(k);
            report.set(&format!("{name}_p50"), stats::median(&xs));
            ms_tail(report, &format!("{name}_p99"), &xs, 0.99);
        }
        let scrape_ms: Vec<f64> = scrapes.iter().map(|s| s.latency_ms).collect();
        ms_tail(report, "scrape.p90_ms", &scrape_ms, 0.9);
        let bytes: Vec<f64> = scrapes.iter().map(|s| s.bytes as f64).collect();
        report.set("scrape.bytes", stats::median(&bytes));
        let late = stats::lateness_ms(&open.iter().map(|(t, _)| *t).collect::<Vec<_>>());
        ms_tail(report, "loadgen.late_p99_ms", &late, 0.99);
        report.set(
            "loadgen.late_max_ms",
            late.iter().copied().fold(0.0, f64::max),
        );
        report.set("loadgen.inflight_max", inflight_max as f64);
        let delta = |name: &str, label: &str| {
            series_sum(&after, name, label) - series_sum(&before, name, label)
        };
        let stage_ns = "edge_profile_stage_ns_sum";
        report.set(
            "daemon.service_apply_ms",
            delta(stage_ns, "stage=\"service.apply\"") / 1e6,
        );
        report.set("daemon.msoa_ms", delta(stage_ns, "stage=\"msoa\"") / 1e6);
        report.set("daemon.stages", delta("edge_service_stages_total", ""));
        report.set(
            "daemon.queue_depth_max",
            scrapes.iter().map(|s| s.queue_depth).fold(0.0, f64::max),
        );
        let rejected = "edge_service_rejected_total";
        let mut named = 0.0;
        for reason in ["backpressure", "malformed", "oversized_body", "bad_utf8"] {
            let d = delta(rejected, &format!("reason=\"{reason}\""));
            named += d;
            report.set(&format!("daemon.rejected.{reason}"), d);
        }
        report.set("daemon.rejected.admission", delta(rejected, "") - named);
        report.set(
            "trace.overhead_share",
            stats::median(&replays.spanned) / stats::median(&replays.plain) - 1.0,
        );
        layers::record(report, &layers::median_of(&replays.trees));
    }
    Ok(())
}

/// Per-layer timings of the offline service path, from public calls.
fn traced_layers(
    report: &mut Report,
    service: &ServiceConfig,
    events: &[WireEvent],
    offline: &[ServiceEvent],
    append_us: &[f64],
    parse_s: &[f64],
) -> Result<(), String> {
    let mut provider = stage_provider(*service);
    let provider_ms: Vec<f64> = (0..20)
        .map(|stage| {
            let t = Instant::now();
            drop(provider(stage, STAGE_ROUNDS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("serve.stage_provider_ms", stats::median(&provider_ms));

    // The standalone public calls on the first stage's first round.
    let base = provider(0, STAGE_ROUNDS);
    let round0 = &base.rounds()[0];
    let bids = round0.bids.clone();
    let t = Instant::now();
    let wsp = WspInstance::new(round0.estimated_demand, bids).map_err(|e| e.to_string())?;
    report.set("wsp.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    run_ssam(&wsp, &SsamConfig::default()).map_err(|e| e.to_string())?;
    report.set("ssam.call_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    for e in events {
        std::hint::black_box(parse_wire_event(e.path, &e.body).ok());
    }
    report.set(
        "wire.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / events.len().max(1) as f64,
    );

    let mut svc = AuctionService::new(*service, stage_provider(*service));
    let (mut check_us, mut apply_us, mut stage_ms) = (Vec::new(), Vec::new(), Vec::new());
    for event in offline {
        let t = Instant::now();
        svc.check(event)
            .map_err(|e| format!("offline event rejected: {e}"))?;
        check_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let applied = svc
            .apply(event, None)
            .map_err(|e| format!("offline event rejected: {e}"))?;
        let took = t.elapsed().as_secs_f64();
        match applied.stage {
            Some(_) => stage_ms.push(took * 1e3),
            None => apply_us.push(took * 1e6),
        }
    }
    report.set("service.check_us_p50", stats::median(&check_us));
    report.set("service.apply_us_p50", stats::median(&apply_us));
    ms_tail(report, "service.apply_us_p99", &apply_us, 0.99);
    if !stage_ms.is_empty() {
        report.set("service.stage_ms_p50", stats::median(&stage_ms));
        report.set(
            "service.stage_ms_max",
            stage_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    report.set("log.parse_s", stats::median(parse_s));
    report.set("log.append_us_p50", stats::median(append_us));
    ms_tail(report, "log.append_us_p99", append_us, 0.99);
    Ok(())
}
