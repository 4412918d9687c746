//! End-to-end and per-layer benchmark of the intensional query service
//! on a generated 15k-tuple fleet. See `README.md` in this directory.

pub mod drive;
pub mod oracle;
pub mod queries;
pub mod trace;
pub mod truth;
pub mod util;

use drive::{Mix, Reads, Scratch, Writes};
use intensio_shipdb::FleetConfig;
use oracle::ReplyLog;
use queries::{repeat_set, Distinct};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use trace::{Replay, Tracer};
use truth::Base;
use util::{median, quantile, rss_peak_mb};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadDistinct,
    ReadRepeat,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ReadDistinct, Workload::ReadRepeat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadDistinct => "fleet-read-distinct",
            Workload::ReadRepeat => "fleet-read-repeat",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds per untraced run (a traced run has one); each reads, writes
/// and restarts the service once.
const ROUNDS: usize = 3;
/// Closed-loop reader threads of a read window.
const READERS: usize = 2;
/// Appends in the long burst of a round's write cycle.
const LONG_BURST: usize = 200;
/// Appends per slice that `write_qps` is the median over.
const WRITE_SLICE: usize = 100;
/// Writes the layer replay sends.
const REPLAY_WRITES: usize = 40;
/// Distinct queries the layer replay sends on `fleet-read-distinct`.
const REPLAY_DISTINCT: usize = 16;

/// The fleet every workload runs on: 4 types × 12 classes × 160 ships,
/// 15,428 tuples.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        n_types: 4,
        classes_per_type: 12,
        ships_per_class: 160,
        ..FleetConfig::default()
    }
}

/// A small fleet (2 types × 6 classes × 12 ships) for smoke tests.
pub fn smoke_fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        n_types: 2,
        classes_per_type: 6,
        ships_per_class: 12,
        ..FleetConfig::default()
    }
}

pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fleet: FleetConfig,
    /// Directory for data directories, logs and span files.
    pub out_dir: PathBuf,
}

/// A run's result: operations attempted and failed, whether every
/// checked output was right, and the metrics as (name, value, unit).
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub errors: Vec<String>,
}

impl Outcome {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, errors: Vec<String>) {
        for e in errors {
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    util::json_str(n),
                    json_num(*v),
                    util::json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Service counters summed over a run's rounds (each round's service
/// starts its own STATS from zero).
#[derive(Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    queue_waits: u64,
    queue_wait_us: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_checkpoints: u64,
}

impl Counters {
    /// Add the cache and queue counts from `before` to `read`, and the
    /// log counts from `before` to `written`.
    fn add(
        &mut self,
        before: &intensio_serve::StatsReply,
        read: &intensio_serve::StatsReply,
        written: &intensio_serve::StatsReply,
    ) {
        let queue = |s: &intensio_serve::StatsReply| {
            s.metrics
                .stage("queue_wait")
                .map_or((0, 0), |h| (h.count, h.sum_us))
        };
        let wal = |s: &intensio_serve::StatsReply| {
            s.durability.as_ref().map_or((0, 0, 0), |d| {
                (d.wal_appends, d.wal_fsyncs, d.wal_checkpoints)
            })
        };
        self.cache_hits += read.cache_hits - before.cache_hits;
        self.cache_misses += read.cache_misses - before.cache_misses;
        let (q0, q1) = (queue(before), queue(read));
        self.queue_waits += q1.0 - q0.0;
        self.queue_wait_us += q1.1 - q0.1;
        let (w0, w1) = (wal(before), wal(written));
        self.wal_appends += w1.0 - w0.0;
        self.wal_fsyncs += w1.1 - w0.1;
        self.wal_checkpoints += w1.2 - w0.2;
    }
}

/// What the timed part of a run produced.
struct Drive {
    reads: Reads,
    /// Seconds the read windows took together.
    window_s: f64,
    writes: Writes,
    recovery_s: Vec<f64>,
    counters: Counters,
}

/// Run one workload once and check every output.
///
/// A run generates the fleet, opens the service [`SETUPS`] times and
/// then runs [`ROUNDS`] rounds, each of them a read window of
/// `seconds / ROUNDS`, a write cycle and a restart of the service on its
/// data directory. Every timed figure is thus taken at several points
/// spread over the run, so a slow stretch of the machine weighs on one
/// sample of each, not on all of one figure.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let fleet =
        intensio_shipdb::generate(p.fleet).map_err(|e| format!("generating the fleet: {e}"))?;
    let base = Base::from_fleet(&fleet);
    let scratch = Scratch::new(p.out_dir.join(format!("data-{}", std::process::id())));
    let tracer = Tracer::new(p.trace);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..if p.trace { 1 } else { SETUPS } {
        drop(live.take());
        let dir = scratch.dir();
        let (svc, secs) = drive::open(&fleet, &dir)?;
        setups.push(secs);
        live = Some((svc, dir));
    }
    let (mut svc, dir) = live.expect("at least one set-up");

    let rounds = if p.trace { 1 } else { ROUNDS };
    let all_writes = drive::writes(&base, p.seed, rounds * (drive::SHORT_BURST + LONG_BURST));
    let repeat = repeat_set(&base, p.seed);
    let mix = match p.workload {
        Workload::ReadDistinct => {
            Mix::Stream(Mutex::new((Distinct::new(&base, p.seed), Vec::new())))
        }
        Workload::ReadRepeat => Mix::Fixed(repeat.clone()),
    };
    let window = p.seconds / rounds as f64;
    let log = Mutex::new(ReplyLog::default());
    let mut reads = Reads::default();
    let mut writes = Writes::default();
    let mut recovery = drive::Recovery::default();
    let mut counters = Counters::default();
    let mut window_s = 0.0;
    for ws in all_writes.chunks(drive::SHORT_BURST + LONG_BURST) {
        // The repeat set starts each round warm: one untimed, checked
        // pass.
        if p.workload == Workload::ReadRepeat {
            let warm = drive::read_loop(&svc, &mix, &log, 0, &|| false, Some(repeat.len()), None);
            reads.attempted += warm.attempted;
        }
        let before = svc.stats();
        let start = Instant::now();
        let stop = || start.elapsed().as_secs_f64() >= window;
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|c| {
                    let (svc, mix, log, stop, tracer) = (&svc, &mix, &log, &stop, &tracer);
                    s.spawn(move || drive::read_loop(svc, mix, log, c, stop, None, Some(tracer)))
                })
                .collect();
            for r in readers {
                reads.merge(r.join().expect("reader thread"));
            }
        });
        window_s += start.elapsed().as_secs_f64();
        let read = svc.stats();
        writes.cycle(&svc, ws);
        counters.add(&before, &read, &svc.stats());
        svc = recovery.restart(svc, &fleet, &base, &dir, &writes.acked)?;
    }
    drop(svc);
    let mut log = log.into_inner().expect("reply log lock");
    log.verify(&base, &writes.acked, &|q| mix.get(q));

    let d = Drive {
        window_s,
        recovery_s: recovery.secs,
        counters,
        reads,
        writes,
    };
    out.attempted = d.reads.attempted + d.writes.attempted + recovery.attempted;
    out.failed = log.failed + d.writes.failed + recovery.failed;
    out.correct = log.wrong == 0 && recovery.failed == 0;
    out.note(log.errors);
    out.note(d.writes.errors.clone());
    out.note(recovery.errors);

    if p.trace {
        per_layer(p, &fleet, &base, &repeat, &tracer, &d, &mut out);
    } else {
        end_to_end(&setups, &d, &mut out);
    }
    Ok(out)
}

/// Read throughput, median and p95 latency over every read of every
/// window.
fn read_figures(d: &Drive) -> (f64, f64, f64) {
    let s = &d.reads.samples;
    (
        s.len() as f64 / d.window_s,
        quantile(s, 0.5).unwrap_or(0.0),
        quantile(s, 0.95).unwrap_or(0.0),
    )
}

/// Appends acknowledged per second while a burst is in flight: the
/// median over consecutive slices of [`WRITE_SLICE`] appends of slice
/// size over summed latency. The writer sends each append when the
/// previous one is acknowledged, so a slice's summed latency is the time
/// it was in flight.
fn write_rate(latencies_ms: &[f64]) -> f64 {
    let rates: Vec<f64> = latencies_ms
        .chunks_exact(WRITE_SLICE)
        .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    median(&rates).unwrap_or(0.0)
}

fn end_to_end(setups: &[f64], d: &Drive, out: &mut Outcome) {
    let w = &d.writes;
    let acked = w.acked.len().max(1) as f64;
    let (qps, p50, p95) = read_figures(d);
    out.add("setup_s", median(setups).unwrap_or(0.0), "s");
    out.add("read_qps", qps, "req/s");
    out.add("read_p50_ms", p50, "ms");
    out.add("read_p95_ms", p95, "ms");
    out.add("write_qps", write_rate(&w.latencies_ms), "writes/s");
    out.add(
        "write_p50_ms",
        quantile(&w.latencies_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.add("rules_fresh_s", median(&w.fresh_s).unwrap_or(0.0), "s");
    out.add("wal_bytes_per_write", w.wal_bytes as f64 / acked, "bytes");
    out.add("recovery_s", median(&d.recovery_s).unwrap_or(0.0), "s");
    out.add("rss_peak_mb", rss_peak_mb().unwrap_or(0.0), "MB");
}

/// The traced part: replay the workload's requests through each layer
/// five times (a warm-up, then untraced, traced, traced, untraced) and
/// report per-layer self times, work counts and the tracing overhead.
fn per_layer(
    p: &Params,
    fleet: &intensio_shipdb::Fleet,
    base: &Base,
    repeat: &[queries::Query],
    tracer: &Tracer,
    d: &Drive,
    out: &mut Outcome,
) {
    let reads: Vec<queries::Query> = match p.workload {
        Workload::ReadDistinct => {
            let mut g = Distinct::new(base, p.seed);
            (0..REPLAY_DISTINCT).map(|_| g.next_query()).collect()
        }
        Workload::ReadRepeat => repeat.iter().chain(repeat).chain(repeat).cloned().collect(),
    };
    let writes = drive::writes(base, p.seed, REPLAY_WRITES);
    let dir = p.out_dir.join(format!("replay-{}", std::process::id()));
    // The first pass of a replay runs slower than later ones (it was the
    // slowest of five in every run looked at), so an untraced warm-up
    // goes first. The passes compared after it run untraced, traced,
    // traced, untraced, so that a drift over the run weighs on both
    // sides alike.
    let mut request_s: [Vec<f64>; 5] = Default::default();
    let mut counts = trace::Counts::new();
    let quiet = Tracer::new(false);
    for (i, t) in [&quiet, &quiet, tracer, tracer, &quiet]
        .into_iter()
        .enumerate()
    {
        let mut replay = Replay::new(base, fleet.ker_model(), t);
        replay.run(fleet.db.clone(), &reads, &writes, &dir);
        request_s[i] = std::mem::take(&mut replay.request_s);
        out.attempted += (reads.len() + writes.len()) as u64;
        out.failed += replay.wrong;
        out.correct &= replay.wrong == 0;
        out.note(replay.errors);
        if t.on() {
            counts = replay.counts;
        }
    }
    let spans = p
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", p.workload.name(), p.seed));
    if let Err(e) = tracer.write_jsonl(&spans) {
        out.note(vec![format!("writing {}: {e}", spans.display())]);
    }
    let selfs = tracer.self_times_us();
    let us = |name: &str| selfs.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.analyze_us", "sql.analyze"),
        ("inference.fingerprint_us", "inference.fingerprint"),
        ("inference.engine_build_us", "inference.engine_build"),
        ("inference.infer_us", "inference.infer"),
        ("sql.execute_us", "sql.execute"),
        ("core.summarize_us", "core.summarize"),
        ("serve.encode_us", "serve.encode"),
        ("serve.submit_us", "serve.submit"),
        ("quel.run_script_us", "quel.run_script"),
        ("storage.cow_insert_us", "storage.cow_insert"),
        ("wal.append_us", "wal.append"),
        ("induction.induce_us", "induction.induce"),
        ("check.lint_us", "check.lint"),
        ("rules.minimize_us", "rules.minimize"),
        ("wal.rules_encode_us", "wal.rules_encode"),
        ("wal.recover_us", "wal.recover"),
    ] {
        out.add(metric, us(span), "us");
    }
    let c = &d.counters;
    out.add(
        "serve.queue_wait_us",
        c.queue_wait_us as f64 / c.queue_waits.max(1) as f64,
        "us",
    );
    // The append latency tail of the traced drive's write cycle. It is a
    // per-layer figure, not an end-to-end one: from run to run it spread
    // about twice as wide as the median append latency.
    let tail = quantile(&d.writes.latencies_ms, 0.95).unwrap_or(0.0);
    out.add("serve.write_p95_ms", tail, "ms");
    for name in [
        "inference.facts_out",
        "rules.count",
        "sql.rows_out",
        "core.summary_groups",
        "storage.rows_copied",
        "induction.rules_out",
        "rules.pruned",
    ] {
        out.add(name, count(name), "count");
    }
    out.add("serve.reply_bytes", count("serve.reply_bytes"), "bytes");
    out.add(
        "wal.rules_record_bytes",
        count("wal.rules_record_bytes"),
        "bytes",
    );
    let (hits, misses) = (c.cache_hits, c.cache_misses);
    out.add("serve.cache_hits", hits as f64, "count");
    out.add("serve.cache_misses", misses as f64, "count");
    out.add(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.add("wal.appends", c.wal_appends as f64, "count");
    out.add("wal.fsyncs", c.wal_fsyncs as f64, "count");
    out.add("wal.checkpoints", c.wal_checkpoints as f64, "count");
    // Tracing overhead: the median over read and append requests of the
    // request's time in the traced passes against its time in the
    // untraced ones. The induction passes around the requests carry few
    // spans, so they are left out.
    let ratios: Vec<f64> = (0..request_s[1].len())
        .map(|k| (request_s[2][k] + request_s[3][k]) / (request_s[1][k] + request_s[4][k]))
        .collect();
    out.add(
        "trace.overhead_pct",
        (median(&ratios).unwrap_or(1.0) - 1.0) * 100.0,
        "%",
    );
}
