//! Driving `intensio_serve::Service` in-process: set-up, closed-loop
//! readers, durable write cycles and restart recovery.

use crate::oracle::{check_recovered, ReplyLog};
use crate::queries::{Distinct, Query};
use crate::trace::Tracer;
use crate::truth::{Base, Write};
use crate::util::Rng;
use intensio_serve::{Reply, Request, Service, ServiceConfig};
use intensio_shipdb::Fleet;
use intensio_wal::{FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on the wait for fresh rules after a burst.
const FRESH_TIMEOUT: Duration = Duration::from_secs(60);

/// Threads for induction. A second thread does not shorten induction on
/// this fleet (1.29 s against 1.32 s for one), and on two cores it would
/// take the core that appends and queries run on.
pub const INDUCTION_THREADS: usize = 1;

/// The service configuration every workload runs. It is fixed here and
/// never derived from the machine: two workers, a 256-answer cache, one
/// induction thread, and a write-ahead log that fsyncs every append and
/// checkpoints every 100 records.
pub fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        cache_capacity: 256,
        induction_threads: INDUCTION_THREADS,
        data_dir: Some(dir.to_path_buf()),
        wal: WalConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 100,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Fresh data directories under one root, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    pub fn new(root: PathBuf) -> Scratch {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("creating the scratch directory");
        Scratch {
            root,
            next: AtomicUsize::new(0),
        }
    }

    pub fn dir(&self) -> PathBuf {
        self.root
            .join(format!("d{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Open a durable service on a fresh directory; returns it with the
/// seconds `Service::with_config` took (boot induction, rule gate and
/// boot checkpoint).
pub fn open(fleet: &Fleet, dir: &Path) -> Result<(Service, f64), String> {
    let (db, model) = (fleet.db.clone(), fleet.ker_model());
    let t = Instant::now();
    let svc = Service::with_config(db, model, service_config(dir)).map_err(|e| e.to_string())?;
    Ok((svc, t.elapsed().as_secs_f64()))
}

/// Where a client takes its next query from.
pub enum Mix<'a> {
    /// A fixed set, cycled; client `k` starts at offset `k · len / 2`.
    Fixed(Vec<Query>),
    /// A never-repeating stream, shared by all clients.
    Stream(Mutex<(Distinct<'a>, Vec<Query>)>),
}

impl Mix<'_> {
    fn next(&self, client: usize, k: usize) -> (usize, Query) {
        match self {
            Mix::Fixed(qs) => {
                let q = (client * qs.len() / 2 + k) % qs.len();
                (q, qs[q].clone())
            }
            Mix::Stream(m) => {
                let mut g = m.lock().expect("query stream lock");
                let q = g.0.next_query();
                g.1.push(q.clone());
                (g.1.len() - 1, q)
            }
        }
    }

    pub fn get(&self, q: usize) -> Query {
        match self {
            Mix::Fixed(qs) => qs[q].clone(),
            Mix::Stream(m) => m.lock().expect("query stream lock").1[q].clone(),
        }
    }
}

/// What closed-loop readers saw.
#[derive(Default)]
pub struct Reads {
    /// Latency in ms per request.
    pub samples: Vec<f64>,
    pub attempted: u64,
}

impl Reads {
    /// Add what another reader saw.
    pub fn merge(&mut self, other: Reads) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
    }
}

/// Send queries from `mix` one at a time, each after the previous reply,
/// until `stop` says so, and record the replies in `log`. `count` caps
/// the number of requests. With a tracer, each request records a
/// `serve.submit` span.
pub fn read_loop(
    svc: &Service,
    mix: &Mix,
    log: &Mutex<ReplyLog>,
    client: usize,
    stop: &(dyn Fn() -> bool + Sync),
    count: Option<usize>,
    tracer: Option<&Tracer>,
) -> Reads {
    let mut out = Reads::default();
    let mut k = 0;
    while !stop() && count.is_none_or(|n| k < n) {
        let (q, query) = mix.next(client, k);
        k += 1;
        let t = Instant::now();
        let reply = svc.submit(Request::Sql(query.sql.clone()));
        let end = Instant::now();
        out.samples.push((end - t).as_secs_f64() * 1e3);
        if let Some(tr) = tracer {
            tr.record(tr.id(), 0, "serve.submit", t, end);
        }
        out.attempted += 1;
        let mut log = log.lock().expect("reply log lock");
        match reply {
            Reply::Query(r) => log.record(q, &query, &r),
            other => log.fail(1, format!("`{}`: {other:?}", query.sql)),
        }
    }
    out
}

/// The submarines a run appends: ids and names sort after every
/// generated one and grow monotonically, and classes come in runs of
/// ten ships, as a new batch of one class would.
pub fn writes(base: &Base, seed: u64, n: usize) -> Vec<Write> {
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let classes: Vec<String> = base.class_type.keys().cloned().collect();
    let mut class = String::new();
    (0..n)
        .map(|i| {
            if i % 10 == 0 {
                class = classes[rng.below(classes.len())].clone();
            }
            Write {
                id: format!("W{i:06}"),
                name: format!("wship {i:06}"),
                class: class.clone(),
            }
        })
        .collect()
}

/// What the write side of a run saw.
#[derive(Default)]
pub struct Writes {
    pub latencies_ms: Vec<f64>,
    /// Acknowledged writes as (epoch, write), in ack order.
    pub acked: Vec<(u64, Write)>,
    /// Seconds from each burst's last acknowledgement to fresh rules.
    pub fresh_s: Vec<f64>,
    pub wal_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Writes {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

fn wal_bytes(svc: &Service) -> u64 {
    svc.stats().durability.map_or(0, |d| d.wal_append_bytes)
}

/// Appends in the burst whose fresh-rules delay is measured. It is far
/// shorter than one induction pass, so the pass the first append starts
/// is always the one that loses its race to the rest of the burst.
pub const SHORT_BURST: usize = 10;

impl Writes {
    /// Send `ws` one at a time; returns when the last was acknowledged.
    fn burst(&mut self, svc: &Service, ws: &[Write]) -> Instant {
        let mut last_ack = Instant::now();
        for w in ws {
            let t = Instant::now();
            let reply = svc.submit(Request::Quel(w.quel()));
            last_ack = Instant::now();
            self.latencies_ms.push((last_ack - t).as_secs_f64() * 1e3);
            self.attempted += 1;
            match reply.query() {
                Some(r) if r.affected == Some(1) => self.acked.push((r.epoch, w.clone())),
                _ => self.fail(format!("append {}: {reply:?}", w.id)),
            }
        }
        last_ack
    }

    /// Wait until the service reports fresh rules; the seconds since
    /// `since`, or `None` (a failed operation) on timeout.
    fn fresh(&mut self, svc: &Service, since: Instant) -> Option<f64> {
        self.attempted += 1;
        if svc.wait_rules_fresh(FRESH_TIMEOUT) {
            Some(since.elapsed().as_secs_f64())
        } else {
            self.fail(format!("rules not fresh {FRESH_TIMEOUT:?} after a burst"));
            None
        }
    }

    /// One write cycle: a short burst, whose last acknowledgement to
    /// fresh rules is one `rules_fresh_s` sample, then a burst of the
    /// rest of `ws`, after which the cycle also waits for fresh rules so
    /// that the next cycle, or a restart, starts from an installed rule
    /// set.
    pub fn cycle(&mut self, svc: &Service, ws: &[Write]) {
        let bytes0 = wal_bytes(svc);
        let (short, long) = ws.split_at(SHORT_BURST.min(ws.len()));
        let last = self.burst(svc, short);
        if let Some(s) = self.fresh(svc, last) {
            self.fresh_s.push(s);
        }
        let last = self.burst(svc, long);
        self.fresh(svc, last);
        self.wal_bytes += wal_bytes(svc) - bytes0;
    }
}

/// What restarting the service on its data directory showed.
#[derive(Default)]
pub struct Recovery {
    /// Seconds each reopen took.
    pub secs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Recovery {
    /// Drop `svc` and reopen a service on its data directory `dir`,
    /// timing the reopen, then check that every acknowledged write
    /// survived exactly once and that the recovered epoch is at least the
    /// last acknowledged one. Counts three operations: the reopen, the
    /// epoch check and the row check. Returns the reopened service, which
    /// serves on; a reopen that fails ends the run.
    pub fn restart(
        &mut self,
        svc: Service,
        fleet: &Fleet,
        base: &Base,
        dir: &Path,
        acked: &[(u64, Write)],
    ) -> Result<Service, String> {
        drop(svc);
        self.attempted += 3;
        let (svc, secs) = open(fleet, dir).map_err(|e| format!("reopen: {e}"))?;
        self.secs.push(secs);
        let last = acked.last().map_or(0, |(e, _)| *e);
        if svc.epoch() < last {
            self.failed += 1;
            self.errors.push(format!(
                "recovered epoch {} < last acknowledged {last}",
                svc.epoch()
            ));
        }
        let writes: Vec<Write> = acked.iter().map(|(_, w)| w.clone()).collect();
        let listed = match svc.submit(Request::Sql("SELECT Id FROM SUBMARINE".to_string())) {
            Reply::Query(r) => {
                let ids: Vec<String> = r.rows.iter().map(|row| row[0].clone()).collect();
                check_recovered(&ids, base.ships(), &writes)
            }
            other => Err(format!("listing submarines: {other:?}")),
        };
        if let Err(e) = listed {
            self.failed += 1;
            self.errors.push(e);
        }
        Ok(svc)
    }
}
