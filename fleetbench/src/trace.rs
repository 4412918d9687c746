//! The traced run: in-memory spans recorded by the benchmark around the
//! program's public layer calls, and a replay of a workload's requests
//! through those calls, layer by layer.
//!
//! The program itself is not instrumented: every span here wraps one
//! call the benchmark makes into a layer's public API (`intensio_sql`,
//! `intensio_inference`, `intensio_core`, `intensio_serve::protocol`,
//! `intensio_quel`, `intensio_storage`, `intensio_wal`,
//! `intensio_induction`, `intensio_check`, `intensio_rules`).

use crate::oracle::Oracle;
use crate::queries::Query;
use crate::truth::{Base, View, Write};
use crate::util::json_str;
use intensio_check::{check_rules, RuleCheckConfig};
use intensio_inference::{condition_fingerprint, InferenceConfig, InferenceEngine};
use intensio_ker::model::KerModel;
use intensio_quel::{Output, Session};
use intensio_rules::rule::RuleSet;
use intensio_serve::{encode_reply, AnswerCache, QueryReply, Reply, Soundness};
use intensio_storage::catalog::Database;
use intensio_wal::{rules_codec, Record, Wal};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Spans of one request share `req`; `parent` is the
/// enclosing span's id, 0 for a request's root.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder. When off, [`Tracer::span`] only calls
/// its closure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request (or span) id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.t0).as_nanos() as u64
    }

    /// Record a span whose bounds were measured elsewhere.
    pub fn record(&self, req: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let rec = SpanRec {
                req,
                id: self.id(),
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.lock().expect("span buffer lock").push(rec);
        }
    }

    /// Run `f` inside a span; `f` gets the span's id for its children.
    pub fn span<R>(
        &self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.id();
        let start = Instant::now();
        let r = f(id);
        let rec = SpanRec {
            req,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        };
        self.spans.lock().expect("span buffer lock").push(rec);
        r
    }

    /// Self time of every span, in microseconds, by span name: its
    /// duration minus the part of it its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            writeln!(
                f,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.id,
                s.parent,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Work counts of one replay, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// The knowledge state the replay carries from call to call, as the
/// service's snapshot does.
struct State {
    db: Database,
    rules: RuleSet,
    epoch: u64,
    data_version: u64,
    writes: Vec<Write>,
}

/// Replays one workload's requests through the layers.
pub struct Replay<'a> {
    base: &'a Base,
    model: KerModel,
    tracer: &'a Tracer,
    cache: AnswerCache,
    pub counts: Counts,
    /// Seconds each read and append request took, in replay order.
    pub request_s: Vec<f64>,
    /// Replayed outputs that failed the oracle (or a layer call that
    /// returned an error).
    pub wrong: u64,
    pub errors: Vec<String>,
}

impl<'a> Replay<'a> {
    pub fn new(base: &'a Base, model: KerModel, tracer: &'a Tracer) -> Replay<'a> {
        Replay {
            base,
            model,
            tracer,
            cache: AnswerCache::new(256),
            counts: Counts::new(),
            request_s: Vec::new(),
            wrong: 0,
            errors: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn fail(&mut self, why: String) {
        self.wrong += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Run the replay: boot induction, `reads` before the write burst,
    /// `writes` through COW copy, QUEL and the WAL, re-induction, and
    /// recovery of the log.
    pub fn run(&mut self, db: Database, reads: &[Query], writes: &[Write], dir: &Path) {
        let t = self.tracer;
        let req = t.id();
        let (rules, _) = t.span(req, 0, "boot", |root| self.induce(req, root, &db));
        self.add("rules.count", rules.len() as f64);
        let mut st = State {
            db,
            rules,
            epoch: 0,
            data_version: 0,
            writes: Vec::new(),
        };
        let mut oracle = Oracle::new(View::new(self.base, &st.writes));
        for q in reads {
            self.read(&st, q, &mut oracle);
        }
        let _ = std::fs::remove_dir_all(dir);
        let mut wal = match Wal::open(dir, crate::drive::service_config(dir).wal, 0) {
            Ok(w) => w,
            Err(e) => return self.fail(format!("opening the replay log: {e}")),
        };
        if let Err(e) = wal.checkpoint(&st.db, Some(&st.rules), 0, 0, 0) {
            return self.fail(format!("replay boot checkpoint: {e}"));
        }
        for w in writes {
            self.write(&mut st, &mut wal, w);
        }
        let req = t.id();
        let (rules, body) = t.span(req, 0, "reinduce", |root| {
            let (rules, _) = self.induce(req, root, &st.db);
            let body = t.span(req, root, "wal.rules_encode", |_| {
                rules_codec::rules_to_bytes(&rules)
            });
            (rules, body)
        });
        match body {
            Ok(body) => {
                st.epoch += 1;
                let rec = Record::rules(st.epoch, st.data_version, body);
                self.counts
                    .insert("wal.rules_record_bytes", rec.encode().len() as f64);
                if let Err(e) = t.span(req, 0, "wal.append", |_| wal.append(&rec)) {
                    self.fail(format!("appending the rule set: {e}"));
                }
                st.rules = rules;
            }
            Err(e) => self.fail(format!("encoding the rule set: {e}")),
        }
        drop(wal);
        let req = t.id();
        match t.span(req, 0, "wal.recover", |_| intensio_wal::recover(dir)) {
            Ok(r) if r.final_epoch() == st.epoch => {}
            Ok(r) => self.fail(format!(
                "recovered epoch {}, wrote {}",
                r.final_epoch(),
                st.epoch
            )),
            Err(e) => self.fail(format!("recovering the replay log: {e}")),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Induce, gate and minimize a rule set, as the service's boot and
    /// background inducer do.
    fn induce(&mut self, req: u64, root: u64, db: &Database) -> (RuleSet, u64) {
        let t = self.tracer;
        let cfg = intensio_induction::InductionConfig::default();
        let ils = intensio_induction::Ils::new(&self.model, cfg);
        let out = t.span(req, root, "induction.induce", |_| {
            ils.induce_parallel(db, crate::drive::INDUCTION_THREADS)
        });
        let mut rules = match out {
            Ok(o) => o.rules,
            Err(e) => {
                self.fail(format!("induction: {e}"));
                return (RuleSet::new(), 0);
            }
        };
        self.add("induction.rules_out", rules.len() as f64);
        let check = RuleCheckConfig {
            min_support: cfg.min_support,
        };
        let report = t.span(req, root, "check.lint", |_| {
            check_rules(&rules, Some(db), &check)
        });
        if report.has_errors() {
            self.fail("the rule gate rejected an induced rule set".to_string());
        }
        let pruned = t.span(req, root, "rules.minimize", |_| rules.minimize()) as u64;
        self.add("rules.pruned", pruned as f64);
        (rules, pruned)
    }

    /// One SQL request through parse, analyze, fingerprint, the answer
    /// cache, engine build and inference on a miss, execution,
    /// summarizing and reply encoding; the reply is checked.
    fn read(&mut self, st: &State, q: &Query, oracle: &mut Oracle) {
        let t = self.tracer;
        let req = t.id();
        let start = Instant::now();
        let reply = t.span(req, 0, "request", |root| -> Result<QueryReply, String> {
            let parsed = t
                .span(req, root, "sql.parse", |_| intensio_sql::parse(&q.sql))
                .map_err(|e| e.to_string())?;
            let analysis = t
                .span(req, root, "sql.analyze", |_| {
                    intensio_sql::analyze(&st.db, &parsed)
                })
                .map_err(|e| e.to_string())?;
            let fp = t.span(req, root, "inference.fingerprint", |_| {
                condition_fingerprint(&analysis)
            });
            let key = (fp, st.epoch);
            let (answer, cached) = match t
                .span(req, root, "serve.cache_lookup", |_| self.cache.get(&key))
            {
                Some(a) => (a, true),
                None => {
                    let engine = t
                        .span(req, root, "inference.engine_build", |_| {
                            InferenceEngine::new(
                                &self.model,
                                &st.rules,
                                &st.db,
                                InferenceConfig::default(),
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    let a =
                        Arc::new(t.span(req, root, "inference.infer", |_| engine.infer(&analysis)));
                    self.add(
                        "inference.facts_out",
                        (a.certain.len() + a.partial.len()) as f64,
                    );
                    self.cache.insert(key, a.clone());
                    (a, false)
                }
            };
            let rel = t
                .span(req, root, "sql.execute", |_| {
                    intensio_sql::execute(&st.db, &parsed)
                })
                .map_err(|e| e.to_string())?;
            self.add("sql.rows_out", rel.len() as f64);
            let summary = t.span(req, root, "core.summarize", |_| {
                intensio_core::summarize(&rel, &self.model)
            });
            let groups: usize = summary.levels.iter().map(|l| l.groups.len()).sum();
            self.add("core.summary_groups", groups as f64);
            let (reply, bytes) = t.span(req, root, "serve.encode", |_| {
                let reply = QueryReply {
                    epoch: st.epoch,
                    cached,
                    rules_fresh: true,
                    degraded: false,
                    soundness: Soundness::of(&answer),
                    columns: rel
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| a.name().to_string())
                        .collect(),
                    rows: rel
                        .iter()
                        .map(|t| t.values().iter().map(|v| v.render_bare()).collect())
                        .collect(),
                    headline: answer.headline(),
                    intensional: answer,
                    summary: (!summary.is_empty())
                        .then(|| summary.to_string().trim_end().to_string()),
                    affected: None,
                };
                let wire = Reply::Query(reply);
                let bytes = encode_reply(&wire).len();
                match wire {
                    Reply::Query(r) => (r, bytes),
                    _ => unreachable!("built as a query reply"),
                }
            });
            self.add("serve.reply_bytes", bytes as f64);
            Ok(reply)
        });
        self.request_s.push(start.elapsed().as_secs_f64());
        match reply.and_then(|r| oracle.check_reply(&q.spec, &r)) {
            Ok(()) => {}
            Err(e) => self.fail(format!("replayed `{}`: {e}", q.sql)),
        }
    }

    /// One append: copy-on-write of the relation, the QUEL script, and
    /// the durable log append (with a checkpoint when one is due).
    fn write(&mut self, st: &mut State, wal: &mut Wal, w: &Write) {
        let t = self.tracer;
        let req = t.id();
        let script = w.quel();
        let start = Instant::now();
        let result = t.span(req, 0, "write", |root| -> Result<(), String> {
            let (mut db, copied) = t.span(req, root, "storage.cow_insert", |_| {
                let mut db = st.db.clone();
                let copied = db.get_mut("SUBMARINE").map(|r| r.len()).unwrap_or(0);
                (db, copied)
            });
            self.add("storage.rows_copied", copied as f64);
            let out = t
                .span(req, root, "quel.run_script", |_| {
                    Session::new().run_script(&mut db, &script)
                })
                .map_err(|e| e.to_string())?;
            if !matches!(out.as_slice(), [Output::Affected(1)]) {
                return Err(format!("append answered {out:?}"));
            }
            st.epoch += 1;
            st.data_version += 1;
            let rec = Record::write(st.epoch, st.data_version, &script);
            t.span(req, root, "wal.append", |_| wal.append(&rec))
                .map_err(|e| e.to_string())?;
            if wal.checkpoint_due() {
                t.span(req, root, "wal.checkpoint", |_| {
                    wal.checkpoint(&db, None, st.epoch, st.data_version, 0)
                })
                .map_err(|e| e.to_string())?;
            }
            st.db = db;
            st.writes.push(w.clone());
            Ok(())
        });
        self.request_s.push(start.elapsed().as_secs_f64());
        if let Err(e) = result {
            self.fail(format!("replayed append {}: {e}", w.id));
        }
    }
}
