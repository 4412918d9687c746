//! The answer oracle: every reply is checked against the benchmark's
//! own evaluation (`truth`, `queries`), the generator's ground truth and
//! the containment properties of the paper's §4 — never against stored
//! output of an earlier run.

use crate::queries::{Query, Spec};
use crate::truth::{rel_slot, Base, Ent, Val, View, Write};
use intensio_inference::{BackwardCharacterization, ForwardFact, IntensionalAnswer};
use intensio_rules::rule::AttrId;
use intensio_serve::{QueryReply, Soundness};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

/// What the checks need of one reply. The rows are kept as their number
/// and an order-independent hash, and the intensional answer as its id
/// in [`Answers`], so a kept reply costs a few words however many rows
/// and rule conclusions it had.
struct Digest {
    epoch: u64,
    columns: Vec<String>,
    rows: usize,
    rows_hash: u64,
    soundness: Soundness,
    degraded: bool,
    /// Hash of the headline and the summary text.
    text_hash: u64,
    answer: u32,
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Hash of a multiset of rows: the wrapping sum of the rows' hashes, so
/// row order does not matter.
fn rows_hash<'r>(rows: impl IntoIterator<Item = &'r Vec<String>>) -> u64 {
    rows.into_iter().map(hash_of).fold(0, u64::wrapping_add)
}

impl Digest {
    fn of(reply: &QueryReply, answer: u32) -> Digest {
        Digest {
            epoch: reply.epoch,
            columns: reply.columns.clone(),
            rows: reply.rows.len(),
            rows_hash: rows_hash(&reply.rows),
            soundness: reply.soundness,
            degraded: reply.degraded,
            text_hash: hash_of(&(&reply.headline, &reply.summary)),
            answer,
        }
    }

    /// Whether two replies to one query at one epoch agree (the
    /// `cached` flag aside).
    fn same(&self, other: &Digest) -> bool {
        self.epoch == other.epoch
            && self.columns == other.columns
            && self.rows == other.rows
            && self.rows_hash == other.rows_hash
            && self.soundness == other.soundness
            && self.degraded == other.degraded
            && self.text_hash == other.text_hash
            && self.answer == other.answer
    }
}

/// The intensional answers of kept replies, interned. Answers to
/// different queries share most of their backward characterizations,
/// so each distinct characterization is stored once and an answer is
/// its forward facts plus the ids of its characterizations. Equal
/// answers get one id; the inference trace (steps and provenance), which
/// the checks do not read, counts toward equality by its hash. Kept
/// memory thus stays near constant however many replies a run reads,
/// and the benchmark's own share of `rss_peak_mb` does not grow with
/// read throughput.
#[derive(Default)]
struct Answers {
    /// Address of an answer `Arc` already seen → its id. The weak handle
    /// keeps the allocation, and so the address, from being reused while
    /// the map holds it; the answer itself is freed with its last `Arc`.
    seen: HashMap<usize, (Weak<IntensionalAnswer>, u32)>,
    ids: HashMap<(u64, Vec<u32>), u32>,
    answers: Vec<(Vec<ForwardFact>, Vec<u32>)>,
    partial_ids: HashMap<String, u32>,
    partials: Vec<BackwardCharacterization>,
}

impl Answers {
    fn id(&mut self, a: &Arc<IntensionalAnswer>) -> u32 {
        let addr = Arc::as_ptr(a) as usize;
        if let Some((_, id)) = self.seen.get(&addr) {
            return *id;
        }
        let partial: Vec<u32> = a
            .partial
            .iter()
            .map(|b| {
                let next = self.partials.len() as u32;
                *self.partial_ids.entry(format!("{b:?}")).or_insert_with(|| {
                    self.partials.push(b.clone());
                    next
                })
            })
            .collect();
        let mut h = DefaultHasher::new();
        format!("{:?}{:?}", a.certain, a.provenance).hash(&mut h);
        a.steps.hash(&mut h);
        let key = (h.finish(), partial);
        let id = match self.ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.answers.len() as u32;
                self.answers.push((a.certain.clone(), key.1.clone()));
                self.ids.insert(key, id);
                id
            }
        };
        self.seen.insert(addr, (Arc::downgrade(a), id));
        id
    }

    /// The parts of answer `id` the checks read.
    fn get(&self, id: u32) -> IntensionalAnswer {
        let (certain, partial) = &self.answers[id as usize];
        IntensionalAnswer {
            certain: certain.clone(),
            partial: partial
                .iter()
                .map(|&b| self.partials[b as usize].clone())
                .collect(),
            ..IntensionalAnswer::default()
        }
    }
}

/// Checks replies against one database state.
pub struct Oracle<'a> {
    pub view: View<'a>,
    /// Backward characterizations already shown to hold on this state.
    backward_ok: HashSet<String>,
}

type Bound = Option<(Val, bool)>;

fn in_range(v: &Val, lo: &Bound, hi: &Bound) -> bool {
    let above = match lo {
        None => true,
        Some((b, incl)) => v > b || (*incl && v == b),
    };
    let below = match hi {
        None => true,
        Some((b, incl)) => v < b || (*incl && v == b),
    };
    above && below
}

fn val(v: &intensio_storage::value::Value) -> Result<Val, String> {
    Val::from_value(v).ok_or_else(|| format!("value {v} is neither integer nor string"))
}

impl<'a> Oracle<'a> {
    pub fn new(view: View<'a>) -> Oracle<'a> {
        Oracle {
            view,
            backward_ok: HashSet::new(),
        }
    }

    fn attr(&self, a: &AttrId) -> Option<(usize, usize)> {
        let rel = rel_slot(&a.object)?;
        Some((rel, self.view.base.tables[rel].col(&a.attribute)?))
    }

    /// The slots of an attribute a fact names. The generated fleet holds
    /// only modelled relations, so any other is a wrong answer.
    fn fact_attr(
        &self,
        a: &AttrId,
        fact: &dyn std::fmt::Display,
    ) -> Result<(usize, usize), String> {
        self.attr(a)
            .ok_or_else(|| format!("`{fact}` names {a}, which the fleet does not hold"))
    }

    /// Check one query reply: rows, intensional answer, and the
    /// serving flags that follow from them.
    pub fn check_reply(&mut self, spec: &Spec, reply: &QueryReply) -> Result<(), String> {
        self.check(spec, &Digest::of(reply, 0), &reply.intensional)
    }

    /// [`Oracle::check_reply`] on a reply's digest and answer.
    fn check(
        &mut self,
        spec: &Spec,
        reply: &Digest,
        ans: &IntensionalAnswer,
    ) -> Result<(), String> {
        if reply.degraded {
            return Err("reply is degraded, but no deadline is set".to_string());
        }
        let cols = spec.columns();
        let same_cols = reply.columns.len() == cols.len()
            && reply
                .columns
                .iter()
                .zip(&cols)
                .all(|(got, (_, want))| got.eq_ignore_ascii_case(want));
        if !same_cols {
            return Err(format!("columns {:?}, expected {cols:?}", reply.columns));
        }
        let want = spec.expected_rows(&self.view);
        if reply.rows != want.len() {
            return Err(format!("{} rows, expected {}", reply.rows, want.len()));
        }
        if reply.rows_hash != rows_hash(&want) {
            return Err(format!("{} rows, but not the expected ones", reply.rows));
        }
        let soundness = match (ans.certain.is_empty(), ans.partial.is_empty()) {
            (false, true) => Soundness::Superset,
            (true, false) => Soundness::Subset,
            (false, false) => Soundness::Mixed,
            (true, true) => Soundness::None,
        };
        if reply.soundness != soundness {
            return Err(format!(
                "soundness {:?}, answer is {soundness:?}",
                reply.soundness
            ));
        }
        self.check_intension(spec, ans)
    }

    /// Check an intensional answer: forward facts on the answer,
    /// backward characterizations on the base relations, and the
    /// generator's type bands.
    pub fn check_intension(&mut self, spec: &Spec, ans: &IntensionalAnswer) -> Result<(), String> {
        let answer = spec.eval(&self.view);
        for f in &ans.certain {
            self.check_forward(&answer, f)?;
        }
        for b in &ans.partial {
            self.check_backward(b)?;
        }
        if let Some(ty) = spec.band(self.view.base) {
            let concluded = ans.certain.iter().any(|f| {
                self.attr(&f.attr) == self.attr(&AttrId::new("CLASS", "Type"))
                    && val(&f.value).ok() == Some(Val::Str(ty.to_string()))
            });
            if !concluded {
                return Err(format!(
                    "condition lies in {ty}'s band, but {ty} is not concluded"
                ));
            }
        }
        Ok(())
    }

    /// A forward fact holds on every answer tuple; for a relation
    /// outside the FROM list, on every instance an answer tuple reaches.
    fn check_forward(&mut self, answer: &[Ent], f: &ForwardFact) -> Result<(), String> {
        let (rel, col) = self.fact_attr(&f.attr, f)?;
        let want = val(&f.value)?;
        let view = &self.view;
        for t in answer {
            let rows: Vec<usize> = match t[rel] {
                Some(r) => vec![r],
                None => view
                    .linked(t)
                    .iter()
                    .filter_map(|&e| view.ents[e][rel])
                    .collect(),
            };
            for r in rows {
                let got = view.cell(rel, r, col);
                if *got != want {
                    return Err(format!("forward fact `{f}` fails: {} = {got:?}", f.attr));
                }
            }
        }
        Ok(())
    }

    /// Every instance with `x` in the range has `y = value`; a
    /// characterization claimed complete also covers every instance
    /// with `y = value`. Same-relation characterizations are checked on
    /// the base relation, others along the schema's reference paths.
    fn check_backward(&mut self, b: &BackwardCharacterization) -> Result<(), String> {
        let key = format!("{b:?}");
        if self.backward_ok.contains(&key) {
            return Ok(());
        }
        let (xr, xc) = self.fact_attr(&b.x, b)?;
        let (yr, yc) = self.fact_attr(&b.y, b)?;
        let bound = |e: &Option<intensio_rules::range::Endpoint>| -> Result<Bound, String> {
            e.as_ref()
                .map(|e| Ok((val(&e.value)?, e.inclusive)))
                .transpose()
        };
        let (lo, hi) = (bound(&b.range.lo)?, bound(&b.range.hi)?);
        let want = val(&b.value)?;
        let universe = xr != yr;
        self.view.prepare(universe, xr, xc);
        self.view.prepare(universe, yr, yc);
        let view = &self.view;
        // Row of `rel` behind an index entry.
        let row = |i: usize, rel: usize| if universe { view.ents[i][rel] } else { Some(i) };
        let xs = view.sorted(universe, xr, xc);
        let start = match &lo {
            None => 0,
            Some((v, incl)) => xs.partition_point(|(x, _)| if *incl { x < v } else { x <= v }),
        };
        for (x, i) in &xs[start..] {
            if !in_range(x, &None, &hi) {
                break;
            }
            if let Some(r) = row(*i, yr) {
                let got = view.cell(yr, r, yc);
                if *got != want {
                    return Err(format!(
                        "backward `{b}` fails: {} = {x:?} has {} = {got:?}",
                        b.x, b.y
                    ));
                }
            }
        }
        if b.complete == Some(true) {
            let ys = view.sorted(universe, yr, yc);
            let start = ys.partition_point(|(y, _)| *y < want);
            for (_, i) in ys[start..].iter().take_while(|(y, _)| *y == want) {
                if let Some(r) = row(*i, xr) {
                    let x = view.cell(xr, r, xc);
                    if !in_range(x, &lo, &hi) {
                        return Err(format!(
                            "backward `{b}` claims completeness, but {} = {x:?} is outside",
                            b.x
                        ));
                    }
                }
            }
        }
        self.backward_ok.insert(key);
        Ok(())
    }
}

/// Distinct answers seen for one (group, epoch), by id: the uncached
/// ones, and the cached ones with how many replies carried each.
type Seen = (Vec<u32>, Vec<(u32, u64)>);

/// Replies the readers received, keyed for deferred checking. The digest
/// of the first reply per (query, epoch) is kept and later ones must
/// equal it, so a run keeps one digest per answer instead of every reply.
#[derive(Default)]
pub struct ReplyLog {
    first: HashMap<(usize, u64), (Digest, u64)>,
    /// Per (group, epoch): distinct uncached and cached answers seen.
    seen: HashMap<(usize, u64), Seen>,
    answers: Answers,
    pub replies: u64,
    /// Replies that failed: error replies and wrong answers.
    pub failed: u64,
    /// The failed replies that were wrong answers.
    pub wrong: u64,
    pub errors: Vec<String>,
}

impl ReplyLog {
    /// Count `n` replies as wrong answers.
    pub fn mark_wrong(&mut self, n: u64, why: String) {
        self.wrong += n;
        self.fail(n, why);
    }

    /// Count `n` replies as failed (an error instead of an answer).
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Record reply to query `q` (index into the mix).
    pub fn record(&mut self, q: usize, query: &Query, reply: &QueryReply) {
        self.replies += 1;
        let ans = self.answers.id(&reply.intensional);
        let (uncached, cached) = self.seen.entry((query.group, reply.epoch)).or_default();
        if !reply.cached {
            if !uncached.contains(&ans) {
                uncached.push(ans);
            }
        } else {
            match cached.iter_mut().find(|(a, _)| *a == ans) {
                Some((_, n)) => *n += 1,
                None => cached.push((ans, 1)),
            }
        }
        let reply = Digest::of(reply, ans);
        match self.first.get_mut(&(q, reply.epoch)) {
            Some((first, n)) => {
                *n += 1;
                if !first.same(&reply) {
                    let why = format!("`{}` at epoch {}: replies differ", query.sql, reply.epoch);
                    self.mark_wrong(1, why);
                }
            }
            None => {
                self.first.insert((q, reply.epoch), (reply, 1));
            }
        }
    }

    /// Check every kept reply against the database state of its epoch,
    /// and every cached answer against the uncached answer of its
    /// epoch. `writes` are the acknowledged writes as (epoch, write) in
    /// ack order. Failures are added to [`ReplyLog::failed`].
    pub fn verify(
        &mut self,
        base: &Base,
        writes: &[(u64, Write)],
        queries: &dyn Fn(usize) -> Query,
    ) {
        let applied = |epoch: u64| writes.partition_point(|(e, _)| *e <= epoch);
        let mut by_state: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
        for &(q, epoch) in self.first.keys() {
            by_state.entry(applied(epoch)).or_default().push((q, epoch));
        }
        let mut failures = Vec::new();
        for (n, keys) in by_state {
            let ws: Vec<Write> = writes[..n].iter().map(|(_, w)| w.clone()).collect();
            let mut oracle = Oracle::new(View::new(base, &ws));
            for (q, epoch) in keys {
                let (reply, count) = &self.first[&(q, epoch)];
                let query = queries(q);
                let ans = self.answers.get(reply.answer);
                if let Err(e) = oracle.check(&query.spec, reply, &ans) {
                    failures.push((*count, format!("`{}` at epoch {epoch}: {e}", query.sql)));
                }
            }
        }
        for ((group, epoch), (uncached, cached)) in &self.seen {
            for (a, n) in cached {
                if !uncached.contains(a) {
                    failures.push((*n, format!("group {group} at epoch {epoch}: cached answer differs from the uncached one")));
                }
            }
            if uncached.len() > 1 {
                failures.push((
                    1,
                    format!("group {group} at epoch {epoch}: uncached answers differ"),
                ));
            }
        }
        for (n, why) in failures {
            self.mark_wrong(n, why);
        }
    }
}

/// Durability: after reopening, every acknowledged write is present
/// exactly once and the submarine count is the base plus the acks.
pub fn check_recovered(ids: &[String], base_ships: usize, acked: &[Write]) -> Result<(), String> {
    if ids.len() != base_ships + acked.len() {
        return Err(format!(
            "{} submarines after recovery, expected {} + {} acknowledged",
            ids.len(),
            base_ships,
            acked.len()
        ));
    }
    let mut count: HashMap<&str, usize> = HashMap::new();
    for id in ids {
        *count.entry(id.as_str()).or_default() += 1;
    }
    for w in acked {
        match count.get(w.id.as_str()) {
            Some(1) => {}
            Some(n) => return Err(format!("acknowledged {} present {n} times", w.id)),
            None => return Err(format!("acknowledged {} lost", w.id)),
        }
    }
    Ok(())
}
