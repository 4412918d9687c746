//! The benchmark's own tests: the oracle rejects corrupted replies and
//! lost writes, and every workload runs end to end at smoke size.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use fleetbench::oracle::{check_recovered, Oracle, ReplyLog};
use fleetbench::queries::repeat_set;
use fleetbench::truth::{Base, View, SUBMARINE};
use fleetbench::{drive, run, smoke_fleet_config, Params, Workload};
use intensio_rules::rule::AttrId;
use intensio_serve::{QueryReply, Request, Soundness};
use intensio_storage::value::Value;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Replies from a live service for every query of the repeat set.
fn live_replies(
    fleet: &intensio_shipdb::Fleet,
    base: &Base,
    dir: &str,
) -> Vec<(fleetbench::queries::Query, QueryReply)> {
    let root = drive::Scratch::new(scratch(dir));
    let (svc, _) = drive::open(fleet, &root.dir()).expect("service opens");
    repeat_set(base, 5)
        .into_iter()
        .map(|q| {
            let r = svc.submit(Request::Sql(q.sql.clone()));
            let r = r
                .query()
                .unwrap_or_else(|| panic!("{}: {r:?}", q.sql))
                .clone();
            (q, r)
        })
        .collect()
}

#[test]
fn oracle_catches_corrupted_replies() {
    let fleet = intensio_shipdb::generate(smoke_fleet_config(5)).unwrap();
    let base = Base::from_fleet(&fleet);
    let replies = live_replies(&fleet, &base, "corrupt");
    let mut oracle = Oracle::new(View::new(&base, &[]));
    for (q, r) in &replies {
        oracle
            .check_reply(&q.spec, r)
            .unwrap_or_else(|e| panic!("{}: {e}", q.sql));
    }

    let (q, good) = replies.iter().find(|(_, r)| r.rows.len() > 1).unwrap();
    let mut missing_row = good.clone();
    missing_row.rows.pop();
    assert!(
        oracle.check_reply(&q.spec, &missing_row).is_err(),
        "a dropped row"
    );

    let mut changed_cell = good.clone();
    changed_cell.rows[0][0].push('x');
    assert!(
        oracle.check_reply(&q.spec, &changed_cell).is_err(),
        "a changed cell"
    );

    let (q, good) = replies
        .iter()
        .find(|(q, r)| q.spec.band(&base).is_some() && !r.intensional.certain.is_empty())
        .expect("a band query with forward facts");
    let mut wrong_fact = good.clone();
    let mut ans = (*wrong_fact.intensional).clone();
    for f in &mut ans.certain {
        f.value = Value::Str("T99".to_string());
    }
    wrong_fact.intensional = Arc::new(ans);
    assert!(
        oracle.check_reply(&q.spec, &wrong_fact).is_err(),
        "a wrong forward fact"
    );

    let mut unknown_relation = good.clone();
    let mut ans = (*unknown_relation.intensional).clone();
    ans.certain[0].attr = AttrId::new("FLEET", "Type");
    unknown_relation.intensional = Arc::new(ans);
    assert!(
        oracle.check_reply(&q.spec, &unknown_relation).is_err(),
        "a forward fact on a relation the fleet does not hold"
    );

    let (q, good) = replies
        .iter()
        .find(|(_, r)| !r.intensional.partial.is_empty())
        .expect("a reply with backward characterizations");
    let mut wrong_back = good.clone();
    let mut ans = (*wrong_back.intensional).clone();
    ans.partial[0].value = Value::Str("nonesuch".to_string());
    wrong_back.intensional = Arc::new(ans);
    assert!(
        oracle.check_reply(&q.spec, &wrong_back).is_err(),
        "a wrong backward characterization"
    );

    let mut wrong_flag = good.clone();
    wrong_flag.soundness = Soundness::None;
    assert!(
        oracle.check_reply(&q.spec, &wrong_flag).is_err(),
        "a wrong soundness flag"
    );
}

#[test]
fn reply_log_catches_a_cached_answer_that_differs() {
    let fleet = intensio_shipdb::generate(smoke_fleet_config(6)).unwrap();
    let base = Base::from_fleet(&fleet);
    let replies = live_replies(&fleet, &base, "cached");
    let queries: Vec<_> = replies.iter().map(|(q, _)| q.clone()).collect();
    let (i, (q, uncached)) = replies
        .iter()
        .enumerate()
        .find(|(_, (_, r))| !r.cached && !r.intensional.is_empty())
        .unwrap();
    let mut cached = uncached.clone();
    cached.cached = true;
    let mut ans = (*cached.intensional).clone();
    ans.certain.clear();
    ans.partial.clear();
    cached.intensional = Arc::new(ans);
    cached.soundness = Soundness::None;
    cached.headline = None;

    let mut log = ReplyLog::default();
    log.record(i, q, uncached);
    log.verify(&base, &[], &|k| queries[k].clone());
    assert_eq!(log.failed, 0, "{:?}", log.errors);
    log.record(i, q, &cached);
    log.verify(&base, &[], &|k| queries[k].clone());
    assert!(
        log.wrong > 0,
        "a cached reply unlike the uncached one must fail"
    );
}

#[test]
fn durability_check_catches_lost_and_doubled_writes() {
    let fleet = intensio_shipdb::generate(smoke_fleet_config(7)).unwrap();
    let base = Base::from_fleet(&fleet);
    let acked = drive::writes(&base, 7, 3);
    let mut ids: Vec<String> = base.tables[SUBMARINE]
        .rows
        .iter()
        .map(|r| r[0].render())
        .collect();
    ids.extend(acked.iter().map(|w| w.id.clone()));
    assert!(check_recovered(&ids, base.ships(), &acked).is_ok());

    let mut lost = ids.clone();
    lost.retain(|id| id != &acked[1].id);
    assert!(
        check_recovered(&lost, base.ships(), &acked).is_err(),
        "a lost write"
    );

    let mut replaced = lost.clone();
    replaced.push("W999999".to_string());
    assert!(
        check_recovered(&replaced, base.ships(), &acked).is_err(),
        "a lost write, count intact"
    );

    let mut doubled = lost.clone();
    doubled.push(acked[0].id.clone());
    assert!(
        check_recovered(&doubled, base.ships(), &acked).is_err(),
        "a doubled write"
    );
}

#[test]
fn every_workload_runs_at_smoke_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let p = Params {
                workload: w,
                seed: 11,
                seconds: 1.0,
                trace,
                fleet: smoke_fleet_config(11),
                out_dir: scratch(&format!("smoke-{}-{trace}", w.name())),
            };
            let out = run(&p).unwrap();
            assert!(
                out.correct && out.failed == 0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.errors
            );
            assert!(out.attempted > 0);
            let json = out.to_json();
            assert!(json.starts_with("{\"correct\":true,"), "{json}");
        }
    }
}
