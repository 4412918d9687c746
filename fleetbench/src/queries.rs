//! The query mixes: SQL text, and the benchmark's own evaluation of
//! each query over a [`View`].

use crate::truth::{Base, Ent, Val, View, CLASS, INSTALL, SUBMARINE};
use crate::util::Rng;
use std::collections::HashSet;

/// What a query asks, independent of how its SQL text is spelled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Spec {
    /// CLASS rows with `lo <= Displacement <= hi`.
    ClassDisp { lo: i64, hi: i64 },
    /// SUBMARINE ⋈ CLASS with `lo <= CLASS.Displacement <= hi`.
    JoinDisp { lo: i64, hi: i64 },
    /// CLASS rows of one type.
    ClassOfType { ty: String },
    /// SUBMARINE ⋈ CLASS restricted to one type.
    JoinType { ty: String },
    /// One submarine by key.
    ShipPoint { id: String },
    /// Submarines with `lo <= Id <= hi`.
    ShipIdRange { lo: String, hi: String },
    /// Submarines of one class.
    ShipsOfClass { class: String },
    /// INSTALL rows of one sonar model.
    InstallOfSonar { sonar: String },
}

/// One query text of a mix. Texts of one `group` spell the same
/// conditions differently, so they share an answer-cache fingerprint.
#[derive(Clone, Debug)]
pub struct Query {
    pub spec: Spec,
    pub sql: String,
    pub group: usize,
}

impl Spec {
    /// SQL text. Variants differ in case, spacing, qualification and
    /// conjunct order, never in meaning or select list.
    pub fn sql(&self, variant: usize) -> String {
        let v = variant % 3;
        match self {
            Spec::ClassDisp { lo, hi } => match v {
                0 => format!("SELECT Class, Type, Displacement FROM CLASS WHERE Displacement >= {lo} AND Displacement <= {hi}"),
                1 => format!("select CLASS.Class, CLASS.Type, CLASS.Displacement from CLASS where CLASS.Displacement <= {hi} and CLASS.Displacement >= {lo}"),
                _ => format!("SELECT class ,  type,displacement FROM CLASS WHERE displacement>={lo} AND displacement<={hi}"),
            },
            Spec::JoinDisp { lo, hi } => match v {
                0 => format!("SELECT SUBMARINE.Id, CLASS.Type FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Displacement >= {lo} AND CLASS.Displacement <= {hi}"),
                _ => format!("select submarine.id, class.type from CLASS, SUBMARINE where CLASS.Class = SUBMARINE.Class and CLASS.Displacement <= {hi} and CLASS.Displacement >= {lo}"),
            },
            Spec::ClassOfType { ty } => match v {
                0 => format!("SELECT Class, Displacement FROM CLASS WHERE Type = '{ty}'"),
                _ => format!("select class, displacement  from CLASS where CLASS.Type = '{ty}'"),
            },
            Spec::JoinType { ty } => match v {
                0 => format!("SELECT SUBMARINE.Id, SUBMARINE.Class FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = '{ty}'"),
                _ => format!("select  SUBMARINE.Id ,SUBMARINE.Class from SUBMARINE , CLASS where CLASS.Type='{ty}' and CLASS.Class=SUBMARINE.Class"),
            },
            Spec::ShipPoint { id } => match v {
                0 => format!("SELECT Id, Name, Class FROM SUBMARINE WHERE Id = '{id}'"),
                _ => format!("select id, name, class from SUBMARINE where id = '{id}'"),
            },
            Spec::ShipIdRange { lo, hi } => match v {
                0 => format!("SELECT Id, Class FROM SUBMARINE WHERE Id >= '{lo}' AND Id <= '{hi}'"),
                _ => format!("select id, class from SUBMARINE where id <= '{hi}' and id >= '{lo}'"),
            },
            Spec::ShipsOfClass { class } => {
                format!("SELECT Id, Class FROM SUBMARINE WHERE Class = '{class}'")
            }
            Spec::InstallOfSonar { sonar } => {
                format!("SELECT Ship, Sonar FROM INSTALL WHERE Sonar = '{sonar}'")
            }
        }
    }

    /// The select list, as `(relation slot, column)`.
    pub fn columns(&self) -> Vec<(usize, &'static str)> {
        match self {
            Spec::ClassDisp { .. } => {
                vec![(CLASS, "class"), (CLASS, "type"), (CLASS, "displacement")]
            }
            Spec::JoinDisp { .. } => vec![(SUBMARINE, "id"), (CLASS, "type")],
            Spec::ClassOfType { .. } => vec![(CLASS, "class"), (CLASS, "displacement")],
            Spec::JoinType { .. } => vec![(SUBMARINE, "id"), (SUBMARINE, "class")],
            Spec::ShipPoint { .. } => {
                vec![(SUBMARINE, "id"), (SUBMARINE, "name"), (SUBMARINE, "class")]
            }
            Spec::ShipIdRange { .. } | Spec::ShipsOfClass { .. } => {
                vec![(SUBMARINE, "id"), (SUBMARINE, "class")]
            }
            Spec::InstallOfSonar { .. } => vec![(INSTALL, "ship"), (INSTALL, "sonar")],
        }
    }

    /// The type a displacement condition lies inside, by the
    /// generator's bands.
    pub fn band<'b>(&self, base: &'b Base) -> Option<&'b str> {
        match self {
            Spec::ClassDisp { lo, hi } | Spec::JoinDisp { lo, hi } => base.band_of(*lo, *hi),
            _ => None,
        }
    }

    /// The answer before projection: one tuple per result row, holding
    /// the row index of each relation in the FROM list.
    pub fn eval(&self, view: &View) -> Vec<Ent> {
        let col = |rel: usize, name: &str| view.base.tables[rel].col(name).expect("column");
        let cell = |rel: usize, row: usize, c: usize| view.cell(rel, row, c);
        let (disp, ty) = (col(CLASS, "displacement"), col(CLASS, "type"));
        let (id, class) = (col(SUBMARINE, "id"), col(SUBMARINE, "class"));
        let in_disp = |c: usize, lo: i64, hi: i64| matches!(cell(CLASS, c, disp), Val::Int(d) if lo <= *d && *d <= hi);
        let is_str = |v: &Val, s: &str| matches!(v, Val::Str(x) if x == s);
        let classes = |keep: &dyn Fn(usize) -> bool| -> Vec<Ent> {
            (0..view.rows(CLASS))
                .filter(|&c| keep(c))
                .map(|c| [Some(c), None, None, None, None])
                .collect()
        };
        let joined = |keep: &dyn Fn(usize) -> bool| -> Vec<Ent> {
            view.ents
                .iter()
                .filter(|e| e[CLASS].is_some_and(keep))
                .map(|e| [e[CLASS], e[SUBMARINE], None, None, None])
                .collect()
        };
        let ships = |keep: &dyn Fn(usize) -> bool| -> Vec<Ent> {
            (0..view.rows(SUBMARINE))
                .filter(|&s| keep(s))
                .map(|s| [None, Some(s), None, None, None])
                .collect()
        };
        match self {
            Spec::ClassDisp { lo, hi } => classes(&|c| in_disp(c, *lo, *hi)),
            Spec::JoinDisp { lo, hi } => joined(&|c| in_disp(c, *lo, *hi)),
            Spec::ClassOfType { ty: t } => classes(&|c| is_str(cell(CLASS, c, ty), t)),
            Spec::JoinType { ty: t } => joined(&|c| is_str(cell(CLASS, c, ty), t)),
            Spec::ShipPoint { id: k } => ships(&|s| is_str(cell(SUBMARINE, s, id), k)),
            Spec::ShipIdRange { lo, hi } => {
                ships(&|s| matches!(cell(SUBMARINE, s, id), Val::Str(x) if lo <= x && x <= hi))
            }
            Spec::ShipsOfClass { class: k } => ships(&|s| is_str(cell(SUBMARINE, s, class), k)),
            Spec::InstallOfSonar { sonar } => {
                let c = col(INSTALL, "sonar");
                (0..view.rows(INSTALL))
                    .filter(|&i| is_str(cell(INSTALL, i, c), sonar))
                    .map(|i| [None, None, Some(i), None, None])
                    .collect()
            }
        }
    }

    /// Expected reply rows, sorted.
    pub fn expected_rows(&self, view: &View) -> Vec<Vec<String>> {
        let cols: Vec<(usize, usize)> = self
            .columns()
            .into_iter()
            .map(|(rel, name)| (rel, view.base.tables[rel].col(name).expect("column")))
            .collect();
        let mut rows: Vec<Vec<String>> = self
            .eval(view)
            .iter()
            .map(|t| {
                cols.iter()
                    .map(|&(rel, c)| {
                        view.cell(rel, t[rel].expect("projected relation"), c)
                            .render()
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }
}

fn strings(base: &Base, rel: usize, col: &str) -> Vec<String> {
    let t = &base.tables[rel];
    let c = t.col(col).expect("column");
    let mut v: Vec<String> = t.rows.iter().map(|r| r[c].render()).collect();
    v.sort();
    v
}

/// A displacement interval inside one type's band that holds at least
/// one generated class.
fn sub_band(base: &Base, rng: &mut Rng) -> (i64, i64) {
    let classes = base.class_displacements();
    let (d, ty) = &classes[rng.below(classes.len())];
    let (lo, hi) = base.type_band[ty];
    (rng.between(lo, *d), rng.between(*d, hi))
}

/// The fixed query set of `fleet-read-repeat` (31 texts in 21 groups):
/// it fits the answer cache, mixes narrow and wide answers, and spells
/// some conditions several ways.
pub fn repeat_set(base: &Base, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    let mut specs: Vec<(Spec, Vec<usize>)> = Vec::new();
    let types: Vec<String> = base.type_band.keys().cloned().collect();
    for (i, t) in types.iter().enumerate() {
        let (lo, hi) = base.type_band[t];
        specs.push((Spec::ClassDisp { lo, hi }, vec![0, 1 + i % 2]));
    }
    let lo = base.type_band.values().map(|b| b.0).min().unwrap();
    let hi = base.type_band.values().map(|b| b.1).max().unwrap();
    specs.push((Spec::ClassDisp { lo, hi }, vec![0, 2]));
    let ty = types[rng.below(types.len())].clone();
    specs.push((Spec::JoinType { ty }, vec![0, 1]));
    for (i, t) in types.iter().enumerate() {
        let variants = if i == 0 { vec![0, 1] } else { vec![0] };
        specs.push((Spec::ClassOfType { ty: t.clone() }, variants));
    }
    // Randomly picked specs are drawn again until new: two equal specs
    // would share a fingerprint and so a cache group.
    let mut pick =
        |specs: &mut Vec<(Spec, Vec<usize>)>, first: bool, draw: &dyn Fn(&mut Rng) -> Spec| {
            let spec = std::iter::repeat_with(|| draw(&mut rng))
                .find(|s| specs.iter().all(|(x, _)| x != s))
                .expect("an endless iterator");
            specs.push((spec, if first { vec![0, 1] } else { vec![0] }));
        };
    let ids = strings(base, SUBMARINE, "id");
    for i in 0..3 {
        pick(&mut specs, i == 0, &|r: &mut Rng| Spec::ShipPoint {
            id: ids[r.below(ids.len())].clone(),
        });
    }
    for i in 0..2 {
        pick(&mut specs, i == 0, &|r: &mut Rng| {
            let start = r.below(ids.len());
            let end = (start + 50 + r.below(250)).min(ids.len() - 1);
            Spec::ShipIdRange {
                lo: ids[start].clone(),
                hi: ids[end].clone(),
            }
        });
    }
    let classes = strings(base, CLASS, "class");
    for _ in 0..2 {
        pick(&mut specs, false, &|r: &mut Rng| Spec::ShipsOfClass {
            class: classes[r.below(classes.len())].clone(),
        });
    }
    let sonars = strings(base, crate::truth::SONAR, "sonar");
    for _ in 0..2 {
        pick(&mut specs, false, &|r: &mut Rng| Spec::InstallOfSonar {
            sonar: sonars[r.below(sonars.len())].clone(),
        });
    }
    for i in 0..2 {
        pick(&mut specs, i == 0, &|r: &mut Rng| {
            let (lo, hi) = sub_band(base, r);
            Spec::JoinDisp { lo, hi }
        });
    }
    let mut out = Vec::new();
    for (group, (spec, variants)) in specs.into_iter().enumerate() {
        for v in variants {
            out.push(Query {
                sql: spec.sql(v),
                spec: spec.clone(),
                group,
            });
        }
    }
    out
}

/// The `fleet-read-distinct` stream: every query a one-band CLASS range
/// or a SUBMARINE ⋈ CLASS join over a band, never repeating a
/// condition, so no two requests share a cache fingerprint.
pub struct Distinct<'a> {
    base: &'a Base,
    rng: Rng,
    seen: HashSet<(bool, i64, i64)>,
}

impl<'a> Distinct<'a> {
    pub fn new(base: &'a Base, seed: u64) -> Distinct<'a> {
        Distinct {
            base,
            rng: Rng::new(seed ^ 0x5EED_0002),
            seen: HashSet::new(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        loop {
            let join = self.rng.below(2) == 1;
            let (lo, hi) = sub_band(self.base, &mut self.rng);
            if self.seen.insert((join, lo, hi)) {
                let spec = if join {
                    Spec::JoinDisp { lo, hi }
                } else {
                    Spec::ClassDisp { lo, hi }
                };
                return Query {
                    sql: spec.sql(0),
                    spec,
                    group: self.seen.len(),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_set_groups_have_distinct_specs() {
        // The small fleet has few sonars and classes, so draws collide.
        for seed in 0..40 {
            let fleet = intensio_shipdb::generate(crate::smoke_fleet_config(seed)).unwrap();
            let set = repeat_set(&Base::from_fleet(&fleet), seed);
            for a in &set {
                for b in &set {
                    assert_eq!(
                        a.group == b.group,
                        a.spec == b.spec,
                        "seed {seed}: {a:?} / {b:?}"
                    );
                }
            }
        }
    }
}
