//! The benchmark's own copy of the generated fleet, and the relational
//! evaluation the oracle checks replies against.
//!
//! Nothing here calls the program's query, storage-operator or
//! inference code: the generated relations are copied once into plain
//! rows, the acknowledged writes are appended by the benchmark itself,
//! and filters, joins and the schema's reference paths are evaluated
//! here.

use intensio_shipdb::Fleet;
use intensio_storage::value::Value;
use std::collections::{BTreeMap, HashMap};

/// A cell value. The generated fleet holds only integers and strings.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Val {
    Int(i64),
    Str(String),
}

impl Val {
    /// The value as the service renders it in a reply row.
    pub fn render(&self) -> String {
        match self {
            Val::Int(i) => i.to_string(),
            Val::Str(s) => s.clone(),
        }
    }

    pub fn from_value(v: &Value) -> Option<Val> {
        match v {
            Value::Int(i) => Some(Val::Int(*i)),
            Value::Str(s) => Some(Val::Str(s.clone())),
            _ => None,
        }
    }
}

/// Relation slots. The order is also the order of an [`Ent`]'s fields.
pub const CLASS: usize = 0;
pub const SUBMARINE: usize = 1;
pub const INSTALL: usize = 2;
pub const SONAR: usize = 3;
pub const TYPE: usize = 4;
const RELS: [&str; 5] = ["class", "submarine", "install", "sonar", "type"];

/// Slot of a relation name (any case), if the benchmark models it.
pub fn rel_slot(name: &str) -> Option<usize> {
    RELS.iter().position(|r| r.eq_ignore_ascii_case(name))
}

/// One joined instance: a row index per relation it reaches.
pub type Ent = [Option<usize>; 5];

pub struct Table {
    /// Lower-case column names.
    pub cols: Vec<String>,
    pub rows: Vec<Vec<Val>>,
}

impl Table {
    pub fn col(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.eq_ignore_ascii_case(name))
    }
}

/// A submarine appended through the service by a QUEL write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write {
    pub id: String,
    pub name: String,
    pub class: String,
}

impl Write {
    pub fn quel(&self) -> String {
        format!(
            "append to SUBMARINE (Id = \"{}\", Name = \"{}\", Class = \"{}\")",
            self.id, self.name, self.class
        )
    }

    fn row(&self) -> Vec<Val> {
        vec![
            Val::Str(self.id.clone()),
            Val::Str(self.name.clone()),
            Val::Str(self.class.clone()),
        ]
    }
}

/// The generated fleet as plain rows, plus the generator's ground truth.
pub struct Base {
    pub tables: [Table; 5],
    /// Ground truth: class code → type code.
    pub class_type: BTreeMap<String, String>,
    /// Ground truth: type code → inclusive displacement band.
    pub type_band: BTreeMap<String, (i64, i64)>,
}

impl Base {
    pub fn from_fleet(fleet: &Fleet) -> Base {
        let table = |name: &str| {
            let rel = fleet.db.get(name).expect("generated relation");
            Table {
                cols: rel
                    .schema()
                    .attributes()
                    .iter()
                    .map(|a| a.name().to_ascii_lowercase())
                    .collect(),
                rows: rel
                    .iter()
                    .map(|t| {
                        t.values()
                            .iter()
                            .map(|v| Val::from_value(v).expect("int or string cell"))
                            .collect()
                    })
                    .collect(),
            }
        };
        Base {
            tables: [
                table("CLASS"),
                table("SUBMARINE"),
                table("INSTALL"),
                table("SONAR"),
                table("TYPE"),
            ],
            class_type: fleet.class_type.clone(),
            type_band: fleet.type_band.clone(),
        }
    }

    pub fn ships(&self) -> usize {
        self.tables[SUBMARINE].rows.len()
    }

    /// Displacements of the generated classes, with their type.
    pub fn class_displacements(&self) -> Vec<(i64, String)> {
        let t = &self.tables[CLASS];
        let (d, ty) = (t.col("displacement").unwrap(), t.col("type").unwrap());
        t.rows
            .iter()
            .map(|r| match (&r[d], &r[ty]) {
                (Val::Int(d), Val::Str(ty)) => (*d, ty.clone()),
                _ => panic!("CLASS.Displacement is an integer, CLASS.Type a string"),
            })
            .collect()
    }

    /// The type whose band holds all of `[lo, hi]`, if one does.
    pub fn band_of(&self, lo: i64, hi: i64) -> Option<&str> {
        self.type_band
            .iter()
            .find(|(_, (blo, bhi))| *blo <= lo && hi <= *bhi)
            .map(|(t, _)| t.as_str())
    }
}

/// The database state after the first `n` acknowledged writes: what a
/// reply at an epoch carrying those writes must agree with.
pub struct View<'a> {
    pub base: &'a Base,
    extra: Vec<Vec<Val>>,
    /// One instance per submarine, joined along the schema's references
    /// (SUBMARINE.Class → CLASS, CLASS.Type → TYPE, INSTALL.Ship →
    /// SUBMARINE, INSTALL.Sonar → SONAR).
    pub ents: Vec<Ent>,
    ents_of_class: HashMap<usize, Vec<usize>>,
    ent_of_install: HashMap<usize, usize>,
    /// Sorted `(value, index)` per `(universe?, relation, column)`:
    /// base-relation rows when `false`, joined instances when `true`.
    index: HashMap<(bool, usize, usize), Vec<(Val, usize)>>,
}

impl<'a> View<'a> {
    pub fn new(base: &'a Base, writes: &[Write]) -> View<'a> {
        let extra: Vec<Vec<Val>> = writes.iter().map(Write::row).collect();
        let key_of = |rel: usize, col: &str| -> HashMap<Val, usize> {
            let t = &base.tables[rel];
            let c = t.col(col).expect("key column");
            t.rows
                .iter()
                .enumerate()
                .map(|(i, r)| (r[c].clone(), i))
                .collect()
        };
        let class_by_code = key_of(CLASS, "class");
        let sonar_by_code = key_of(SONAR, "sonar");
        let type_by_code = key_of(TYPE, "type");
        let class_ty = base.tables[CLASS].col("type").expect("CLASS.Type");
        let install_by_ship = key_of(INSTALL, "ship");
        let inst = &base.tables[INSTALL];
        let inst_sonar = inst.col("sonar").expect("INSTALL.Sonar");
        let sub = &base.tables[SUBMARINE];
        let (sub_id, sub_class) = (sub.col("id").unwrap(), sub.col("class").unwrap());
        let mut view = View {
            base,
            extra,
            ents: Vec::new(),
            ents_of_class: HashMap::new(),
            ent_of_install: HashMap::new(),
            index: HashMap::new(),
        };
        for s in 0..view.rows(SUBMARINE) {
            let row = view.row(SUBMARINE, s);
            let class = class_by_code.get(&row[sub_class]).copied();
            let install = install_by_ship.get(&row[sub_id]).copied();
            let sonar = install.and_then(|i| sonar_by_code.get(&inst.rows[i][inst_sonar]).copied());
            let ty = class.and_then(|c| {
                type_by_code
                    .get(&base.tables[CLASS].rows[c][class_ty])
                    .copied()
            });
            let e = view.ents.len();
            view.ents.push([class, Some(s), install, sonar, ty]);
            if let Some(c) = class {
                view.ents_of_class.entry(c).or_default().push(e);
            }
            if let Some(i) = install {
                view.ent_of_install.insert(i, e);
            }
        }
        view
    }

    pub fn rows(&self, rel: usize) -> usize {
        let n = self.base.tables[rel].rows.len();
        if rel == SUBMARINE {
            n + self.extra.len()
        } else {
            n
        }
    }

    pub fn row(&self, rel: usize, i: usize) -> &[Val] {
        let t = &self.base.tables[rel].rows;
        if i < t.len() {
            &t[i]
        } else {
            &self.extra[i - t.len()]
        }
    }

    pub fn cell(&self, rel: usize, i: usize, col: usize) -> &Val {
        &self.row(rel, i)[col]
    }

    /// Instances an answer tuple reaches: itself when it already holds
    /// `rel`, else every joined instance that agrees with it.
    pub fn linked(&self, t: &Ent) -> Vec<usize> {
        if let Some(s) = t[SUBMARINE] {
            return vec![s];
        }
        if let Some(i) = t[INSTALL] {
            return self
                .ent_of_install
                .get(&i)
                .map(|e| vec![*e])
                .unwrap_or_default();
        }
        if let Some(c) = t[CLASS] {
            return self.ents_of_class.get(&c).cloned().unwrap_or_default();
        }
        Vec::new()
    }

    /// Build the index [`View::sorted`] reads, if it is not built yet.
    pub fn prepare(&mut self, universe: bool, rel: usize, col: usize) {
        if self.index.contains_key(&(universe, rel, col)) {
            return;
        }
        let mut v: Vec<(Val, usize)> = if universe {
            self.ents
                .iter()
                .enumerate()
                .filter_map(|(e, ent)| ent[rel].map(|r| (self.cell(rel, r, col).clone(), e)))
                .collect()
        } else {
            (0..self.rows(rel))
                .map(|r| (self.cell(rel, r, col).clone(), r))
                .collect()
        };
        v.sort();
        self.index.insert((universe, rel, col), v);
    }

    /// `(value, index)` pairs sorted by value, over base rows of `rel`
    /// (`universe == false`) or over joined instances that reach `rel`.
    /// Call [`View::prepare`] first.
    pub fn sorted(&self, universe: bool, rel: usize, col: usize) -> &[(Val, usize)] {
        &self.index[&(universe, rel, col)]
    }
}
