//! Workload inputs, generated from the seed with the library's own
//! generators: the world, the data directory the server loads, the
//! request sequence and its schedule. The digest covers everything the
//! server receives, so a change to a generator shows as a digest change.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use webtable_catalog::{generate_world, Catalog, EntityId, RelationId, World, WorldConfig};
use webtable_core::wire::{table_to_json, WireAnnotateRequest};
use webtable_core::Annotator;
use webtable_search::wire::encode_query;
use webtable_search::{EntityQuery, JoinQuery, Query};
use webtable_server::Manifest;
use webtable_tables::{LabeledTable, NoiseConfig, ReusePolicy, Table, TableGenerator, TruthMask};

use crate::loadgen::Request;
use crate::sched::{poisson_schedule, Rng, Zipf};
use crate::stats::Digest;

/// The server's per-generation candidate-cache capacity
/// (`webtable_server::state`); the annotate warm-up fills it.
pub const SERVER_CACHE_CAPACITY: usize = 4096;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop `/v1/search` over a scale corpus.
    Search,
    /// Closed-loop `/v1/annotate` of fresh web tables.
    Annotate,
    /// Open-loop search while segments are published.
    Churn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "search" => Some(Workload::Search),
            "annotate" => Some(Workload::Annotate),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::Annotate => "annotate",
            Workload::Churn => "churn",
        }
    }
}

/// Shape of a search-mix workload.
#[derive(Debug, Clone, Copy)]
pub struct SearchShape {
    /// Corpus tables the server annotates and indexes at startup.
    pub tables: usize,
    /// Poisson arrival rate.
    pub rate_per_s: f64,
}

/// `search`: a scale corpus of several thousand tables, at a rate well
/// under capacity.
pub const SEARCH: SearchShape = SearchShape { tables: 4000, rate_per_s: 180.0 };
/// `churn`: a smaller corpus and a lower rate, so that publishes fit.
pub const CHURN: SearchShape = SearchShape { tables: 2000, rate_per_s: 100.0 };
/// `churn`: first publish, and the gap between publishes.
pub const PUBLISH_START: Duration = Duration::from_millis(1000);
/// Gap between publish starts.
pub const PUBLISH_EVERY: Duration = Duration::from_millis(1500);
/// `annotate`: corpus tables in the data dir (the generation needs one;
/// this workload does not search it).
pub const ANNOTATE_CORPUS_TABLES: usize = 100;
/// `annotate`: mean rows per request table.
pub const ANNOTATE_ROWS: usize = 12;
/// `annotate`: requests generated per second of window, far above what
/// the server sustains, so the closed loop never runs out.
pub const ANNOTATE_REQUESTS_PER_S: usize = 400;

/// The query kinds of the search mix, in `Query::kind()` names.
pub const KINDS: [&str; 7] =
    ["baseline", "join", "populate_columns", "populate_rows", "related", "tables", "typed"];

/// Everything one run needs besides the data dir.
#[derive(Debug)]
pub struct Inputs {
    /// The generated world (its oracle grades answers).
    pub world: World,
    /// The request sequence.
    pub requests: Vec<Request>,
    /// Search workloads: the decoded query of each request.
    pub queries: Vec<Query>,
    /// Open-loop workloads: due time of each request.
    pub schedule: Vec<Duration>,
    /// `churn`: publish start times.
    pub publishes: Vec<Duration>,
    /// `annotate`: the labeled tables of each request.
    pub tables: Vec<Vec<LabeledTable>>,
    /// `annotate`: requests sent before the window.
    pub warmup: usize,
    /// Digest of the data dir files and of every request.
    pub digest: String,
}

fn err(context: &str) -> impl Fn(&dyn std::fmt::Display) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Writes catalog, index snapshot, corpus and manifest into `dir`.
fn write_data_dir(dir: &Path, world: &World, corpus: &[Table]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| err("creating data dir")(&e))?;
    webtable_catalog::io::save_catalog(&world.catalog, dir.join("catalog.tsv"))
        .map_err(|e| err("writing catalog")(&e))?;
    Annotator::new(Arc::clone(&world.catalog))
        .save_snapshot(dir.join("index.snap"))
        .map_err(|e| err("writing snapshot")(&e))?;
    let file =
        std::fs::File::create(dir.join("tables.json")).map_err(|e| err("creating corpus")(&e))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = |bytes: &[u8]| out.write_all(bytes).map_err(|e| err("writing corpus")(&e));
    write(b"{\"tables\":[")?;
    for (i, t) in corpus.iter().enumerate() {
        if i > 0 {
            write(b",")?;
        }
        write(table_to_json(t).encode().as_bytes())?;
    }
    write(b"]}")?;
    out.flush().map_err(|e| err("writing corpus")(&e))?;
    Manifest {
        generation: 1,
        catalog: "catalog.tsv".into(),
        segments: vec!["index.snap".into()],
        tables: "tables.json".into(),
    }
    .save_dir(dir)
    .map_err(|e| err("writing manifest")(&e))
}

/// Digest of every regular file in `dir`, in name order.
fn digest_dir(dir: &Path, digest: &mut Digest) -> Result<(), String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| err("listing data dir")(&e))?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    names.sort();
    for name in names {
        digest.add(name.to_string_lossy().as_bytes());
        digest.add(&std::fs::read(dir.join(&name)).map_err(|e| err("reading data dir")(&e))?);
    }
    Ok(())
}

/// The catalog is fixed across seeds; the seed varies the corpus and the
/// traffic. Worlds of different seeds differ in relation sizes, which
/// would move every cost between seeds without a change to the program.
const WORLD_SEED: u64 = 42;

fn world(tiny: bool) -> Result<World, String> {
    let config = if tiny {
        WorldConfig::tiny(WORLD_SEED)
    } else {
        WorldConfig { seed: WORLD_SEED, ..WorldConfig::default() }
    };
    generate_world(&config).map_err(|e| err("generating world")(&e))
}

/// A web-noise generator with zipfian spelling reuse.
fn web_generator(world: &World, seed: u64) -> TableGenerator<'_> {
    TableGenerator::new(world, NoiseConfig::web(), TruthMask::full(), seed)
        .with_reuse(ReusePolicy::web())
}

fn corpus(world: &World, seed: u64, n: usize, avg_rows: usize) -> Vec<LabeledTable> {
    let skew = ReusePolicy::web().relation_skew;
    web_generator(world, seed).gen_corpus_iter(n, avg_rows, skew).collect()
}

/// Generates the inputs of `workload` for `seed` and writes its data
/// dir to `dir`.
pub fn generate(
    workload: Workload,
    seed: u64,
    window: Duration,
    dir: &Path,
) -> Result<Inputs, String> {
    let mut inputs = match workload {
        Workload::Search => search_mix(seed, SEARCH, window, dir)?,
        Workload::Churn => {
            let mut inputs = search_mix(seed, CHURN, window, dir)?;
            inputs.publishes = publish_schedule(window);
            inputs
        }
        Workload::Annotate => annotate(seed, window, dir)?,
    };
    let mut digest = Digest::default();
    digest.add(workload.name().as_bytes());
    digest_dir(dir, &mut digest)?;
    for (i, r) in inputs.requests.iter().enumerate() {
        digest.add(r.body.as_bytes());
        if let Some(due) = inputs.schedule.get(i) {
            digest.add(&due.as_nanos().to_le_bytes());
        }
    }
    for p in &inputs.publishes {
        digest.add(&p.as_nanos().to_le_bytes());
    }
    inputs.digest = digest.hex();
    Ok(inputs)
}

/// `churn`'s publish starts: the first after [`PUBLISH_START`], then every
/// [`PUBLISH_EVERY`] while a publish still fits the window.
pub fn publish_schedule(window: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = PUBLISH_START;
    while t + PUBLISH_EVERY <= window + PUBLISH_START {
        out.push(t);
        t += PUBLISH_EVERY;
    }
    out
}

fn search_mix(
    seed: u64,
    shape: SearchShape,
    window: Duration,
    dir: &Path,
) -> Result<Inputs, String> {
    let world = world(true)?;
    let corpus = corpus(&world, seed, shape.tables, 8);
    let tables: Vec<Table> = corpus.iter().map(|lt| lt.table.clone()).collect();
    write_data_dir(dir, &world, &tables)?;
    let mut rng = Rng::new(seed, 1);
    let schedule = poisson_schedule(&mut rng, shape.rate_per_s, window);
    let draw = QueryDraw::new(&world, &corpus, seed);
    let mut rng = Rng::new(seed, 2);
    let queries: Vec<Query> = schedule.iter().map(|_| draw.sample(&mut rng)).collect();
    let requests = queries
        .iter()
        .map(|q| Request {
            method: "POST",
            path: "/v1/search",
            body: encode_query(q),
            kind: q.kind(),
        })
        .collect();
    Ok(Inputs {
        world,
        requests,
        queries,
        schedule,
        publishes: Vec::new(),
        tables: Vec::new(),
        warmup: 0,
        digest: String::new(),
    })
}

/// A zipf draw over a seed-shuffled list: which items are popular
/// changes with the seed.
struct Popular<T> {
    items: Vec<T>,
    zipf: Zipf,
}

impl<T: Copy> Popular<T> {
    fn new(mut items: Vec<T>, rng: &mut Rng) -> Popular<T> {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i + 1));
        }
        let zipf = Zipf::new(items.len(), 1.0);
        Popular { items, zipf }
    }

    fn sample(&self, rng: &mut Rng) -> T {
        self.items[self.zipf.sample(rng)]
    }
}

/// The seeded query draw: a uniform choice of kind, then zipf-popular
/// entities and tables, so that popular queries repeat.
pub struct QueryDraw<'a> {
    oracle: &'a Catalog,
    corpus: &'a [LabeledTable],
    relations: Vec<RelationPool>,
    joins: Vec<(usize, usize)>,
    tables: Popular<usize>,
    seed_sets: Popular<usize>,
    seeds: Vec<Vec<EntityId>>,
}

/// One relation's popular right entities and tuples.
struct RelationPool {
    id: RelationId,
    rights: Popular<EntityId>,
    tuples: Popular<(EntityId, EntityId)>,
}

/// The first two distinct true entities of the first column holding two.
fn seed_pair(lt: &LabeledTable) -> Option<Vec<EntityId>> {
    (0..lt.table.num_cols()).find_map(|c| {
        let mut ents: Vec<EntityId> = (0..lt.table.num_rows())
            .filter_map(|r| lt.truth.cell_entities.get(&(r, c)).copied().flatten())
            .collect();
        ents.sort_unstable();
        ents.dedup();
        (ents.len() >= 2).then(|| ents[..2].to_vec())
    })
}

impl<'a> QueryDraw<'a> {
    /// Pools for `world` and its generated `corpus`.
    pub fn new(world: &'a World, corpus: &'a [LabeledTable], seed: u64) -> QueryDraw<'a> {
        let oracle: &Catalog = &world.oracle;
        let mut rng = Rng::new(seed, 3);
        let mut relations = Vec::new();
        for b in oracle.relation_ids() {
            let rel = oracle.relation(b);
            if rel.tuples.is_empty() {
                continue;
            }
            let mut rights: Vec<EntityId> = rel.by_right.keys().copied().collect();
            rights.sort_unstable();
            let rights = Popular::new(rights, &mut rng);
            let tuples = Popular::new(rel.tuples.clone(), &mut rng);
            relations.push(RelationPool { id: b, rights, tuples });
        }
        let mut joins = Vec::new();
        for (i, p1) in relations.iter().enumerate() {
            for (j, p2) in relations.iter().enumerate() {
                let (a, b) = (oracle.relation(p1.id), oracle.relation(p2.id));
                if oracle.is_subtype(a.right_type, b.left_type) {
                    joins.push((i, j));
                }
            }
        }
        let tables = Popular::new((0..corpus.len()).collect(), &mut rng);
        let seeds: Vec<Vec<EntityId>> = corpus.iter().filter_map(seed_pair).collect();
        let seed_sets = Popular::new((0..seeds.len()).collect(), &mut rng);
        QueryDraw { oracle, corpus, relations, joins, tables, seed_sets, seeds }
    }

    fn entity_query(&self, rng: &mut Rng) -> EntityQuery {
        let pool = &self.relations[rng.below(self.relations.len())];
        let rel = self.oracle.relation(pool.id);
        let e2 = pool.rights.sample(rng);
        EntityQuery { relation: pool.id, t1: rel.left_type, t2: rel.right_type, e2 }
    }

    fn seeds(&self, rng: &mut Rng) -> Vec<EntityId> {
        self.seeds[self.seed_sets.sample(rng)].clone()
    }

    /// Draws one query.
    pub fn sample(&self, rng: &mut Rng) -> Query {
        match KINDS[rng.below(KINDS.len())] {
            "baseline" => Query::Baseline(self.entity_query(rng)),
            "typed" => {
                let query = self.entity_query(rng);
                Query::Typed { query, use_relations: rng.below(2) == 1 }
            }
            "join" => {
                let (i, j) = self.joins[rng.below(self.joins.len())];
                let (r1, r2) = (self.relations[i].id, self.relations[j].id);
                let e3 = self.relations[j].rights.sample(rng);
                Query::Join { query: JoinQuery { r1, r2, e3 }, mid_k: 10 }
            }
            "tables" => {
                let t = &self.corpus[self.tables.sample(rng)].table;
                let mut keywords = t.context.clone();
                for cell in &t.rows[rng.below(t.num_rows())] {
                    keywords.push(' ');
                    keywords.push_str(cell);
                }
                Query::Tables { keywords, k: 10 }
            }
            "populate_rows" => Query::PopulateRows { seeds: self.seeds(rng), k: 10 },
            "populate_columns" => Query::PopulateColumns { seeds: self.seeds(rng), k: 10 },
            _ => {
                let pool = &self.relations[rng.below(self.relations.len())];
                let (e1, e2) = pool.tuples.sample(rng);
                let entity = if rng.below(2) == 0 { e1 } else { e2 };
                Query::Related { entity, relation: pool.id, k: 10 }
            }
        }
    }
}

fn annotate(seed: u64, window: Duration, dir: &Path) -> Result<Inputs, String> {
    let world = world(false)?;
    let corpus: Vec<Table> = corpus(&world, seed ^ 0x5eed, ANNOTATE_CORPUS_TABLES, 8)
        .into_iter()
        .map(|lt| lt.table)
        .collect();
    write_data_dir(dir, &world, &corpus)?;

    // Fresh request tables: one stream, cut into requests of 1–4 tables.
    let count = ANNOTATE_REQUESTS_PER_S * window.as_secs().max(1) as usize;
    let mut rng = Rng::new(seed, 4);
    let sizes: Vec<usize> = (0..count).map(|_| 1 + rng.below(4)).collect();
    let skew = ReusePolicy::web().relation_skew;
    let mut generator = web_generator(&world, seed);
    let mut stream = generator.gen_corpus_iter(sizes.iter().sum(), ANNOTATE_ROWS, skew);
    let tables: Vec<Vec<LabeledTable>> =
        sizes.iter().map(|&n| stream.by_ref().take(n).collect()).collect();
    drop(stream);

    // Warm-up: the shortest prefix whose distinct spellings overfill the
    // server's candidate cache by a quarter.
    let mut spellings = std::collections::HashSet::new();
    let mut warmup = 0;
    while spellings.len() < SERVER_CACHE_CAPACITY * 5 / 4 && warmup < tables.len() {
        for lt in &tables[warmup] {
            for row in &lt.table.rows {
                spellings.extend(row.iter().map(|c| webtable_text::normalize(c)));
            }
        }
        warmup += 1;
    }
    let requests = tables
        .iter()
        .map(|ts| Request {
            method: "POST",
            path: "/v1/annotate",
            body: WireAnnotateRequest::new(ts.iter().map(|lt| lt.table.clone()).collect()).encode(),
            kind: "annotate",
        })
        .collect();
    Ok(Inputs {
        world,
        requests,
        queries: Vec::new(),
        schedule: Vec::new(),
        publishes: Vec::new(),
        tables,
        warmup,
        digest: String::new(),
    })
}
