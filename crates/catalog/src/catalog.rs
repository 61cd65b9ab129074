//! The immutable, query-optimized catalog.
//!
//! A [`Catalog`] is produced by [`crate::builder::CatalogBuilder::finish`]
//! and is the Rust analogue of the paper's YAGO snapshot (§3.1): a type DAG,
//! entities with lemmas, and binary relations with tuple stores. All
//! transitive structures used by the annotator's features are precomputed
//! here once:
//!
//! * `T(E)` — all type ancestors of an entity, with the graph distance
//!   `dist(E, T)` (one `∈` edge followed by zero or more `⊆` edges, §4.2.3);
//! * `E(T)` — the transitive extent of a type (sorted entity ids);
//! * type specificity `|E| / |E(T)|` (the IDF-style feature);
//! * per small type, the missing-link relatedness ratios (feature `f3`);
//! * per-relation participation fractions (feature `f4`);
//! * an entity-pair → relations index (candidate relations, §4.3).
//!
//! The catalog is immutable and cheap to share across annotation threads
//! (`Send + Sync`): it holds no lock and no memo, so every query is a
//! plain read.

use std::collections::HashMap;

use crate::error::CatalogError;
use crate::ids::{EntityId, RelationId, TypeId};
use crate::schema::{Entity, Relation, TypeNode};

/// Immutable entity/type/relation catalog. See the module docs.
#[derive(Debug)]
pub struct Catalog {
    types: Vec<TypeNode>,
    type_by_name: HashMap<String, TypeId>,
    entities: Vec<Entity>,
    entity_by_name: HashMap<String, EntityId>,
    relations: Vec<Relation>,
    relation_by_name: HashMap<String, RelationId>,
    root: TypeId,
    /// Per type: all supertypes (transitive, including self), sorted by id.
    ancestors: Vec<Vec<TypeId>>,
    /// Per type: minimum number of `⊆` edges from the root down to the type.
    depth: Vec<u32>,
    /// Per entity: `T(E)` sorted by id.
    entity_types: Vec<Vec<TypeId>>,
    /// Per entity: `dist(E, T)` aligned with `entity_types`.
    entity_type_dist: Vec<Vec<u32>>,
    /// Per type: `E(T)` sorted by entity id.
    extent: Vec<Vec<EntityId>>,
    /// Per type: `min_{E' ∈ E(T)} dist(E', T)`; `u32::MAX` for empty extents.
    min_entity_dist: Vec<u32>,
    /// Entity pair → relations holding between them.
    pair_relations: HashMap<(EntityId, EntityId), Vec<RelationId>>,
    /// Per relation: fraction of `E(T1)` appearing on the left.
    participation_left: Vec<f64>,
    /// Per relation: fraction of `E(T2)` appearing on the right.
    participation_right: Vec<f64>,
    /// Per type `tp` with `0 < |E(tp)| ≤ MISSING_LINK_EXTENT_CAP`: every
    /// type `t` whose extent meets `E(tp)`, with `|E(tp) ∩ E(t)| / |E(tp)|`,
    /// sorted by `t`. Empty for every other type. Read by
    /// [`Catalog::missing_link_relatedness`].
    relatedness: Vec<Vec<(TypeId, f64)>>,
}

impl Catalog {
    /// Assembles a catalog from builder parts. Used by
    /// [`crate::builder::CatalogBuilder::finish`]; not public API.
    pub(crate) fn from_parts(
        types: Vec<TypeNode>,
        type_by_name: HashMap<String, TypeId>,
        entities: Vec<Entity>,
        entity_by_name: HashMap<String, EntityId>,
        relations: Vec<Relation>,
        relation_by_name: HashMap<String, RelationId>,
        strict_schemas: bool,
    ) -> Result<Catalog, CatalogError> {
        let root = (0..types.len())
            .map(TypeId::from_index)
            .find(|t| types[t.index()].parents.is_empty())
            .expect("builder guarantees a root type");

        let ancestors = compute_ancestors(&types)?;
        let depth = compute_depth(&types, root);
        let (entity_types, entity_type_dist) = compute_entity_types(&types, &entities);
        let (extent, min_entity_dist) =
            compute_extents(types.len(), &entity_types, &entity_type_dist);
        let relatedness = compute_relatedness(&extent, &entity_types);

        if strict_schemas {
            for rel in &relations {
                for &(e1, e2) in &rel.tuples {
                    let ok1 = entity_types[e1.index()].binary_search(&rel.left_type).is_ok();
                    let ok2 = entity_types[e2.index()].binary_search(&rel.right_type).is_ok();
                    if !ok1 || !ok2 {
                        return Err(CatalogError::SchemaViolation {
                            relation: rel.name.clone(),
                            detail: format!(
                                "tuple ({}, {}) violates schema ({}, {})",
                                entities[e1.index()].name,
                                entities[e2.index()].name,
                                types[rel.left_type.index()].name,
                                types[rel.right_type.index()].name
                            ),
                        });
                    }
                }
            }
        }

        let mut pair_relations: HashMap<(EntityId, EntityId), Vec<RelationId>> = HashMap::new();
        for (ri, rel) in relations.iter().enumerate() {
            let rid = RelationId::from_index(ri);
            for &(e1, e2) in &rel.tuples {
                pair_relations.entry((e1, e2)).or_default().push(rid);
            }
        }

        let mut participation_left = Vec::with_capacity(relations.len());
        let mut participation_right = Vec::with_capacity(relations.len());
        for rel in &relations {
            let el = extent[rel.left_type.index()].len().max(1) as f64;
            let er = extent[rel.right_type.index()].len().max(1) as f64;
            participation_left.push((rel.distinct_left() as f64 / el).min(1.0));
            participation_right.push((rel.distinct_right() as f64 / er).min(1.0));
        }

        Ok(Catalog {
            types,
            type_by_name,
            entities,
            entity_by_name,
            relations,
            relation_by_name,
            root,
            ancestors,
            depth,
            entity_types,
            entity_type_dist,
            extent,
            min_entity_dist,
            pair_relations,
            participation_left,
            participation_right,
            relatedness,
        })
    }

    // ------------------------------------------------------------------
    // Counts and basic accessors
    // ------------------------------------------------------------------

    /// Number of types, `|T|`.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of entities, `|E|`.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relation names, `|B|`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The root of the type DAG (reaches every type).
    pub fn root(&self) -> TypeId {
        self.root
    }

    /// Iterator over all type ids.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.types.len()).map(TypeId::from_index)
    }

    /// Iterator over all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entities.len()).map(EntityId::from_index)
    }

    /// Iterator over all relation ids.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelationId> + '_ {
        (0..self.relations.len()).map(RelationId::from_index)
    }

    /// The full record of a type.
    pub fn type_node(&self, t: TypeId) -> &TypeNode {
        &self.types[t.index()]
    }

    /// Canonical name of a type.
    pub fn type_name(&self, t: TypeId) -> &str {
        &self.types[t.index()].name
    }

    /// Lemmas `L(T)` of a type (canonical name first).
    pub fn type_lemmas(&self, t: TypeId) -> &[String] {
        &self.types[t.index()].lemmas
    }

    /// The full record of an entity.
    pub fn entity(&self, e: EntityId) -> &Entity {
        &self.entities[e.index()]
    }

    /// Canonical name of an entity.
    pub fn entity_name(&self, e: EntityId) -> &str {
        &self.entities[e.index()].name
    }

    /// Lemmas `L(E)` of an entity (canonical name first).
    pub fn entity_lemmas(&self, e: EntityId) -> &[String] {
        &self.entities[e.index()].lemmas
    }

    /// The full record of a relation.
    pub fn relation(&self, b: RelationId) -> &Relation {
        &self.relations[b.index()]
    }

    /// Canonical name of a relation.
    pub fn relation_name(&self, b: RelationId) -> &str {
        &self.relations[b.index()].name
    }

    /// Looks up a type by canonical name.
    pub fn type_named(&self, name: &str) -> Option<TypeId> {
        self.type_by_name.get(name).copied()
    }

    /// Looks up an entity by canonical name.
    pub fn entity_named(&self, name: &str) -> Option<EntityId> {
        self.entity_by_name.get(name).copied()
    }

    /// Looks up a relation by canonical name.
    pub fn relation_named(&self, name: &str) -> Option<RelationId> {
        self.relation_by_name.get(name).copied()
    }

    // ------------------------------------------------------------------
    // Type DAG queries
    // ------------------------------------------------------------------

    /// All supertypes of `t` (transitive, including `t` itself), sorted by id.
    pub fn ancestors(&self, t: TypeId) -> &[TypeId] {
        &self.ancestors[t.index()]
    }

    /// True iff `t1 ⊆* t2` (zero or more subtype edges from `t2` down to `t1`).
    pub fn is_subtype(&self, t1: TypeId, t2: TypeId) -> bool {
        self.ancestors[t1.index()].binary_search(&t2).is_ok()
    }

    /// Immediate supertypes of `t`.
    pub fn parents(&self, t: TypeId) -> &[TypeId] {
        &self.types[t.index()].parents
    }

    /// Immediate subtypes of `t`.
    pub fn children(&self, t: TypeId) -> &[TypeId] {
        &self.types[t.index()].children
    }

    /// Minimum number of `⊆` edges from the root down to `t` (root has 0).
    pub fn depth(&self, t: TypeId) -> u32 {
        self.depth[t.index()]
    }

    /// Reduces a set of types to its most specific elements: those with no
    /// *proper* descendant also in the set. This is the candidate-selection
    /// rule of the LCA baseline (§4.5.1).
    pub fn most_specific(&self, types: &[TypeId]) -> Vec<TypeId> {
        let mut sorted: Vec<TypeId> = types.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .iter()
            .copied()
            .filter(|&t| !sorted.iter().any(|&other| other != t && self.is_subtype(other, t)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Entity ↔ type queries
    // ------------------------------------------------------------------

    /// `T(E)`: all type ancestors of entity `e`, sorted by id.
    pub fn types_of(&self, e: EntityId) -> &[TypeId] {
        &self.entity_types[e.index()]
    }

    /// True iff `e ∈+ t`.
    pub fn is_instance(&self, e: EntityId, t: TypeId) -> bool {
        self.entity_types[e.index()].binary_search(&t).is_ok()
    }

    /// `dist(E, T)`: number of edges (`∈` followed by `⊆*`) on the shortest
    /// path from `e` up to `t`, or `None` if `e ∉+ t` (§4.2.3 treats this
    /// case as infinite distance).
    pub fn dist(&self, e: EntityId, t: TypeId) -> Option<u32> {
        let row = &self.entity_types[e.index()];
        row.binary_search(&t).ok().map(|i| self.entity_type_dist[e.index()][i])
    }

    /// `E(T)`: entities transitively reachable from `t`, sorted by id.
    pub fn extent(&self, t: TypeId) -> &[EntityId] {
        &self.extent[t.index()]
    }

    /// `|E(T)|`.
    pub fn extent_size(&self, t: TypeId) -> usize {
        self.extent[t.index()].len()
    }

    /// Type specificity `|E| / |E(T)|` (§4.2.3). Returns `|E| + 1` for an
    /// empty extent so that unused types rank as maximally specific.
    pub fn specificity(&self, t: TypeId) -> f64 {
        let n = self.num_entities() as f64;
        let ext = self.extent_size(t);
        if ext == 0 {
            n + 1.0
        } else {
            n / ext as f64
        }
    }

    /// `min_{E' ∈ E(T)} dist(E', T)`, the denominator of the missing-link
    /// feature (§4.2.3). `None` for empty extents.
    pub fn min_entity_dist(&self, t: TypeId) -> Option<u32> {
        let d = self.min_entity_dist[t.index()];
        (d != u32::MAX).then_some(d)
    }

    /// `|E(t1) ∩ E(t2)|` via sorted-vector intersection. When one extent is
    /// much smaller, probes the larger one by binary search
    /// (`O(min · log max)` instead of `O(min + max)`).
    pub fn extent_overlap(&self, t1: TypeId, t2: TypeId) -> usize {
        let (mut a, mut b) = (&self.extent[t1.index()], &self.extent[t2.index()]);
        if a.len() > b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        if b.len() > 8 * a.len().max(1) {
            return a.iter().filter(|e| b.binary_search(e).is_ok()).count();
        }
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Maximum direct-type extent size considered by
    /// [`Catalog::missing_link_relatedness`]. The formula's `T'` is meant
    /// to be an entity's *specific* immediate parent ("Suppose T′ is the
    /// (only) immediate type ancestor of E", §4.2.3); a direct type with
    /// thousands of instances both dilutes the ratio toward zero and costs
    /// a large intersection, so it is treated as contributing zero.
    pub const MISSING_LINK_EXTENT_CAP: usize = 512;

    /// The missing-link relatedness hint of §4.2.3:
    /// `min_{T' : E ∈ T'} |E(T') ∩ E(T)| / |E(T')|`, over the immediate
    /// (direct) types `T'` of `e`. Zero when `e` has no direct type with a
    /// non-empty extent of specific size (see
    /// [`Catalog::MISSING_LINK_EXTENT_CAP`]). Each ratio is one binary
    /// search in a row precomputed at construction.
    pub fn missing_link_relatedness(&self, e: EntityId, t: TypeId) -> f64 {
        let mut best: Option<f64> = None;
        for &tp in &self.entities[e.index()].direct_types {
            // Only empty and over-cap extents have an empty row: any other
            // row holds at least `(tp, 1.0)`.
            let row = &self.relatedness[tp.index()];
            if row.is_empty() {
                continue;
            }
            let ratio = row.binary_search_by_key(&t, |&(u, _)| u).map_or(0.0, |i| row[i].1);
            best = Some(match best {
                Some(b) => b.min(ratio),
                None => ratio,
            });
        }
        best.unwrap_or(0.0)
    }

    // ------------------------------------------------------------------
    // Relation queries
    // ------------------------------------------------------------------

    /// Relations `B` with a tuple `B(e1, e2)` in the catalog.
    pub fn relations_between(&self, e1: EntityId, e2: EntityId) -> &[RelationId] {
        self.pair_relations.get(&(e1, e2)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True iff the catalog contains the tuple `b(e1, e2)`.
    pub fn has_tuple(&self, b: RelationId, e1: EntityId, e2: EntityId) -> bool {
        self.relations[b.index()].has_tuple(e1, e2)
    }

    /// Fraction of `E(T1)` (left) and `E(T2)` (right) participating in `b` —
    /// the second feature element of `f4` (§4.2.4).
    pub fn participation(&self, b: RelationId) -> (f64, f64) {
        (self.participation_left[b.index()], self.participation_right[b.index()])
    }
}

// ----------------------------------------------------------------------
// Closure computations
// ----------------------------------------------------------------------

fn compute_ancestors(types: &[TypeNode]) -> Result<Vec<Vec<TypeId>>, CatalogError> {
    // Memoized DFS over parent edges. The builder validated acyclicity, so
    // plain recursion-free iteration in reverse topological order works; we
    // use an explicit work list to stay robust for deep hierarchies.
    let n = types.len();
    let mut memo: Vec<Option<Vec<TypeId>>> = vec![None; n];
    for start in 0..n {
        if memo[start].is_some() {
            continue;
        }
        // Iterative post-order.
        let mut stack = vec![(start, 0usize)];
        while let Some(&mut (node, ref mut next_parent)) = stack.last_mut() {
            if memo[node].is_some() {
                stack.pop();
                continue;
            }
            let parents = &types[node].parents;
            if *next_parent < parents.len() {
                let p = parents[*next_parent].index();
                *next_parent += 1;
                if memo[p].is_none() {
                    stack.push((p, 0));
                }
                continue;
            }
            // All parents resolved: union them.
            let mut acc: Vec<TypeId> = vec![TypeId::from_index(node)];
            for p in parents {
                acc.extend_from_slice(memo[p.index()].as_ref().expect("post-order"));
            }
            acc.sort_unstable();
            acc.dedup();
            memo[node] = Some(acc);
            stack.pop();
        }
    }
    Ok(memo.into_iter().map(|v| v.expect("all visited")).collect())
}

fn compute_depth(types: &[TypeNode], root: TypeId) -> Vec<u32> {
    let mut depth = vec![u32::MAX; types.len()];
    depth[root.index()] = 0;
    let mut frontier = vec![root];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for t in frontier.drain(..) {
            for &c in &types[t.index()].children {
                if depth[c.index()] == u32::MAX {
                    depth[c.index()] = d;
                    next.push(c);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    // Types unreachable from the root (possible only in hand-built partial
    // hierarchies) get a large sentinel depth.
    for d in depth.iter_mut() {
        if *d == u32::MAX {
            *d = u32::MAX / 2;
        }
    }
    depth
}

fn compute_entity_types(
    types: &[TypeNode],
    entities: &[Entity],
) -> (Vec<Vec<TypeId>>, Vec<Vec<u32>>) {
    let mut all_types = Vec::with_capacity(entities.len());
    let mut all_dists = Vec::with_capacity(entities.len());
    let mut dist_map: HashMap<TypeId, u32> = HashMap::new();
    let mut frontier: Vec<TypeId> = Vec::new();
    let mut next: Vec<TypeId> = Vec::new();
    for ent in entities {
        dist_map.clear();
        frontier.clear();
        // The `∈` edge contributes 1; each `⊆` edge adds 1 (§4.2.3).
        for &t in &ent.direct_types {
            dist_map.entry(t).or_insert(1);
            frontier.push(t);
        }
        let mut d = 1u32;
        while !frontier.is_empty() {
            d += 1;
            next.clear();
            for &t in frontier.iter() {
                for &p in &types[t.index()].parents {
                    dist_map.entry(p).or_insert_with(|| {
                        next.push(p);
                        d
                    });
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        let mut pairs: Vec<(TypeId, u32)> = dist_map.iter().map(|(&t, &d)| (t, d)).collect();
        pairs.sort_unstable_by_key(|&(t, _)| t);
        all_types.push(pairs.iter().map(|&(t, _)| t).collect());
        all_dists.push(pairs.iter().map(|&(_, d)| d).collect());
    }
    (all_types, all_dists)
}

fn compute_extents(
    num_types: usize,
    entity_types: &[Vec<TypeId>],
    entity_type_dist: &[Vec<u32>],
) -> (Vec<Vec<EntityId>>, Vec<u32>) {
    let mut extent: Vec<Vec<EntityId>> = vec![Vec::new(); num_types];
    let mut min_dist = vec![u32::MAX; num_types];
    for (ei, (tys, dists)) in entity_types.iter().zip(entity_type_dist).enumerate() {
        let e = EntityId::from_index(ei);
        for (&t, &d) in tys.iter().zip(dists) {
            extent[t.index()].push(e); // entity ids ascending ⇒ sorted
            if d < min_dist[t.index()] {
                min_dist[t.index()] = d;
            }
        }
    }
    (extent, min_dist)
}

/// The rows behind [`Catalog::missing_link_relatedness`]. For each type
/// `tp` within the extent cap, counts `|E(tp) ∩ E(t)|` for every `t` at
/// once by walking `T(e')` for each `e' ∈ E(tp)`, then divides by
/// `|E(tp)|` exactly as a pairwise `extent_overlap` would.
fn compute_relatedness(
    extent: &[Vec<EntityId>],
    entity_types: &[Vec<TypeId>],
) -> Vec<Vec<(TypeId, f64)>> {
    let mut counts = vec![0usize; extent.len()];
    let mut touched: Vec<TypeId> = Vec::new();
    extent
        .iter()
        .map(|ext| {
            if ext.is_empty() || ext.len() > Catalog::MISSING_LINK_EXTENT_CAP {
                return Vec::new();
            }
            for &e in ext {
                for &t in &entity_types[e.index()] {
                    if counts[t.index()] == 0 {
                        touched.push(t);
                    }
                    counts[t.index()] += 1;
                }
            }
            touched.sort_unstable();
            touched
                .drain(..)
                .map(|t| (t, std::mem::take(&mut counts[t.index()]) as f64 / ext.len() as f64))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::builder::CatalogBuilder;
    use crate::ids::TypeId;
    use crate::schema::Cardinality;

    use super::*;

    /// Builds the book/person mini-catalog of the paper's Figure 1.
    fn figure1_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let entity = b.add_type("entity", &[]).unwrap();
        let person = b.add_type("person", &[]).unwrap();
        let physicist = b.add_type("physicist", &[]).unwrap();
        let book = b.add_type("book", &[]).unwrap();
        b.add_subtype(person, entity);
        b.add_subtype(physicist, person);
        b.add_subtype(book, entity);
        let einstein =
            b.add_entity("Albert Einstein", &["A. Einstein", "Einstein"], &[physicist]).unwrap();
        let stannard = b.add_entity("Russell Stannard", &["Stannard"], &[person]).unwrap();
        let b94 = b.add_entity("The Time and Space of Uncle Albert", &[], &[book]).unwrap();
        let b95 = b.add_entity("Uncle Albert and the Quantum Quest", &[], &[book]).unwrap();
        let b41 = b
            .add_entity("Relativity: The Special and the General Theory", &["Relativity"], &[book])
            .unwrap();
        let wrote = b.add_relation("writes", book, person, Cardinality::ManyToOne).unwrap();
        b.add_tuple(wrote, b94, stannard);
        b.add_tuple(wrote, b95, stannard);
        b.add_tuple(wrote, b41, einstein);
        b.finish().unwrap()
    }

    #[test]
    fn ancestors_include_self_and_are_transitive() {
        let cat = figure1_catalog();
        let physicist = cat.type_named("physicist").unwrap();
        let person = cat.type_named("person").unwrap();
        let entity = cat.type_named("entity").unwrap();
        let anc = cat.ancestors(physicist);
        assert!(anc.contains(&physicist));
        assert!(anc.contains(&person));
        assert!(anc.contains(&entity));
        assert_eq!(anc.len(), 3);
        assert!(cat.is_subtype(physicist, entity));
        assert!(!cat.is_subtype(entity, physicist));
    }

    #[test]
    fn entity_types_and_distances() {
        let cat = figure1_catalog();
        let e = cat.entity_named("Albert Einstein").unwrap();
        let physicist = cat.type_named("physicist").unwrap();
        let person = cat.type_named("person").unwrap();
        let entity = cat.type_named("entity").unwrap();
        let book = cat.type_named("book").unwrap();
        assert_eq!(cat.dist(e, physicist), Some(1)); // one ∈ edge
        assert_eq!(cat.dist(e, person), Some(2)); // ∈ then ⊆
        assert_eq!(cat.dist(e, entity), Some(3));
        assert_eq!(cat.dist(e, book), None);
        assert!(cat.is_instance(e, person));
        assert!(!cat.is_instance(e, book));
    }

    #[test]
    fn extents_are_sorted_and_transitive() {
        let cat = figure1_catalog();
        let person = cat.type_named("person").unwrap();
        let book = cat.type_named("book").unwrap();
        let entity = cat.type_named("entity").unwrap();
        assert_eq!(cat.extent_size(person), 2);
        assert_eq!(cat.extent_size(book), 3);
        assert_eq!(cat.extent_size(entity), 5);
        let ext = cat.extent(book);
        assert!(ext.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn specificity_prefers_narrow_types() {
        let cat = figure1_catalog();
        let physicist = cat.type_named("physicist").unwrap();
        let entity = cat.type_named("entity").unwrap();
        assert!(cat.specificity(physicist) > cat.specificity(entity));
        // Root extent = everything ⇒ specificity 1.
        assert!((cat.specificity(entity) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relations_between_entities() {
        let cat = figure1_catalog();
        let wrote = cat.relation_named("writes").unwrap();
        let b41 = cat.entity_named("Relativity: The Special and the General Theory").unwrap();
        let einstein = cat.entity_named("Albert Einstein").unwrap();
        let stannard = cat.entity_named("Russell Stannard").unwrap();
        assert_eq!(cat.relations_between(b41, einstein), &[wrote]);
        assert!(cat.relations_between(b41, stannard).is_empty());
        assert!(cat.has_tuple(wrote, b41, einstein));
        let (pl, pr) = cat.participation(wrote);
        assert!((pl - 1.0).abs() < 1e-12, "all books appear on the left");
        assert!((pr - 1.0).abs() < 1e-12, "both persons appear on the right");
    }

    #[test]
    fn most_specific_filters_ancestors() {
        let cat = figure1_catalog();
        let physicist = cat.type_named("physicist").unwrap();
        let person = cat.type_named("person").unwrap();
        let entity = cat.type_named("entity").unwrap();
        let book = cat.type_named("book").unwrap();
        let ms = cat.most_specific(&[physicist, person, entity, book]);
        assert!(ms.contains(&physicist));
        assert!(ms.contains(&book));
        assert!(!ms.contains(&person));
        assert!(!ms.contains(&entity));
    }

    #[test]
    fn missing_link_relatedness_detects_likely_links() {
        // Reproduce the paper's Nancy Drew anecdote in miniature (App. F):
        // `The Clue of the Black Keys` lost its ∈ edge to `nancy drew books`
        // but keeps `1951 novels`; most `1951 novels` are Nancy Drew books,
        // so relatedness should be high.
        let mut b = CatalogBuilder::new();
        let novel = b.add_type("novel", &[]).unwrap();
        let nancy = b.add_type("nancy drew books", &[]).unwrap();
        let y1951 = b.add_type("1951 novels", &[]).unwrap();
        b.add_subtype(nancy, novel);
        b.add_subtype(y1951, novel);
        // Three 1951 novels that are also Nancy Drew books.
        for i in 0..3 {
            b.add_entity(format!("nd{i}"), &[], &[nancy, y1951]).unwrap();
        }
        // The degraded entity: only the year category survives.
        let clue = b.add_entity("The Clue of the Black Keys", &[], &[y1951]).unwrap();
        // An unrelated 1951 novel to keep the ratio below 1.
        b.add_entity("other 1951 novel", &[], &[y1951]).unwrap();
        let cat = b.finish().unwrap();
        let rel = cat.missing_link_relatedness(clue, nancy);
        assert!(rel > 0.5, "3 of 5 1951-novels are nancy drew books: {rel}");
        assert!(rel < 1.0);
        assert_eq!(cat.dist(clue, nancy), None, "the link really is missing");
        assert_eq!(cat.min_entity_dist(nancy), Some(1));
    }

    #[test]
    fn missing_link_relatedness_stops_at_the_extent_cap() {
        // Two direct types, one exactly at the cap and one just past it;
        // half of each is also in `target`. Each probe entity is only in
        // its own direct type.
        let cap = Catalog::MISSING_LINK_EXTENT_CAP;
        let mut b = CatalogBuilder::new();
        let target = b.add_type("target", &[]).unwrap();
        let at_cap = b.add_type("at cap", &[]).unwrap();
        let over_cap = b.add_type("over cap", &[]).unwrap();
        let mut probes = Vec::new();
        for (tp, size) in [(at_cap, cap), (over_cap, cap + 1)] {
            probes.push(b.add_entity(format!("{size}/probe"), &[], &[tp]).unwrap());
            for i in 1..size {
                let direct: &[TypeId] = if i <= cap / 2 { &[tp, target] } else { &[tp] };
                b.add_entity(format!("{size}/{i}"), &[], direct).unwrap();
            }
        }
        let cat = b.finish().unwrap();
        assert_eq!(cat.extent_size(at_cap), cap);
        assert_eq!(cat.extent_size(over_cap), cap + 1);
        assert_eq!(cat.missing_link_relatedness(probes[0], target), 0.5);
        assert_eq!(cat.missing_link_relatedness(probes[1], target), 0.0);
    }

    #[test]
    fn depth_measures_edges_from_root() {
        let cat = figure1_catalog();
        assert_eq!(cat.depth(cat.root()), 0);
        let physicist = cat.type_named("physicist").unwrap();
        assert_eq!(cat.depth(physicist), 2);
    }

    #[test]
    fn extent_overlap_counts_shared_instances() {
        let cat = figure1_catalog();
        let person = cat.type_named("person").unwrap();
        let physicist = cat.type_named("physicist").unwrap();
        let book = cat.type_named("book").unwrap();
        assert_eq!(cat.extent_overlap(person, physicist), 1);
        assert_eq!(cat.extent_overlap(person, book), 0);
    }

    #[test]
    fn diamond_hierarchies_compute_min_distance() {
        // E ∈ A; A ⊆ B ⊆ D and A ⊆ D directly: dist must take the short way.
        let mut b = CatalogBuilder::new();
        let d = b.add_type("d", &[]).unwrap();
        let bb = b.add_type("b", &[]).unwrap();
        let a = b.add_type("a", &[]).unwrap();
        b.add_subtype(bb, d);
        b.add_subtype(a, bb);
        b.add_subtype(a, d);
        let e = b.add_entity("e", &[], &[a]).unwrap();
        let cat = b.finish().unwrap();
        assert_eq!(cat.dist(e, TypeId(0)), Some(2), "direct a⊆d beats a⊆b⊆d");
    }
}
