//! Incremental catalog construction with validation.
//!
//! A [`CatalogBuilder`] interns types, entities and relations by canonical
//! name, accumulates subtype / instance / tuple edges, and on
//! [`CatalogBuilder::finish`] validates the type DAG (acyclicity, single
//! root) and precomputes the transitive-closure structures the annotator
//! needs (`T(E)`, `E(T)`, distances, participation statistics).

use std::collections::HashMap;

use crate::catalog::Catalog;
use crate::error::CatalogError;
use crate::ids::{EntityId, RelationId, TypeId};
use crate::schema::{Cardinality, Entity, Relation, TypeNode};

/// Name of the synthetic root type inserted when the hierarchy has no single
/// top element. Mirrors the paper's convention: "If not already present, we
/// can create a root type that reaches all other types" (§3.1).
pub const ROOT_TYPE_NAME: &str = "entity (root)";

/// Builder for [`Catalog`]. See the module docs for the workflow.
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    types: Vec<TypeNode>,
    type_by_name: HashMap<String, TypeId>,
    entities: Vec<Entity>,
    entity_by_name: HashMap<String, EntityId>,
    relations: Vec<RelationDraft>,
    relation_by_name: HashMap<String, RelationId>,
    /// When true (default), relation tuples whose members are not instances
    /// of the schema types are rejected. Disabled by the synthetic-world
    /// generator when it degrades a catalog by deleting instance links.
    strict_schemas: bool,
}

#[derive(Debug)]
struct RelationDraft {
    name: String,
    left_type: TypeId,
    right_type: TypeId,
    cardinality: Cardinality,
    tuples: Vec<(EntityId, EntityId)>,
}

impl CatalogBuilder {
    /// Creates an empty builder with strict schema checking enabled.
    pub fn new() -> Self {
        CatalogBuilder { strict_schemas: true, ..Default::default() }
    }

    /// Disables the check that relation tuple members are instances of the
    /// schema types. Useful when modelling *incomplete* catalogs, where an
    /// `∈` link may be missing while the relation tuple survives — exactly
    /// the situation the paper's missing-link feature targets (§4.2.3).
    pub fn allow_schema_violations(&mut self) -> &mut Self {
        self.strict_schemas = false;
        self
    }

    /// Number of types added so far.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of entities added so far.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relations added so far.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Adds a type with the given canonical name and extra lemmas.
    ///
    /// The canonical name is automatically the first lemma. Returns an error
    /// if the name is already taken.
    pub fn add_type<S: Into<String>>(
        &mut self,
        name: S,
        extra_lemmas: &[&str],
    ) -> Result<TypeId, CatalogError> {
        let name = name.into();
        if self.type_by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateName { kind: "type", name });
        }
        let id = TypeId::from_index(self.types.len());
        let mut lemmas = Vec::with_capacity(1 + extra_lemmas.len());
        lemmas.push(name.clone());
        lemmas.extend(extra_lemmas.iter().map(|s| s.to_string()));
        self.types.push(TypeNode {
            name: name.clone(),
            lemmas,
            parents: Vec::new(),
            children: Vec::new(),
        });
        self.type_by_name.insert(name, id);
        Ok(id)
    }

    /// Returns the id of an existing type by canonical name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.type_by_name.get(name).copied()
    }

    /// Returns the id of an existing entity by canonical name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.entity_by_name.get(name).copied()
    }

    /// Returns the id of an existing relation by canonical name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.relation_by_name.get(name).copied()
    }

    /// Adds an extra lemma to an existing type.
    pub fn add_type_lemma(&mut self, t: TypeId, lemma: &str) {
        let node = &mut self.types[t.index()];
        if !node.lemmas.iter().any(|l| l == lemma) {
            node.lemmas.push(lemma.to_string());
        }
    }

    /// Declares `child ⊆ parent`. Duplicate declarations are ignored.
    pub fn add_subtype(&mut self, child: TypeId, parent: TypeId) {
        if child == parent {
            return;
        }
        let node = &mut self.types[child.index()];
        if !node.parents.contains(&parent) {
            node.parents.push(parent);
            self.types[parent.index()].children.push(child);
        }
    }

    /// Removes a `child ⊆ parent` edge if present (used to model catalog
    /// incompleteness). Returns true if an edge was removed.
    pub fn remove_subtype(&mut self, child: TypeId, parent: TypeId) -> bool {
        let node = &mut self.types[child.index()];
        let before = node.parents.len();
        node.parents.retain(|&p| p != parent);
        if node.parents.len() != before {
            self.types[parent.index()].children.retain(|&c| c != child);
            true
        } else {
            false
        }
    }

    /// Adds an entity with canonical name, extra lemmas, and direct types.
    pub fn add_entity<S: Into<String>>(
        &mut self,
        name: S,
        extra_lemmas: &[&str],
        direct_types: &[TypeId],
    ) -> Result<EntityId, CatalogError> {
        let name = name.into();
        if self.entity_by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateName { kind: "entity", name });
        }
        let id = EntityId::from_index(self.entities.len());
        let mut lemmas = Vec::with_capacity(1 + extra_lemmas.len());
        lemmas.push(name.clone());
        for l in extra_lemmas {
            if !lemmas.iter().any(|x| x == l) {
                lemmas.push(l.to_string());
            }
        }
        self.entities.push(Entity {
            name: name.clone(),
            lemmas,
            direct_types: direct_types.to_vec(),
        });
        self.entity_by_name.insert(name, id);
        Ok(id)
    }

    /// Adds an extra lemma to an existing entity.
    pub fn add_entity_lemma(&mut self, e: EntityId, lemma: &str) {
        let ent = &mut self.entities[e.index()];
        if !ent.lemmas.iter().any(|l| l == lemma) {
            ent.lemmas.push(lemma.to_string());
        }
    }

    /// Adds a direct `∈` edge from an entity to a type.
    pub fn add_instance(&mut self, e: EntityId, t: TypeId) {
        let ent = &mut self.entities[e.index()];
        if !ent.direct_types.contains(&t) {
            ent.direct_types.push(t);
        }
    }

    /// Removes a direct `∈` edge (catalog-incompleteness modelling).
    /// Returns true if an edge was removed.
    pub fn remove_instance(&mut self, e: EntityId, t: TypeId) -> bool {
        let ent = &mut self.entities[e.index()];
        let before = ent.direct_types.len();
        ent.direct_types.retain(|&x| x != t);
        ent.direct_types.len() != before
    }

    /// Declares a relation `name(left_type, right_type)` with a cardinality.
    pub fn add_relation<S: Into<String>>(
        &mut self,
        name: S,
        left_type: TypeId,
        right_type: TypeId,
        cardinality: Cardinality,
    ) -> Result<RelationId, CatalogError> {
        let name = name.into();
        if self.relation_by_name.contains_key(&name) {
            return Err(CatalogError::DuplicateName { kind: "relation", name });
        }
        let id = RelationId::from_index(self.relations.len());
        self.relations.push(RelationDraft {
            name: name.clone(),
            left_type,
            right_type,
            cardinality,
            tuples: Vec::new(),
        });
        self.relation_by_name.insert(name, id);
        Ok(id)
    }

    /// Appends a tuple `B(e1, e2)` to a relation's extension.
    pub fn add_tuple(&mut self, b: RelationId, e1: EntityId, e2: EntityId) {
        self.relations[b.index()].tuples.push((e1, e2));
    }

    /// Validates the accumulated data and produces an immutable [`Catalog`].
    ///
    /// Validation: the type graph must be acyclic; entities must reference
    /// existing types; relation tuples must reference existing entities and
    /// (unless [`CatalogBuilder::allow_schema_violations`] was called) be
    /// instances of the schema types. A synthetic root type is added when the
    /// hierarchy does not already have a unique top element, and every
    /// parentless type (and typeless entity) is attached to it.
    pub fn finish(mut self) -> Result<Catalog, CatalogError> {
        self.check_references()?;
        self.ensure_root();
        self.check_acyclic()?;
        Catalog::from_parts(
            self.types,
            self.type_by_name,
            self.entities,
            self.entity_by_name,
            self.relations.into_iter().map(build_relation).collect(),
            self.relation_by_name,
            self.strict_schemas,
        )
    }

    fn ensure_root(&mut self) {
        let parentless: Vec<TypeId> = (0..self.types.len())
            .map(TypeId::from_index)
            .filter(|t| self.types[t.index()].parents.is_empty())
            .collect();
        let root = if parentless.len() == 1 && !self.type_by_name.contains_key(ROOT_TYPE_NAME) {
            // A unique existing top element serves as the root.
            return;
        } else if let Some(&r) = self.type_by_name.get(ROOT_TYPE_NAME) {
            r
        } else {
            let id = TypeId::from_index(self.types.len());
            self.types.push(TypeNode {
                name: ROOT_TYPE_NAME.to_string(),
                lemmas: vec![ROOT_TYPE_NAME.to_string()],
                parents: Vec::new(),
                children: Vec::new(),
            });
            self.type_by_name.insert(ROOT_TYPE_NAME.to_string(), id);
            id
        };
        for t in parentless {
            if t != root {
                self.add_subtype(t, root);
            }
        }
        // Entities with no direct type become direct instances of the root.
        for e in &mut self.entities {
            if e.direct_types.is_empty() {
                e.direct_types.push(root);
            }
        }
    }

    fn check_references(&self) -> Result<(), CatalogError> {
        let (num_types, num_entities) = (self.types.len(), self.entities.len());
        for ent in &self.entities {
            if let Some(t) = ent.direct_types.iter().find(|t| t.index() >= num_types) {
                let detail = format!("id {} (a direct type of `{}`)", t.raw(), ent.name);
                return Err(CatalogError::UnknownType(detail));
            }
        }
        for rel in &self.relations {
            let schema = [rel.left_type, rel.right_type];
            if let Some(t) = schema.iter().find(|t| t.index() >= num_types) {
                let detail = format!("id {} (in the schema of `{}`)", t.raw(), rel.name);
                return Err(CatalogError::UnknownType(detail));
            }
            let mut members = rel.tuples.iter().flat_map(|&(e1, e2)| [e1, e2]);
            if let Some(e) = members.find(|e| e.index() >= num_entities) {
                let detail = format!("id {} (in a tuple of `{}`)", e.raw(), rel.name);
                return Err(CatalogError::UnknownEntity(detail));
            }
        }
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), CatalogError> {
        // Kahn's algorithm over child → parent edges.
        let n = self.types.len();
        let mut indeg = vec![0usize; n]; // number of children pointing at me? we
                                         // topologically sort over parent edges:
                                         // indeg[t] = number of parents of t.
        for t in &self.types {
            let _ = t;
        }
        for (i, t) in self.types.iter().enumerate() {
            indeg[i] = t.parents.len();
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &c in &self.types[i].children {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c.index());
                }
            }
        }
        if seen != n {
            // Find a type still carrying in-degree for the error message.
            let bad = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(CatalogError::CyclicTypeHierarchy {
                type_name: self.types[bad].name.clone(),
            });
        }
        Ok(())
    }
}

fn build_relation(d: RelationDraft) -> Relation {
    let mut by_left: HashMap<EntityId, Vec<EntityId>> = HashMap::new();
    let mut by_right: HashMap<EntityId, Vec<EntityId>> = HashMap::new();
    let mut tuples = Vec::with_capacity(d.tuples.len());
    for (e1, e2) in d.tuples {
        let rights = by_left.entry(e1).or_default();
        match rights.binary_search(&e2) {
            Ok(_) => continue, // duplicate tuple
            Err(pos) => rights.insert(pos, e2),
        }
        let lefts = by_right.entry(e2).or_default();
        if let Err(pos) = lefts.binary_search(&e1) {
            lefts.insert(pos, e1);
        }
        tuples.push((e1, e2));
    }
    Relation {
        name: d.name,
        left_type: d.left_type,
        right_type: d.right_type,
        cardinality: d.cardinality,
        tuples,
        by_left,
        by_right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CatalogBuilder::new();
        b.add_type("person", &[]).unwrap();
        assert!(matches!(
            b.add_type("person", &[]),
            Err(CatalogError::DuplicateName { kind: "type", .. })
        ));
        let t = b.type_id("person").unwrap();
        b.add_entity("Alice", &[], &[t]).unwrap();
        assert!(b.add_entity("Alice", &[], &[t]).is_err());
    }

    #[test]
    fn cycles_are_detected() {
        let mut b = CatalogBuilder::new();
        let a = b.add_type("a", &[]).unwrap();
        let c = b.add_type("b", &[]).unwrap();
        b.add_subtype(a, c);
        b.add_subtype(c, a);
        assert!(matches!(b.finish(), Err(CatalogError::CyclicTypeHierarchy { .. })));
    }

    #[test]
    fn dangling_ids_are_rejected() {
        let mut b = CatalogBuilder::new();
        let t = b.add_type("t", &[]).unwrap();
        b.add_entity("x", &[], &[TypeId(7)]).unwrap();
        assert!(matches!(b.finish(), Err(CatalogError::UnknownType(_))));
        let mut b = CatalogBuilder::new();
        b.add_type("t", &[]).unwrap();
        let r = b.add_relation("r", t, TypeId(7), Cardinality::ManyToMany).unwrap();
        assert!(matches!(b.finish(), Err(CatalogError::UnknownType(_))));
        let mut b = CatalogBuilder::new();
        b.add_type("t", &[]).unwrap();
        b.add_relation("r", t, t, Cardinality::ManyToMany).unwrap();
        b.add_tuple(r, EntityId(0), EntityId(0));
        assert!(matches!(b.finish(), Err(CatalogError::UnknownEntity(_))));
    }

    #[test]
    fn self_subtype_edges_are_ignored() {
        let mut b = CatalogBuilder::new();
        let a = b.add_type("a", &[]).unwrap();
        b.add_subtype(a, a);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn root_is_synthesized_for_forests() {
        let mut b = CatalogBuilder::new();
        let a = b.add_type("a", &[]).unwrap();
        let c = b.add_type("b", &[]).unwrap();
        b.add_entity("x", &[], &[a]).unwrap();
        b.add_entity("y", &[], &[c]).unwrap();
        let cat = b.finish().unwrap();
        let root = cat.root();
        assert_eq!(cat.type_name(root), ROOT_TYPE_NAME);
        // Both original types reach the root.
        assert!(cat.is_subtype(a, root));
        assert!(cat.is_subtype(c, root));
    }

    #[test]
    fn unique_top_type_becomes_root_without_synthesis() {
        let mut b = CatalogBuilder::new();
        let top = b.add_type("thing", &[]).unwrap();
        let a = b.add_type("a", &[]).unwrap();
        b.add_subtype(a, top);
        let cat = b.finish().unwrap();
        assert_eq!(cat.root(), top);
        assert_eq!(cat.num_types(), 2);
    }

    #[test]
    fn duplicate_tuples_are_deduplicated() {
        let mut b = CatalogBuilder::new();
        let t = b.add_type("t", &[]).unwrap();
        let e1 = b.add_entity("x", &[], &[t]).unwrap();
        let e2 = b.add_entity("y", &[], &[t]).unwrap();
        let r = b.add_relation("rel", t, t, Cardinality::ManyToMany).unwrap();
        b.add_tuple(r, e1, e2);
        b.add_tuple(r, e1, e2);
        let cat = b.finish().unwrap();
        assert_eq!(cat.relation(r).tuples.len(), 1);
    }

    #[test]
    fn remove_edges_work() {
        let mut b = CatalogBuilder::new();
        let top = b.add_type("top", &[]).unwrap();
        let sub = b.add_type("sub", &[]).unwrap();
        b.add_subtype(sub, top);
        assert!(b.remove_subtype(sub, top));
        assert!(!b.remove_subtype(sub, top));
        let e = b.add_entity("x", &[], &[sub]).unwrap();
        assert!(b.remove_instance(e, sub));
        assert!(!b.remove_instance(e, sub));
    }
}
