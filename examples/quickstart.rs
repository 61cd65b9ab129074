//! Quickstart: the paper's Figure 1 scenario, end to end.
//!
//! Builds the miniature book/person catalog of Figure 1 by hand, then
//! annotates the ambiguous table (`Title`/`written by`) that motivates the
//! whole system: "Uncle Albert" is a book, not the physicist, and the
//! column type is *book title*, not *movie* or *album*.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use webtable::catalog::{Cardinality, CatalogBuilder};
use webtable::core::{AnnotateRequest, Annotator, TableCandidates, TableModel};
use webtable::tables::{Table, TableId};

fn main() {
    // --- The catalog of Figure 1 ---------------------------------------
    let mut b = CatalogBuilder::new();
    let entity = b.add_type("entity", &[]).unwrap();
    let person = b.add_type("person", &["people"]).unwrap();
    let physicist = b.add_type("physicist", &[]).unwrap();
    let writer = b.add_type("writer", &["author"]).unwrap();
    let book = b.add_type("book", &["title", "novel"]).unwrap();
    let movie = b.add_type("movie", &["film", "title"]).unwrap();
    for (sub, sup) in
        [(person, entity), (physicist, person), (writer, person), (book, entity), (movie, entity)]
    {
        b.add_subtype(sub, sup);
    }

    let einstein = b
        .add_entity("Albert Einstein", &["A. Einstein", "Einstein"], &[physicist, writer])
        .unwrap();
    let stannard = b.add_entity("Russell Stannard", &["Stannard"], &[writer]).unwrap();
    let doxiadis = b.add_entity("Apostolos Doxiadis", &["A. Doxiadis"], &[writer]).unwrap();
    let b94 = b.add_entity("The Time and Space of Uncle Albert", &[], &[book]).unwrap();
    let b95 = b.add_entity("Uncle Albert and the Quantum Quest", &[], &[book]).unwrap();
    let b41 = b
        .add_entity("Relativity: The Special and the General Theory", &["Relativity"], &[book])
        .unwrap();
    let b96 =
        b.add_entity("Uncle Petros and Goldbach's Conjecture", &["Uncle Petros"], &[book]).unwrap();
    // A decoy movie sharing a title fragment, as in the figure's caption.
    b.add_entity("Uncle Albert (film)", &["Uncle Albert"], &[movie]).unwrap();

    let writes = b.add_relation("writes", book, writer, Cardinality::ManyToOne).unwrap();
    b.add_tuple(writes, b94, stannard);
    b.add_tuple(writes, b95, stannard);
    b.add_tuple(writes, b41, einstein);
    b.add_tuple(writes, b96, doxiadis);
    let catalog = Arc::new(b.finish().unwrap());

    // --- The table of Figure 1 -----------------------------------------
    let table = Table::new(
        TableId(1),
        "books and who wrote them",
        vec![Some("Title".into()), Some("written by".into())],
        vec![
            vec!["Uncle Albert and the Quantum Quest".into(), "Russell Stannard".into()],
            vec!["Relativity: The Special and the General Theory".into(), "A. Einstein".into()],
            vec!["Uncle Petros and the Goldbach conjecture".into(), "A. Doxiadis".into()],
        ],
    );

    // --- Annotate through the front door ---------------------------------
    // One request, one response: `Annotator::run` is the single execution
    // entry point. A request scales from this one table to a corpus by
    // swapping the slice and adding `.workers(n)`.
    let annotator = Annotator::new(Arc::clone(&catalog));
    let model_view = {
        let cands = TableCandidates::build(&catalog, &annotator.index, &table, &annotator.config);
        let model =
            TableModel::build(&catalog, &annotator.config, &annotator.weights, &table, cands);
        model.describe()
    };
    let response = annotator.run(&AnnotateRequest::one(&table));
    let ann = &response.annotations[0];

    println!("The graphical model (cf. Figure 10):\n  {model_view}\n");
    println!("Column types:");
    for c in 0..table.num_cols() {
        let label = ann.column_types[&c]
            .map(|t| catalog.type_name(t).to_string())
            .unwrap_or_else(|| "na".into());
        println!("  column {c} ({:?})\t→ {label}", table.header(c).unwrap_or("-"));
    }
    println!("\nCell entities:");
    for r in 0..table.num_rows() {
        for c in 0..table.num_cols() {
            let label = ann.cell_entities[&(r, c)]
                .map(|e| catalog.entity_name(e).to_string())
                .unwrap_or_else(|| "na".into());
            println!("  ({r},{c}) {:40} → {label}", table.cell(r, c));
        }
    }
    println!("\nColumn-pair relations:");
    for (&(c1, c2), rel) in &ann.relations {
        let label =
            rel.map(|b| catalog.relation_name(b).to_string()).unwrap_or_else(|| "na".into());
        println!("  ({c1} → {c2}) → {label}");
    }
    println!("\nBP converged after {} sweeps (paper: ~3).", ann.bp_iterations);
    println!(
        "annotated {} table in {} µs (candidates {} µs).",
        response.stats.tables,
        response.stats.timings.total_us,
        response.stats.timings.candidates_us
    );
}
