//! Line-oriented TSV persistence for catalogs.
//!
//! The format is deliberately simple and diff-friendly (one record per
//! line, tab-separated fields, `|`-joined lemma lists). Special characters
//! inside names/lemmas (`\t`, `\n`, `|`, `%`) are percent-escaped. The
//! reader decodes any `%XX` to a byte and requires UTF-8 of the result, so
//! files from other tools may escape more (`caf%C3%A9` reads as `café`).
//!
//! ```text
//! #webtable-catalog v1
//! T   <id> <name> <lemma|lemma|...>
//! TP  <type id> <parent type id>
//! E   <id> <name> <lemma|lemma|...>
//! ET  <entity id> <type id>
//! R   <id> <name> <left type id> <right type id> <cardinality>
//! RT  <relation id> <left entity id> <right entity id>
//! ```
//!
//! Records must appear in the above kind-order; ids must be dense and in
//! ascending order within a kind (this is what the writer produces). So
//! every id a record references names a record read above it; any other
//! id is a parse error at its line.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::CatalogBuilder;
use crate::catalog::Catalog;
use crate::error::CatalogError;
use crate::ids::{EntityId, RelationId, TypeId};
use crate::schema::Cardinality;

const HEADER: &str = "#webtable-catalog v1";

/// Percent-escapes the characters that would break the line format.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '|' => out.push_str("%7C"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Each `%XX` (exactly two ASCII hex digits) decodes
/// to one byte, and the decoded bytes must form UTF-8, so a file from
/// another tool may escape a multi-byte char byte by byte (`caf%C3%A9`).
fn unescape(s: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s.as_bytes();
    while let Some(at) = rest.iter().position(|&b| b == b'%') {
        out.extend_from_slice(&rest[..at]);
        let hex = rest.get(at + 1..at + 3).ok_or("truncated escape")?;
        // `to_digit` takes no sign, unlike `u8::from_str_radix`.
        match ((hex[0] as char).to_digit(16), (hex[1] as char).to_digit(16)) {
            (Some(hi), Some(lo)) => out.push((hi << 4 | lo) as u8),
            _ => return Err(format!("bad escape %{}", String::from_utf8_lossy(hex))),
        }
        rest = &rest[at + 3..];
    }
    out.extend_from_slice(rest);
    String::from_utf8(out).map_err(|_| "escapes decode to invalid UTF-8".to_string())
}

/// Serializes a catalog to a writer in the v1 TSV format.
pub fn write_catalog<W: Write>(cat: &Catalog, w: W) -> Result<(), CatalogError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{HEADER}")?;
    for t in cat.type_ids() {
        let node = cat.type_node(t);
        let lemmas: Vec<String> = node.lemmas.iter().map(|l| escape(l)).collect();
        writeln!(w, "T\t{}\t{}\t{}", t.raw(), escape(&node.name), lemmas.join("|"))?;
    }
    for t in cat.type_ids() {
        for &p in cat.parents(t) {
            writeln!(w, "TP\t{}\t{}", t.raw(), p.raw())?;
        }
    }
    for e in cat.entity_ids() {
        let ent = cat.entity(e);
        let lemmas: Vec<String> = ent.lemmas.iter().map(|l| escape(l)).collect();
        writeln!(w, "E\t{}\t{}\t{}", e.raw(), escape(&ent.name), lemmas.join("|"))?;
    }
    for e in cat.entity_ids() {
        for &t in &cat.entity(e).direct_types {
            writeln!(w, "ET\t{}\t{}", e.raw(), t.raw())?;
        }
    }
    for b in cat.relation_ids() {
        let rel = cat.relation(b);
        writeln!(
            w,
            "R\t{}\t{}\t{}\t{}\t{}",
            b.raw(),
            escape(&rel.name),
            rel.left_type.raw(),
            rel.right_type.raw(),
            rel.cardinality.as_token()
        )?;
    }
    for b in cat.relation_ids() {
        for &(e1, e2) in &cat.relation(b).tuples {
            writeln!(w, "RT\t{}\t{}\t{}", b.raw(), e1.raw(), e2.raw())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Deserializes a catalog from a reader in the v1 TSV format.
///
/// Schema checking is relaxed on load: a persisted catalog may legitimately
/// be incomplete (missing `∈` links), which is part of what the paper
/// models.
pub fn read_catalog<R: Read>(r: R) -> Result<Catalog, CatalogError> {
    let r = BufReader::new(r);
    let mut b = CatalogBuilder::new();
    b.allow_schema_violations();
    let mut lines = r.lines();
    let first =
        lines.next().ok_or(CatalogError::Parse { line: 1, detail: "empty file".into() })??;
    if first.trim() != HEADER {
        return Err(CatalogError::Parse { line: 1, detail: format!("bad header `{first}`") });
    }
    let parse_err = |line: usize, detail: String| CatalogError::Parse { line, detail };
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let parse_u32 = |s: &str| -> Result<u32, CatalogError> {
            s.parse::<u32>().map_err(|_| parse_err(lineno, format!("bad id `{s}`")))
        };
        // A reference to a record of `kind`, of which `count` are read so far.
        let parse_ref = |s: &str, kind: &str, count: usize| -> Result<u32, CatalogError> {
            let id = parse_u32(s)?;
            if id as usize >= count {
                return Err(parse_err(lineno, format!("unknown {kind} id {id}")));
            }
            Ok(id)
        };
        match fields[0] {
            "T" => {
                if fields.len() != 4 {
                    return Err(parse_err(lineno, "T record needs 4 fields".into()));
                }
                let id = parse_u32(fields[1])?;
                let name = unescape(fields[2]).map_err(|e| parse_err(lineno, e))?;
                let lemmas: Result<Vec<String>, _> = fields[3].split('|').map(unescape).collect();
                let lemmas = lemmas.map_err(|e| parse_err(lineno, e))?;
                let tid = b.add_type(name, &[])?;
                if tid.raw() != id {
                    return Err(parse_err(lineno, format!("non-dense type id {id}")));
                }
                for l in lemmas.iter().skip(1) {
                    b.add_type_lemma(tid, l);
                }
            }
            "TP" => {
                if fields.len() != 3 {
                    return Err(parse_err(lineno, "TP record needs 3 fields".into()));
                }
                let child = parse_ref(fields[1], "type", b.num_types())?;
                let parent = parse_ref(fields[2], "type", b.num_types())?;
                b.add_subtype(TypeId(child), TypeId(parent));
            }
            "E" => {
                if fields.len() != 4 {
                    return Err(parse_err(lineno, "E record needs 4 fields".into()));
                }
                let id = parse_u32(fields[1])?;
                let name = unescape(fields[2]).map_err(|e| parse_err(lineno, e))?;
                let lemmas: Result<Vec<String>, _> = fields[3].split('|').map(unescape).collect();
                let lemmas = lemmas.map_err(|e| parse_err(lineno, e))?;
                let eid = b.add_entity(name, &[], &[])?;
                if eid.raw() != id {
                    return Err(parse_err(lineno, format!("non-dense entity id {id}")));
                }
                for l in lemmas.iter().skip(1) {
                    b.add_entity_lemma(eid, l);
                }
            }
            "ET" => {
                if fields.len() != 3 {
                    return Err(parse_err(lineno, "ET record needs 3 fields".into()));
                }
                let e = parse_ref(fields[1], "entity", b.num_entities())?;
                let t = parse_ref(fields[2], "type", b.num_types())?;
                b.add_instance(EntityId(e), TypeId(t));
            }
            "R" => {
                if fields.len() != 6 {
                    return Err(parse_err(lineno, "R record needs 6 fields".into()));
                }
                let id = parse_u32(fields[1])?;
                let name = unescape(fields[2]).map_err(|e| parse_err(lineno, e))?;
                let card = Cardinality::from_token(fields[5])
                    .ok_or_else(|| parse_err(lineno, format!("bad cardinality `{}`", fields[5])))?;
                let left = parse_ref(fields[3], "type", b.num_types())?;
                let right = parse_ref(fields[4], "type", b.num_types())?;
                let rid = b.add_relation(name, TypeId(left), TypeId(right), card)?;
                if rid.raw() != id {
                    return Err(parse_err(lineno, format!("non-dense relation id {id}")));
                }
            }
            "RT" => {
                if fields.len() != 4 {
                    return Err(parse_err(lineno, "RT record needs 4 fields".into()));
                }
                let rid = parse_ref(fields[1], "relation", b.num_relations())?;
                let e1 = parse_ref(fields[2], "entity", b.num_entities())?;
                let e2 = parse_ref(fields[3], "entity", b.num_entities())?;
                b.add_tuple(RelationId(rid), EntityId(e1), EntityId(e2));
            }
            other => {
                return Err(parse_err(lineno, format!("unknown record kind `{other}`")));
            }
        }
    }
    b.finish()
}

/// Convenience wrapper: serialize to a file path.
pub fn save_catalog<P: AsRef<Path>>(cat: &Catalog, path: P) -> Result<(), CatalogError> {
    let f = std::fs::File::create(path)?;
    write_catalog(cat, f)
}

/// Convenience wrapper: deserialize from a file path.
pub fn load_catalog<P: AsRef<Path>>(path: P) -> Result<Catalog, CatalogError> {
    let f = std::fs::File::open(path)?;
    read_catalog(f)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::CatalogBuilder;

    fn sample() -> Catalog {
        let mut b = CatalogBuilder::new();
        let person = b.add_type("person", &["human", "people"]).unwrap();
        let movie = b.add_type("movie", &["film"]).unwrap();
        let actor = b.add_type("actor", &[]).unwrap();
        b.add_subtype(actor, person);
        let e1 = b.add_entity("Weird|Name\tWith%Specials", &["alias one"], &[actor]).unwrap();
        let e2 = b.add_entity("A Film", &[], &[movie]).unwrap();
        let r = b.add_relation("actedIn", movie, actor, Cardinality::ManyToMany).unwrap();
        b.add_tuple(r, e2, e1);
        b.finish().unwrap()
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "with|pipe", "with\ttab", "with%percent", "mix|%\t|", "ünïcode"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
    }

    #[test]
    fn catalog_round_trips_through_tsv() {
        let cat = sample();
        let mut buf = Vec::new();
        write_catalog(&cat, &mut buf).unwrap();
        let cat2 = read_catalog(&buf[..]).unwrap();
        assert_eq!(cat2.num_types(), cat.num_types());
        assert_eq!(cat2.num_entities(), cat.num_entities());
        assert_eq!(cat2.num_relations(), cat.num_relations());
        let e = cat2.entity_named("Weird|Name\tWith%Specials").unwrap();
        assert_eq!(cat2.entity_lemmas(e)[1], "alias one");
        let actor = cat2.type_named("actor").unwrap();
        assert!(cat2.is_instance(e, actor));
        let person = cat2.type_named("person").unwrap();
        assert!(cat2.is_instance(e, person));
        let r = cat2.relation_named("actedIn").unwrap();
        assert_eq!(cat2.relation(r).tuples.len(), 1);
        assert_eq!(cat2.relation(r).cardinality, Cardinality::ManyToMany);
    }

    #[test]
    fn bad_header_is_rejected() {
        let res = read_catalog(&b"not a catalog\n"[..]);
        assert!(matches!(res, Err(CatalogError::Parse { line: 1, .. })));
    }

    #[test]
    fn unknown_record_kind_is_rejected() {
        let data = format!("{HEADER}\nXX\t1\n");
        let res = read_catalog(data.as_bytes());
        assert!(matches!(res, Err(CatalogError::Parse { line: 2, .. })));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cat = sample();
        let mut buf = Vec::new();
        write_catalog(&cat, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n# trailing comment\n\n");
        assert!(read_catalog(text.as_bytes()).is_ok());
    }

    fn sample_tsv() -> Vec<u8> {
        let mut buf = Vec::new();
        write_catalog(&sample(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn out_of_range_ids_are_parse_errors_at_their_line() {
        let valid = sample_tsv();
        let last_line = valid.iter().filter(|&&b| b == b'\n').count();
        let records = [
            "TP\t999\t0",
            "TP\t0\t999",
            "ET\t999\t0",
            "ET\t0\t999",
            "R\t1\tr\t0\t999\tN:N",
            "RT\t7\t0\t0",
            "RT\t0\t999\t0",
            "RT\t0\t0\t999",
        ];
        for record in records {
            let mut text = valid.clone();
            text.extend_from_slice(format!("{record}\n").as_bytes());
            match read_catalog(&text[..]) {
                Err(CatalogError::Parse { line, detail }) => {
                    assert_eq!(line, last_line + 1, "{record}: {detail}");
                    assert!(detail.starts_with("unknown "), "{record}: {detail}");
                }
                other => panic!("{record}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn escapes_that_split_a_char_are_parse_errors() {
        let text = format!("{HEADER}\nT\t0\t%aé\tx\n");
        assert!(matches!(read_catalog(text.as_bytes()), Err(CatalogError::Parse { line: 2, .. })));
    }

    #[test]
    fn escapes_decode_to_bytes_then_utf8() {
        assert_eq!(unescape("caf%C3%A9").unwrap(), "café");
        assert_eq!(unescape("caf%c3%a9|%25").unwrap(), "café|%");
        let text = format!("{HEADER}\nT\t0\tcaf%C3%A9\tcaf%C3%A9s\n");
        let cat = read_catalog(text.as_bytes()).unwrap();
        let t = cat.type_named("café").unwrap();
        assert_eq!(cat.type_node(t).name.len(), 5);
    }

    #[test]
    fn escapes_need_two_ascii_hex_digits() {
        for bad in ["%+1", "%1+", "%-1", "% 1", "%g0", "%0x", "%1", "%"] {
            assert!(unescape(bad).is_err(), "{bad}");
            let text = format!("{HEADER}\nT\t0\t{bad}\tx\n");
            let res = read_catalog(text.as_bytes());
            assert!(matches!(res, Err(CatalogError::Parse { line: 2, .. })), "{bad}: {res:?}");
        }
    }

    #[test]
    fn escapes_that_are_not_utf8_are_parse_errors() {
        for bad in ["%C3", "caf%C3", "%FF", "%C3%28", "%E2%82"] {
            assert!(unescape(bad).is_err(), "{bad}");
            let text = format!("{HEADER}\nT\t0\tt\tx\nE\t0\t{bad}\ty\n");
            let res = read_catalog(text.as_bytes());
            assert!(matches!(res, Err(CatalogError::Parse { line: 3, .. })), "{bad}: {res:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_read_or_fail_typed(
            bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            // A panic fails the test; any `Result` is a pass.
            let _ = read_catalog(&bytes[..]);
        }

        #[test]
        fn mutated_catalogs_read_or_fail_typed(
            inserts in proptest::collection::vec((any::<usize>(), 0usize..12), 0..4),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            keep in any::<usize>(),
        ) {
            let mut bytes = sample_tsv();
            for (at, which) in inserts {
                bytes.insert(at % (bytes.len() + 1), b"\t\n0123456789"[which]);
            }
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            bytes.truncate(keep % (bytes.len() + 1));
            let _ = read_catalog(&bytes[..]);
        }
    }
}
