//! The data-directory manifest: what a serving generation is made of.
//!
//! A data directory holds everything `webtable-serve` needs:
//!
//! ```text
//! data/
//!   MANIFEST            <- this file: which generation to serve
//!   catalog.tsv         <- the catalog (webtable_catalog::io format)
//!   index.snap          <- the lemma-index snapshot (PR-4 format)
//!   tables-g1.json      <- corpus for generation 1 (wire JSON)
//!   tables-g2.json      <- corpus for generation 2 (after growth)
//! ```
//!
//! The manifest is a tiny line-oriented text file so that promoting a
//! new generation is one atomic file replace. Version 1 names one
//! monolithic index snapshot:
//!
//! ```text
//! webtable-manifest v1
//! generation 2
//! catalog catalog.tsv
//! index index.snap
//! tables tables-g2.json
//! ```
//!
//! Version 2 names one snapshot **per index segment** (repeated
//! `segment` lines, in catalog-slice order); a catalog delta is
//! published by appending one `segment` line instead of rewriting one
//! giant snapshot:
//!
//! ```text
//! webtable-manifest v2
//! generation 3
//! catalog catalog-g3.tsv
//! segment index.snap
//! segment segment-g3.snap
//! tables tables-g3.json
//! ```
//!
//! A v1 manifest loads as a single-segment catalog (bit-identical to
//! the pre-segmentation server); a single-segment manifest renders in
//! v1 form so older builds can still read what this one writes.
//!
//! `/admin/swap` re-reads the manifest; if its generation differs from
//! the one being served, the server rebuilds off the request path and
//! atomically publishes the result.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::ServeError;
use crate::fault::{self, FaultPoint};

/// The magic first line of a v1 (single monolithic index) manifest.
pub const MAGIC: &str = "webtable-manifest v1";
/// The magic first line of a v2 (segmented index) manifest.
pub const MAGIC_V2: &str = "webtable-manifest v2";
/// The manifest filename inside a data directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// The last manifest that produced a generation which actually built
/// and served. Written after every successful load; startup falls back
/// to it when `MANIFEST` is corrupt or its generation no longer loads.
pub const LAST_GOOD_FILE: &str = "MANIFEST.last-good";

/// A parsed manifest. Paths are relative to the data directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonically increasing generation number.
    pub generation: u64,
    /// Catalog TSV path.
    pub catalog: PathBuf,
    /// Lemma-index segment snapshot paths, in catalog-slice order. A v1
    /// manifest parses to exactly one entry (its `index` line).
    pub segments: Vec<PathBuf>,
    /// Corpus tables (wire JSON) path.
    pub tables: PathBuf,
}

impl Manifest {
    /// Parses the manifest text (v1 or v2; the magic line decides which
    /// index keys are legal).
    pub fn parse(text: &str) -> Result<Manifest, ServeError> {
        let mut lines = text.lines();
        let v2 = match lines.next().map(str::trim) {
            Some(m) if m == MAGIC => false,
            Some(m) if m == MAGIC_V2 => true,
            _ => {
                return Err(ServeError::Manifest(format!(
                    "missing magic line `{MAGIC}` or `{MAGIC_V2}`"
                )))
            }
        };
        let (mut generation, mut catalog, mut tables) = (None, None, None);
        let mut segments: Vec<PathBuf> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(' ') else {
                return Err(ServeError::Manifest(format!("malformed line `{line}`")));
            };
            let value = value.trim();
            match key {
                "generation" => {
                    generation =
                        Some(value.parse::<u64>().map_err(|_| {
                            ServeError::Manifest(format!("bad generation `{value}`"))
                        })?);
                }
                "catalog" => catalog = Some(PathBuf::from(value)),
                "tables" => tables = Some(PathBuf::from(value)),
                "index" if !v2 => {
                    if !segments.is_empty() {
                        return Err(ServeError::Manifest("duplicate `index` line".into()));
                    }
                    segments.push(PathBuf::from(value));
                }
                "segment" if v2 => segments.push(PathBuf::from(value)),
                "index" | "segment" => {
                    return Err(ServeError::Manifest(format!(
                        "key `{key}` is not valid in a {} manifest",
                        if v2 { "v2" } else { "v1" }
                    )))
                }
                _ => return Err(ServeError::Manifest(format!("unknown key `{key}`"))),
            }
        }
        let missing = |what: &str| ServeError::Manifest(format!("missing `{what}` line"));
        if segments.is_empty() {
            return Err(missing(if v2 { "segment" } else { "index" }));
        }
        Ok(Manifest {
            generation: generation.ok_or_else(|| missing("generation"))?,
            catalog: catalog.ok_or_else(|| missing("catalog"))?,
            segments,
            tables: tables.ok_or_else(|| missing("tables"))?,
        })
    }

    /// Renders the manifest text (inverse of [`parse`](Manifest::parse)).
    /// A single-segment manifest renders in v1 form — byte-identical to
    /// what the pre-segmentation server wrote, so older builds can read
    /// it; more than one segment requires v2.
    pub fn render(&self) -> String {
        if let [index] = self.segments.as_slice() {
            return format!(
                "{MAGIC}\ngeneration {}\ncatalog {}\nindex {}\ntables {}\n",
                self.generation,
                self.catalog.display(),
                index.display(),
                self.tables.display()
            );
        }
        let mut out = format!(
            "{MAGIC_V2}\ngeneration {}\ncatalog {}\n",
            self.generation,
            self.catalog.display()
        );
        for seg in &self.segments {
            out.push_str(&format!("segment {}\n", seg.display()));
        }
        out.push_str(&format!("tables {}\n", self.tables.display()));
        out
    }

    /// Reads `dir/MANIFEST`.
    pub fn load_dir(dir: &Path) -> Result<Manifest, ServeError> {
        Manifest::load_file(dir, MANIFEST_FILE)
    }

    /// Reads `dir/file_name` (fault point: `manifest_read`).
    pub fn load_file(dir: &Path, file_name: &str) -> Result<Manifest, ServeError> {
        let path = dir.join(file_name);
        let bytes = fault::read(FaultPoint::ManifestRead, &path).map_err(|source| {
            ServeError::Io { context: format!("reading {}", path.display()), source }
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| ServeError::Manifest(format!("{} is not UTF-8", path.display())))?;
        Manifest::parse(&text)
    }

    /// Writes `dir/MANIFEST` atomically, so a concurrent swap never
    /// observes a torn manifest. See [`save_as`](Manifest::save_as) for
    /// the crash-safety discipline.
    pub fn save_dir(&self, dir: &Path) -> Result<(), ServeError> {
        self.save_as(dir, MANIFEST_FILE)
    }

    /// Crash-safe promote to `dir/file_name`: write a uniquely named
    /// temp sibling, fsync it (the rename must never publish unflushed
    /// bytes), rename into place, then fsync the directory so the
    /// rename itself survives a power cut. On any failure the temp file
    /// is removed — a failed promote leaves the directory exactly as it
    /// was. Fault point: `manifest_rename`.
    pub fn save_as(&self, dir: &Path, file_name: &str) -> Result<(), ServeError> {
        let tmp = dir.join(format!("{file_name}.tmp.{}", std::process::id()));
        let path = dir.join(file_name);
        let promote = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.render().as_bytes())?;
            file.sync_all()?;
            drop(file);
            fault::hit(FaultPoint::ManifestRename)?;
            std::fs::rename(&tmp, &path)?;
            fsync_dir(dir)
        };
        promote().map_err(|source| {
            let _ = std::fs::remove_file(&tmp);
            ServeError::Io { context: format!("promoting {}", path.display()), source }
        })
    }
}

/// Fsyncs a directory so a just-completed rename inside it is durable.
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    std::fs::File::open(dir)?.sync_all()
}

/// Removes stale temp files (`*.tmp` / `*.tmp.*`) left behind by a
/// crash mid-promote or mid-snapshot-save. Returns what was removed,
/// sorted, so callers can log it. Never fails: an unreadable directory
/// simply cleans nothing.
pub fn cleanup_stale_tmp(dir: &Path) -> Vec<PathBuf> {
    let mut removed = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return removed };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if (name.contains(".tmp.") || name.ends_with(".tmp"))
            && std::fs::remove_file(entry.path()).is_ok()
        {
            removed.push(entry.path());
        }
    }
    removed.sort();
    removed
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let m = Manifest {
            generation: 7,
            catalog: "catalog.tsv".into(),
            segments: vec!["index.snap".into()],
            tables: "tables-g7.json".into(),
        };
        let rendered = m.render();
        assert!(rendered.starts_with(MAGIC), "one segment renders as v1");
        assert_eq!(Manifest::parse(&rendered).unwrap(), m);
    }

    #[test]
    fn v2_manifest_roundtrips_segment_order() {
        let m = Manifest {
            generation: 3,
            catalog: "catalog-g3.tsv".into(),
            segments: vec!["index.snap".into(), "segment-g2.snap".into(), "segment-g3.snap".into()],
            tables: "tables-g3.json".into(),
        };
        let rendered = m.render();
        assert!(rendered.starts_with(MAGIC_V2));
        assert_eq!(Manifest::parse(&rendered).unwrap(), m);
    }

    #[test]
    fn version_key_mismatches_are_rejected() {
        let v1_with_segment = format!("{MAGIC}\ngeneration 1\ncatalog c\nsegment s\ntables t\n");
        assert!(Manifest::parse(&v1_with_segment).is_err(), "v1 must not accept `segment`");
        let v2_with_index = format!("{MAGIC_V2}\ngeneration 1\ncatalog c\nindex i\ntables t\n");
        assert!(Manifest::parse(&v2_with_index).is_err(), "v2 must not accept `index`");
        let v1_dup_index =
            format!("{MAGIC}\ngeneration 1\ncatalog c\nindex i\nindex j\ntables t\n");
        assert!(Manifest::parse(&v1_dup_index).is_err(), "duplicate `index` is ambiguous");
        let v2_no_segments = format!("{MAGIC_V2}\ngeneration 1\ncatalog c\ntables t\n");
        assert!(Manifest::parse(&v2_no_segments).is_err(), "v2 needs >= 1 segment");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text =
            format!("{MAGIC}\n\n# promoted by ops\ngeneration 3\ncatalog c\nindex i\ntables t\n");
        assert_eq!(Manifest::parse(&text).unwrap().generation, 3);
    }

    #[test]
    fn missing_fields_and_bad_magic_are_rejected() {
        assert!(Manifest::parse("nope").is_err());
        let text = format!("{MAGIC}\ngeneration 1\ncatalog c\nindex i\n");
        let err = Manifest::parse(&text).unwrap_err();
        assert_eq!(err.code(), "manifest");
        assert!(err.to_string().contains("tables"));
        let text = format!("{MAGIC}\ngeneration x\ncatalog c\nindex i\ntables t\n");
        assert!(Manifest::parse(&text).is_err());
    }

    #[test]
    fn save_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("webtable-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            generation: 1,
            catalog: "c.tsv".into(),
            segments: vec!["i.snap".into()],
            tables: "t.json".into(),
        };
        m.save_dir(&dir).unwrap();
        assert_eq!(Manifest::load_dir(&dir).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_good_is_a_separate_file() {
        let dir = std::env::temp_dir().join(format!("webtable-lastgood-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            generation: 4,
            catalog: "c.tsv".into(),
            segments: vec!["i.snap".into()],
            tables: "t.json".into(),
        };
        m.save_as(&dir, LAST_GOOD_FILE).unwrap();
        assert!(Manifest::load_dir(&dir).is_err(), "MANIFEST itself untouched");
        assert_eq!(Manifest::load_file(&dir, LAST_GOOD_FILE).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_cleaned() {
        let dir = std::env::temp_dir().join(format!("webtable-staletmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST.tmp.999"), "torn").unwrap();
        std::fs::write(dir.join("index.snap.42.tmp"), "torn").unwrap();
        std::fs::write(dir.join("catalog.tsv"), "keep").unwrap();
        let removed = cleanup_stale_tmp(&dir);
        assert_eq!(removed.len(), 2, "{removed:?}");
        assert!(dir.join("catalog.tsv").exists(), "real files are untouched");
        assert!(!dir.join("MANIFEST.tmp.999").exists());
        assert!(cleanup_stale_tmp(&dir).is_empty(), "idempotent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every input must parse or fail as `ServeError::Manifest`.
    fn parses_or_fails_typed(bytes: &[u8]) -> Result<(), TestCaseError> {
        let text = String::from_utf8_lossy(bytes);
        let res = Manifest::parse(&text);
        prop_assert!(matches!(res, Ok(_) | Err(ServeError::Manifest(_))), "{res:?} for {text:?}");
        Ok(())
    }

    const VALID_V1: &str = "webtable-manifest v1\ngeneration 2\ncatalog catalog.tsv\n\
        index index.snap\ntables tables-g2.json\n";
    const VALID_V2: &str = "webtable-manifest v2\n# promoted\ngeneration 3\n\
        catalog catalog-g3.tsv\nsegment index.snap\nsegment segment-g3.snap\n\
        tables tables-g3.json\n";

    /// A non-empty path with no whitespace, so `render` → `parse` keeps it.
    fn arb_path() -> impl Strategy<Value = PathBuf> {
        "\\PC{1,16}".prop_map(|s| {
            PathBuf::from(
                s.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect::<String>(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_parse_or_fail_typed(
            bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            parses_or_fails_typed(&bytes)?;
        }

        #[test]
        fn mutated_manifests_parse_or_fail_typed(
            v2 in any::<bool>(),
            inserts in proptest::collection::vec((any::<usize>(), 0usize..13), 0..4),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            keep in any::<usize>(),
        ) {
            let mut bytes = if v2 { VALID_V2 } else { VALID_V1 }.as_bytes().to_vec();
            for (at, which) in inserts {
                bytes.insert(at % (bytes.len() + 1), b" \n#0123456789"[which]);
            }
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            bytes.truncate(keep % (bytes.len() + 1));
            parses_or_fails_typed(&bytes)?;
        }

        #[test]
        fn render_then_parse_round_trips(
            generation in any::<u64>(),
            catalog in arb_path(),
            segments in proptest::collection::vec(arb_path(), 1..9),
            tables in arb_path(),
        ) {
            let m = Manifest { generation, catalog, segments, tables };
            prop_assert_eq!(Manifest::parse(&m.render()).ok(), Some(m));
        }
    }
}
