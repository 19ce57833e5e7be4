//! Human-readable schema naming.
//!
//! Research question (ii) of the paper asks for "shapes and names that can be
//! easily understood and used". Class names come from the majority
//! `rdf:type` object of the class's subjects; classes without type triples
//! fall back to their most characteristic property. Column names are the
//! predicate's local name. Everything is sanitized into unique SQL
//! identifiers so the schema can be exported to the SQL toolchain unmodified.

use crate::cs::Profile;
use crate::types::EmergentSchema;
use sordf_model::{vocab, Dictionary, FxHashMap, FxHashSet, Oid, Term};

/// Turn an arbitrary string into a SQL-safe identifier (lowercase,
/// `[a-z0-9_]`, starts with a letter, non-empty).
pub fn sanitize_identifier(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_underscore = false;
    for c in s.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
            last_underscore = false;
        } else if !last_underscore && !out.is_empty() {
            out.push('_');
            last_underscore = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("unnamed");
    }
    if out.as_bytes()[0].is_ascii_digit() {
        out.insert_str(0, "t_");
    }
    out
}

/// Make `name` unique w.r.t. `used`, appending `_2`, `_3`, … as needed.
fn uniquify(name: String, used: &mut FxHashSet<String>) -> String {
    if used.insert(name.clone()) {
        return name;
    }
    for i in 2.. {
        let candidate = format!("{name}_{i}");
        if used.insert(candidate.clone()) {
            return candidate;
        }
    }
    unreachable!()
}

/// Fill in class and column names. `class_of` holds each profiled
/// subject's class index (`u32::MAX`: none).
pub(crate) fn assign_names(
    schema: &mut EmergentSchema,
    profile: &Profile,
    class_of: &[u32],
    dict: &Dictionary,
) {
    let type_pred = dict.iri_oid(vocab::RDF_TYPE);
    schema.type_pred = type_pred;

    // Majority rdf:type object per class, from each subject's type group.
    let mut type_counts: Vec<FxHashMap<Oid, u64>> = schema
        .classes
        .iter()
        .map(|_| FxHashMap::default())
        .collect();
    if let Some(tp) = type_pred {
        for (ord, &ci) in class_of.iter().enumerate() {
            let Some(counts) = type_counts.get_mut(ci as usize) else {
                continue;
            };
            let run = profile.range(ord as u32);
            let types = &run[run.partition_point(|t| t.p < tp)..];
            for t in types.iter().take_while(|t| t.p == tp) {
                if t.o.is_iri() {
                    *counts.entry(t.o).or_insert(0) += 1;
                }
            }
        }
    }

    let mut used_tables = FxHashSet::default();
    for (ci, counts) in type_counts.iter().enumerate() {
        // Candidate from rdf:type.
        let from_type = counts
            .iter()
            .max_by_key(|&(o, &n)| (n, u64::MAX - o.raw()))
            .and_then(|(&o, _)| dict.iri_str(o).ok())
            .map(|iri| Term::local_name(&iri).to_string());
        // Fallback: most-present non-type property.
        let fallback = {
            let c = &schema.classes[ci];
            c.columns
                .iter()
                .filter(|col| Some(col.pred) != type_pred)
                .max_by(|a, b| a.presence.partial_cmp(&b.presence).unwrap())
                .map(|col| col.pred)
                .or_else(|| c.multi_props.first().map(|m| m.pred))
                .and_then(|p| dict.iri_str(p).ok())
                .map(|iri| format!("cs_{}", Term::local_name(&iri)))
        };
        let raw = from_type.or(fallback).unwrap_or_else(|| format!("cs{ci}"));
        schema.classes[ci].name = uniquify(sanitize_identifier(&raw), &mut used_tables);

        // Column names.
        let mut used_cols: FxHashSet<String> = FxHashSet::default();
        used_cols.insert("subject".to_string()); // reserved implicit column
        let class = &mut schema.classes[ci];
        for col in class.columns.iter_mut() {
            let raw = if Some(col.pred) == type_pred {
                "type".to_string()
            } else {
                dict.iri_str(col.pred)
                    .map(|iri| Term::local_name(&iri).to_string())
                    .unwrap_or_default()
            };
            col.name = uniquify(sanitize_identifier(&raw), &mut used_cols);
        }
        for mp in class.multi_props.iter_mut() {
            let raw = dict
                .iri_str(mp.pred)
                .map(|iri| Term::local_name(&iri).to_string())
                .unwrap_or_default();
            mp.name = uniquify(sanitize_identifier(&raw), &mut used_cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitization() {
        assert_eq!(sanitize_identifier("InProceeding"), "inproceeding");
        assert_eq!(sanitize_identifier("has-author!"), "has_author");
        assert_eq!(sanitize_identifier("2010data"), "t_2010data");
        assert_eq!(sanitize_identifier("--"), "unnamed");
        assert_eq!(sanitize_identifier("a  b"), "a_b");
    }

    #[test]
    fn uniquify_appends_counters() {
        let mut used = FxHashSet::default();
        assert_eq!(uniquify("x".into(), &mut used), "x");
        assert_eq!(uniquify("x".into(), &mut used), "x_2");
        assert_eq!(uniquify("x".into(), &mut used), "x_3");
    }
}
