//! Workspace smoke test: the fastest end-to-end pass through the facade.
//!
//! Catches manifest/workspace regressions (a crate dropped from the umbrella,
//! a broken re-export, a facade API rename) with one cheap test instead of
//! relying on the slower differential suites or doctests alone.

use sordf::Database;

const BOOKS: &str = r#"
<http://ex/book1> <http://ex/has_author> <http://ex/author1> .
<http://ex/book1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book1> <http://ex/isbn_no> "1-56619-909-3" .
<http://ex/book2> <http://ex/has_author> <http://ex/author2> .
<http://ex/book2> <http://ex/in_year> "1997"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book2> <http://ex/isbn_no> "1-56619-909-4" .
<http://ex/book3> <http://ex/has_author> <http://ex/author1> .
<http://ex/book3> <http://ex/in_year> "1998"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book3> <http://ex/isbn_no> "1-56619-909-5" .
"#;

#[test]
fn load_organize_query_sparql_and_sql() {
    let db = Database::in_temp_dir().unwrap();
    assert_eq!(db.load_ntriples(BOOKS).unwrap(), 9);
    assert_eq!(db.n_triples(), 9);

    let schema = db.self_organize().unwrap();
    assert_eq!(schema.classes.len(), 1, "books form one characteristic set");

    let sparql = db
        .query("SELECT ?b ?y WHERE { ?b <http://ex/in_year> ?y . ?b <http://ex/has_author> <http://ex/author1> . }")
        .unwrap();
    assert_eq!(sparql.len(), 2);

    let table = &db.schema().unwrap().classes[0].name;
    let sql = db
        .sql(&format!("SELECT in_year FROM {table} ORDER BY in_year"))
        .unwrap();
    assert_eq!(
        sql.canonical(&db.dict()),
        vec!["1996".to_string(), "1997".to_string(), "1998".to_string()]
    );
}

/// The umbrella crate must re-export every workspace library so downstream
/// code can reach any layer through one dependency.
#[test]
fn umbrella_reexports_every_crate() {
    // Touch one item per re-exported crate; compilation is the assertion.
    let _ = sordf_workspace::sordf_model::Term::iri("http://ex/x");
    let _ = sordf_workspace::sordf_schema::SchemaConfig::default();
    let _ = sordf_workspace::sordf_columnar::VALS_PER_PAGE;
    let _ = sordf_workspace::sordf_storage::TripleSet::new();
    let _ = sordf_workspace::sordf_engine::ExecConfig::default();
    let _ = sordf_workspace::sordf_sparql::parse_sparql;
    let _ = sordf_workspace::sordf_sql::compile_sql;
    let _ = sordf_workspace::sordf_rdfh::RdfhConfig::default();
    let _ = sordf_workspace::sordf_datagen::DirtyConfig::with_irregularity(0.0, 1);
    let _ = sordf_workspace::sordf::Database::in_temp_dir;
}
