//! The traced run's in-process timings: the benchmark calls each crate's
//! public functions on the run's own generated inputs and times them.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use questpro_graph::{triples, Ontology, TripleDelta};
use questpro_query::UnionQuery;
use questpro_store::TripleStore;

use crate::oracle::{Id, World};
use crate::report::Report;
use crate::stats;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `wire.parse_us` and `wire.encode_us`: `questpro_wire::parse` and
/// `Json::to_text` over request and response bodies of the run.
pub fn wire(r: &mut Report, bodies: &[String]) -> Result<(), String> {
    let (mut parse, mut encode) = (0.0, 0.0);
    for b in bodies {
        let t = Instant::now();
        let v = questpro_wire::parse(black_box(b)).map_err(|e| format!("body is not JSON: {e}"))?;
        parse += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(v.to_text());
        encode += t.elapsed().as_secs_f64();
    }
    let n = bodies.len().max(1) as f64;
    let note = format!("mean over {} bodies", bodies.len());
    r.layer("wire.parse_us", parse * 1e6 / n, "us", note.clone());
    r.layer("wire.encode_us", encode * 1e6 / n, "us", note);
    Ok(())
}

/// `engine.evaluate_ms` and `engine.provenance_ms`: `evaluate_union` on
/// each query over its world, and `provenance_of_union` for its first
/// result (limit 8).
pub fn engine(r: &mut Report, cases: &[(&Ontology, &UnionQuery)]) {
    let (mut eval, mut prov, mut provs) = (0.0, 0.0, 0usize);
    for &(ont, q) in cases {
        let t = Instant::now();
        let res = questpro_engine::evaluate_union(ont, black_box(q));
        eval += ms_since(t);
        if let Some(&first) = res.iter().next() {
            let t = Instant::now();
            black_box(questpro_engine::provenance_of_union(ont, q, first, Some(8)));
            prov += ms_since(t);
            provs += 1;
        }
    }
    r.layer(
        "engine.evaluate_ms",
        eval / cases.len().max(1) as f64,
        "ms",
        format!("mean over {} queries", cases.len()),
    );
    r.layer(
        "engine.provenance_ms",
        prov / provs.max(1) as f64,
        "ms",
        format!("mean over {provs} results"),
    );
}

/// `graph.parse_ms`: `triples::parse` of the run's triple texts (their
/// total). Returns the parsed worlds.
pub fn graph_parse(r: &mut Report, texts: &[&str]) -> Result<Vec<Ontology>, String> {
    let t = Instant::now();
    let worlds = texts
        .iter()
        .map(|text| triples::parse(text).map_err(|e| format!("triples::parse: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    r.layer(
        "graph.parse_ms",
        ms_since(t),
        "ms",
        format!("{} world(s)", texts.len()),
    );
    Ok(worlds)
}

/// `graph.apply_delta_ms`: `Ontology::apply_delta` for each batch in
/// turn, starting from `ont`.
pub fn graph_delta(r: &mut Report, ont: &Ontology, batches: &[TripleDelta]) -> Result<(), String> {
    let t = Instant::now();
    let mut head: Option<Ontology> = None;
    for b in batches {
        let base = head.as_ref().unwrap_or(ont);
        let (next, _) = base
            .apply_delta(b)
            .map_err(|e| format!("apply_delta: {e}"))?;
        head = Some(next);
    }
    r.layer(
        "graph.apply_delta_ms",
        ms_since(t) / batches.len().max(1) as f64,
        "ms",
        format!("mean over {} batches", batches.len()),
    );
    Ok(())
}

/// `store.build_ms`, `store.snapshot_mb`, `store.decode_ms` and
/// `store.assemble_ms`: the offline build of each world (`build(i)`), its
/// encoding, and the cold start that reads it back, summed over the
/// worlds. Returns the assembled ontologies.
pub fn store(
    r: &mut Report,
    worlds: usize,
    build: &dyn Fn(usize) -> Result<TripleStore, String>,
) -> Result<Vec<Ontology>, String> {
    let (mut build_ms, mut mb, mut decode_ms, mut assemble_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut triples = 0;
    let mut onts = Vec::new();
    for i in 0..worlds {
        let t = Instant::now();
        let built = build(i)?;
        let bytes = questpro_store::encode(&built);
        build_ms += ms_since(t);
        triples += built.triple_count();
        drop(built);
        mb += bytes.len() as f64 / f64::from(1u32 << 20);
        let t = Instant::now();
        let decoded = questpro_store::decode(&bytes).map_err(|e| format!("decode: {e}"))?;
        decode_ms += ms_since(t);
        let t = Instant::now();
        onts.push(
            decoded
                .to_ontology()
                .map_err(|e| format!("to_ontology: {e}"))?,
        );
        assemble_ms += ms_since(t);
    }
    let note = format!("{worlds} world(s), {triples} triples");
    r.layer("store.build_ms", build_ms, "ms", note.clone());
    r.layer("store.snapshot_mb", mb, "MB", note);
    r.layer("store.decode_ms", decode_ms, "ms", "questpro_store::decode");
    r.layer(
        "store.assemble_ms",
        assemble_ms,
        "ms",
        "TripleStore::to_ontology",
    );
    Ok(onts)
}

/// One in-process interactive session: its examples, and the simulated
/// user, who answers *yes* exactly for the target's answers.
pub struct SessionCase<'a> {
    /// The world the session runs on.
    pub ont: &'a Ontology,
    /// Example-set text.
    pub examples: &'a str,
    /// Session seed.
    pub seed: u64,
    /// At most this many questions are answered.
    pub max_answers: usize,
    /// The checker's copy of the world.
    pub world: &'a World,
    /// The target query's answers in it.
    pub target: &'a BTreeSet<Id>,
}

/// What one in-process session did.
pub struct Replay {
    /// `InteractiveSession::start`, in ms.
    pub start_ms: f64,
    /// Each `answer`, in ms.
    pub answer_ms: Vec<f64>,
    /// The user's verdict on each shown result.
    pub verdicts: Vec<(Id, bool)>,
    /// The final query, once the session is done.
    pub final_query: Option<String>,
}

/// Runs one session in-process with refinement on, the configuration
/// `POST /sessions` uses by default.
pub fn replay(c: &SessionCase<'_>) -> Result<Replay, String> {
    use questpro_feedback::session::{InteractiveSession, SessionConfig};
    let cfg = SessionConfig {
        refine: true,
        ..SessionConfig::default()
    };
    let examples = questpro_graph::exformat::parse_examples(c.ont, c.examples)
        .map_err(|e| format!("examples: {e}"))?;
    let t = Instant::now();
    let mut s = InteractiveSession::start(c.ont, &examples, &cfg, c.seed)
        .map_err(|e| format!("session start: {e}"))?;
    let mut out = Replay {
        start_ms: ms_since(t),
        answer_ms: Vec::new(),
        verdicts: Vec::new(),
        final_query: None,
    };
    while out.verdicts.len() < c.max_answers {
        let Some(p) = s.pending() else { break };
        let shown = c.ont.value_str(p.result());
        let id = c
            .world
            .id(shown)
            .ok_or_else(|| format!("unknown node {shown:?}"))?;
        let yes = c.target.contains(&id);
        let t = Instant::now();
        s.answer(c.ont, yes)
            .map_err(|e| format!("session answer: {e}"))?;
        out.answer_ms.push(ms_since(t));
        out.verdicts.push((id, yes));
    }
    out.final_query = s.final_query().map(questpro_query::sparql::format_union);
    Ok(out)
}

/// `feedback.start_ms` and `feedback.answer_ms`: means over the replays.
pub fn feedback(r: &mut Report, replays: &[Replay]) {
    let answers: Vec<f64> = replays
        .iter()
        .flat_map(|p| p.answer_ms.iter().copied())
        .collect();
    let starts: Vec<f64> = replays.iter().map(|p| p.start_ms).collect();
    r.layer(
        "feedback.start_ms",
        stats::mean(&starts),
        "ms",
        format!(
            "InteractiveSession::start, mean over {} sessions",
            starts.len()
        ),
    );
    r.layer(
        "feedback.answer_ms",
        stats::mean(&answers),
        "ms",
        format!("answer, mean over {} answers", answers.len()),
    );
}
