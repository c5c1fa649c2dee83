//! `scale_mix`: anchored reads and small update batches on a
//! 10⁶-triple SP2B world that the server loads from a `.qps` snapshot.
//!
//! A round is 14 `POST /eval` reads and 2 update batches. Reads are
//! 1–3-edge queries anchored at a skewed choice of authors; two of them
//! also ask for the provenance of a known result.
//! Update batch `u` inserts the 8 triples of set `u mod 4` (two fresh
//! papers by anchored authors) and deletes set `(u - 2) mod 4`, so the
//! world's size stays level. The mix, the read shapes, the anchor skew
//! and the batch size are assumptions, not taken from a published
//! workload or a trace (see README.md).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use questpro_data::{scale_stream, ScaleConfig, ScaleItem, ScaleWorld};
use questpro_graph::TripleDelta;
use questpro_query::{sparql, UnionQuery};
use questpro_store::{StoreBuilder, TripleStore};
use questpro_wire::Json;

use crate::client::{closed_loop, Request, Response, Script as ScriptTrait};
use crate::layers;
use crate::oracle::{Id, Query, Triple, World};
use crate::report::{Measured, Report, ServerView, MAIN, SIDE};
use crate::rng::Rng;
use crate::server::{Metrics, Server};
use crate::Settings;

/// The world's name on the server (the snapshot's file stem).
const NAME: &str = "scale";
/// Generator seed of the world; the run seed picks the operations.
const WORLD_SEED: u64 = 0x5ca1e;
/// Triples inserted (and later deleted) per update batch.
const BATCH: usize = 8;

struct Read {
    query: Query,
    parsed: UnionQuery,
    /// A result of the base world whose provenance is asked for.
    provenance: Option<Id>,
    request: Request,
}

struct Inputs {
    base_triples: usize,
    reads: Vec<Read>,
    /// The four insert sets, as label triples.
    sets: Vec<Vec<[String; 3]>>,
    /// The round: `None` is an update, `Some(i)` read `i`.
    round: Vec<Option<usize>>,
}

impl Inputs {
    /// Update batch `u` as a delta: insert set `u % 4`, delete set
    /// `(u - 2) % 4` from the third batch on.
    fn delta(&self, u: u64) -> TripleDelta {
        TripleDelta {
            inserts: self.sets[(u % 4) as usize].clone(),
            deletes: if u >= 2 {
                self.sets[((u - 2) % 4) as usize].clone()
            } else {
                Vec::new()
            },
        }
    }

    fn update_request(&self, u: u64) -> Request {
        let rows = |v: &[[String; 3]]| {
            Json::Arr(
                v.iter()
                    .map(|t| Json::Arr(t.iter().map(|x| Json::str(x.clone())).collect()))
                    .collect(),
            )
        };
        let d = self.delta(u);
        let mut pairs = vec![("insert", rows(&d.inserts))];
        if !d.deletes.is_empty() {
            pairs.push(("delete", rows(&d.deletes)));
        }
        Request::new(
            SIDE,
            "POST",
            &format!("/ontologies/{NAME}/update"),
            &Json::obj(pairs).to_text(),
        )
    }
}

/// A skewed author id in `1..authors`: low ids are drawn far more often.
/// Author 0, the generator's hub with thousands of papers, is left out:
/// a co-author read anchored there takes about a minute, longer than a
/// run. It belongs in the mix again once that is fixed.
fn skewed_author(rng: &mut Rng, authors: u64) -> u64 {
    let u = rng.unit();
    1 + ((authors - 2) as f64 * u * u * u) as u64
}

/// Generates the world into a snapshot file and the checker, and the
/// round's operations.
fn inputs(
    s: &Settings,
    triples: u64,
    snapshot: &std::path::Path,
) -> Result<(Inputs, World), String> {
    let mut builder = StoreBuilder::new();
    let mut w = World::default();
    stream_into(triples, &mut builder, Some(&mut w))?;
    w.freeze();
    let store = builder.build().map_err(|e| format!("store build: {e}"))?;
    std::fs::write(snapshot, questpro_store::encode(&store))
        .map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let authors = (triples / 5).max(8);
    let mut rng = Rng::new(s.seed, 0x5ca1e);
    // 14 reads: six 1-edge, four 2-edge, two 3-edge, and two 2-edge
    // reads that also ask for provenance.
    let shapes = [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4];
    let mut reads = Vec::new();
    let mut anchors = Vec::new();
    for shape in shapes {
        loop {
            let a = format!("author{}", skewed_author(&mut rng, authors));
            let text = match shape {
                1 => format!("SELECT ?p WHERE {{ ?p :creator :{a} . }}"),
                3 => format!(
                    "SELECT ?j WHERE {{ ?p :creator :{a} . ?p :journal ?j . ?p :year ?y . }}"
                ),
                _ => format!("SELECT ?c WHERE {{ ?p :creator :{a} . ?p :creator ?c . }}"),
            };
            let query = Query::parse(&text)?;
            let answers: Vec<Id> = query.answers(&w).into_iter().collect();
            if answers.is_empty() {
                continue; // an author with no paper: draw again
            }
            let provenance = (shape == 4).then(|| answers[rng.below(answers.len())]);
            let mut body = vec![
                ("ontology", Json::str(NAME)),
                ("query", Json::str(text.clone())),
            ];
            if let Some(r) = provenance {
                body.push(("provenance", Json::str(w.name(r))));
                body.push(("limit", Json::from(4u64)));
            }
            let parsed = sparql::parse_union(&text).map_err(|e| format!("{text}: {e}"))?;
            let request = Request::new(MAIN, "POST", "/eval", &Json::obj(body).to_text());
            reads.push(Read {
                query,
                parsed,
                provenance,
                request,
            });
            anchors.push(a);
            break;
        }
    }
    // Each insert set: two papers, each by two of the reads' anchors,
    // with a journal and a year, so reads see the updates.
    let sets = (0..4)
        .map(|k| {
            let mut set = Vec::new();
            for j in 0..2 {
                let paper = format!("upd{k}_paper{j}");
                let first = 4 * k + 2 * j;
                let a1 = &anchors[first % anchors.len()];
                let a2 = (first + 1..first + anchors.len())
                    .map(|i| &anchors[i % anchors.len()])
                    .find(|a| *a != a1)
                    .unwrap_or(a1);
                set.push([paper.clone(), "creator".into(), a1.clone()]);
                set.push([paper.clone(), "creator".into(), a2.clone()]);
                set.push([
                    paper.clone(),
                    "journal".into(),
                    format!("journal{}", rng.below(20)),
                ]);
                set.push([paper, "year".into(), format!("y{}", 1950 + rng.below(70))]);
            }
            set
        })
        .collect::<Vec<_>>();
    debug_assert!(sets.iter().all(|s| s.len() == BATCH));
    let mut round: Vec<Option<usize>> = (0..reads.len()).map(Some).collect();
    rng.shuffle(&mut round);
    round.insert(0, None);
    round.insert(8, None);
    Ok((
        Inputs {
            base_triples: w.triple_count(),
            reads,
            sets,
            round,
        },
        w,
    ))
}

/// Streams the world into a store builder and, when given, the checker.
fn stream_into(
    triples: u64,
    b: &mut StoreBuilder,
    mut w: Option<&mut World>,
) -> Result<(), String> {
    for item in scale_stream(&ScaleConfig {
        world: ScaleWorld::Sp2b,
        triples,
        seed: WORLD_SEED,
    }) {
        match item {
            ScaleItem::Triple { s, p, o } => {
                b.add_triple(&s, &p, &o);
                if let Some(w) = w.as_deref_mut() {
                    w.add(&s, &p, &o);
                }
            }
            ScaleItem::Type { node, ty } => {
                b.add_type(&node, &ty).map_err(|e| format!("store: {e}"))?;
                if let Some(w) = w.as_deref_mut() {
                    w.add_node(&node);
                }
            }
        }
    }
    Ok(())
}

struct Script<'a> {
    inp: &'a Inputs,
    w: &'a mut World,
    deadline: Instant,
    trace: bool,
    queue: Vec<Option<usize>>,
    rounds: u64,
    /// When each round began.
    round_starts: Vec<Instant>,
    /// The operation whose reply is awaited: a read, or `None` for an
    /// update.
    current: Option<usize>,
    /// Batches acknowledged so far; the next update is batch `acked`.
    acked: u64,
    eval_results: u64,
    bodies: Vec<String>,
}

impl<'a> Script<'a> {
    fn check_read(&mut self, i: usize, resp: &Response) -> Result<(), String> {
        let read = &self.inp.reads[i];
        if resp.status != 200 {
            return Err(format!("/eval status {}: {}", resp.status, resp.text()));
        }
        let body = questpro_wire::parse(resp.text()).map_err(|e| format!("/eval reply: {e}"))?;
        let results = body
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("/eval reply without results")?;
        let mut got = BTreeSet::new();
        for r in results {
            let v = r.as_str().ok_or("non-string result")?;
            got.insert(
                self.w
                    .id(v)
                    .ok_or_else(|| format!("unknown result {v:?}"))?,
            );
        }
        self.eval_results += got.len() as u64;
        let want = read.query.answers(self.w);
        if got != want {
            return Err(format!(
                "/eval answers differ from the checker's ({} vs {} results)",
                got.len(),
                want.len()
            ));
        }
        if let Some(r) = read.provenance {
            let graphs = body
                .get("provenance")
                .and_then(Json::as_arr)
                .ok_or("no provenance in the reply")?;
            if graphs.is_empty() {
                return Err("empty provenance for a result".into());
            }
            for g in graphs {
                let mut edges: Vec<Triple> = Vec::new();
                for e in g
                    .get("edges")
                    .and_then(Json::as_arr)
                    .ok_or("provenance without edges")?
                {
                    let t: Vec<&str> = e
                        .as_arr()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(Json::as_str)
                        .collect();
                    let ids: Option<Vec<Id>> = t.iter().map(|x| self.w.id(x)).collect();
                    match ids.as_deref() {
                        Some(&[s, p, o]) => edges.push([s, p, o]),
                        _ => return Err(format!("bad provenance edge {t:?}")),
                    }
                }
                if !read.query.is_image(self.w, r, &edges) {
                    return Err(format!(
                        "a provenance graph of {} is not a match of the query",
                        self.w.name(r)
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_update(&mut self, resp: &Response) -> Result<(), String> {
        let u = self.acked;
        if resp.status != 200 {
            return Err(format!("update status {}: {}", resp.status, resp.text()));
        }
        let body = questpro_wire::parse(resp.text()).map_err(|e| format!("update reply: {e}"))?;
        let num = |k: &str| body.get(k).and_then(Json::as_u64);
        let live = BATCH as u64 * (u + 1).min(2);
        let want = [
            ("version", u + 2),
            ("inserted", BATCH as u64),
            ("deleted", if u >= 2 { BATCH as u64 } else { 0 }),
            ("edges", self.inp.base_triples as u64 + live),
        ];
        for (k, v) in want {
            if num(k) != Some(v) {
                return Err(format!("update {u}: {k} is {:?}, expected {v}", num(k)));
            }
        }
        apply(self.w, &self.inp.delta(u))?;
        self.acked += 1;
        Ok(())
    }
}

fn apply(w: &mut World, d: &TripleDelta) -> Result<(), String> {
    for [s, p, o] in &d.deletes {
        w.delete(s, p, o)?;
    }
    for [s, p, o] in &d.inserts {
        w.insert(s, p, o)?;
    }
    Ok(())
}

impl ScriptTrait for Script<'_> {
    fn next(&mut self) -> Option<Request> {
        if self.queue.is_empty() {
            if Instant::now() >= self.deadline {
                return None;
            }
            self.queue = self.inp.round.iter().rev().copied().collect();
            self.rounds += 1;
            self.round_starts.push(Instant::now());
        }
        self.current = self.queue.pop().expect("refilled above");
        Some(match self.current {
            Some(i) => self.inp.reads[i].request.clone(),
            None => self.inp.update_request(self.acked),
        })
    }

    fn reply(&mut self, _req: &Request, resp: Response, _ms: f64) -> Result<(), String> {
        if self.trace && self.bodies.len() < 200 {
            self.bodies.push(resp.text().to_string());
        }
        match self.current {
            Some(i) => self.check_read(i, &resp),
            None => self.check_update(&resp),
        }
    }
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Report, String> {
    let triples = if s.smoke { 20_000 } else { 1_000_000 };
    let snapshot = s.work_dir.join(format!("{NAME}.qps"));
    let t = Instant::now();
    let (inp, mut w) = inputs(s, triples, &snapshot)?;
    eprintln!(
        "scale_mix: {} triples, snapshot and checker built in {:.2} s",
        inp.base_triples,
        t.elapsed().as_secs_f64()
    );
    let log = s.work_dir.join("server-scale_mix.log");
    let args = vec!["--store".to_string(), snapshot.display().to_string()];
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..s.setups() {
        if let Some(old) = server.take() {
            old.shutdown()?;
        }
        let t = Instant::now();
        let srv = Server::spawn(&s.server, &args, &log)?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(srv);
    }
    let server = server.expect("at least one set-up");
    let mut conn = server.connect()?;
    let io = |e: std::io::Error| format!("client: {e}");
    let mut script = Script {
        inp: &inp,
        w: &mut w,
        deadline: Instant::now() + Duration::from_secs_f64(s.warmup()),
        trace: false,
        queue: Vec::new(),
        rounds: 0,
        round_starts: Vec::new(),
        current: None,
        acked: 0,
        eval_results: 0,
        bodies: Vec::new(),
    };
    let warm = closed_loop(&mut conn, &mut script).map_err(io)?;
    let before = s.trace.then(|| server.metrics()).transpose()?;
    let t = Instant::now();
    script.deadline = t + Duration::from_secs_f64(s.seconds);
    script.trace = s.trace;
    script.rounds = 0;
    script.round_starts.clear();
    script.eval_results = 0;
    let tally = closed_loop(&mut conn, &mut script).map_err(io)?;
    let after = s.trace.then(|| server.metrics()).transpose()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;
    eprintln!(
        "scale_mix: {} whole rounds, {} updates acknowledged",
        script.rounds, script.acked
    );

    let mut failures = warm.failures.clone();
    failures.extend(tally.failures.iter().cloned());
    let measured = Measured {
        setup_s,
        peak_rss_mb,
        start: t,
        round_starts: script.round_starts.clone(),
        ops: tally.replies.clone(),
        requests_per_op: 1.0,
        tally,
    };
    let mut report = Report::new(
        &measured,
        warm.attempted + measured.tally.attempted,
        failures,
    );
    if let (Some(before), Some(after)) = (before, after) {
        let delta = Metrics::delta(&before, &after);
        ServerView {
            delta: &delta,
            after: &after,
            tally: &measured.tally,
            routes: ["POST /eval", "POST /ontologies/:name/update"],
            sessions: 0.0,
            eval_results: script.eval_results as f64,
        }
        .add_to(&mut report);
        let bodies = std::mem::take(&mut script.bodies);
        drop(script);
        in_process(&mut report, &inp, triples, &bodies)?;
    }
    Ok(report)
}

/// The traced run's in-process layer timings on the same inputs.
fn in_process(
    r: &mut Report,
    inp: &Inputs,
    triples: u64,
    replies: &[String],
) -> Result<(), String> {
    let mut bodies: Vec<String> = Vec::new();
    for op in &inp.round {
        let req = match op {
            Some(i) => inp.reads[*i].request.clone(),
            None => inp.update_request(2),
        };
        let text = String::from_utf8(req.bytes).map_err(|e| e.to_string())?;
        bodies.push(text.split("\r\n\r\n").nth(1).unwrap_or("").to_string());
    }
    bodies.extend(replies.iter().cloned());
    layers::wire(r, &bodies)?;
    // The text form the snapshot replaces: what a cold start by
    // `triples::parse` would cost.
    let mut text = String::new();
    for item in scale_stream(&ScaleConfig {
        world: ScaleWorld::Sp2b,
        triples,
        seed: WORLD_SEED,
    }) {
        match item {
            ScaleItem::Triple { s, p, o } => text.push_str(&format!("{s} {p} {o}\n")),
            ScaleItem::Type { node, ty } => text.push_str(&format!("@type {node} {ty}\n")),
        }
    }
    drop(layers::graph_parse(r, &[&text])?);
    drop(text);
    r.layer(
        "feedback.start_ms",
        0.0,
        "ms",
        "no sessions on this workload",
    );
    r.layer(
        "feedback.answer_ms",
        0.0,
        "ms",
        "no sessions on this workload",
    );
    r.layer(
        "feedback.target_recovered",
        0.0,
        "ratio",
        "no sessions on this workload",
    );
    let ont = layers::store(r, 1, &|_| -> Result<TripleStore, String> {
        let mut b = StoreBuilder::new();
        stream_into(triples, &mut b, None)?;
        b.build().map_err(|e| format!("store build: {e}"))
    })?
    .pop()
    .expect("one world");
    let cases: Vec<_> = inp.reads.iter().map(|rd| (&ont, &rd.parsed)).collect();
    layers::engine(r, &cases);
    let batches: Vec<TripleDelta> = (0..6).map(|u| inp.delta(u)).collect();
    layers::graph_delta(r, &ont, &batches)?;
    Ok(())
}
