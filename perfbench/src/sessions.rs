//! `sessions`: whole interactive sessions over HTTP on the three
//! default-scale worlds, the paper's use of the system.
//!
//! Each of the 25 catalog queries gets `SETS_PER_QUERY` example-sets of
//! up to five explanations, sampled by the checker with the fixed
//! [`EXAMPLE_SEED`]; the run seed orders the pass. One more session, the
//! [`KNOWN_FAULT`], ends on a wrong final query on every pass. A
//! simulated user answers every question *yes* exactly when the shown
//! result is an answer of the target query. Sessions are replayed in
//! whole passes, so a run's question and failure counts are whole
//! multiples of one pass's.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use questpro_data::{
    bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload, sp2b_workload,
    BsbmConfig, MoviesConfig, OntologyKind, Sp2bConfig,
};
use questpro_graph::{triples, Ontology};
use questpro_query::{sparql, UnionQuery};
use questpro_store::TripleStore;
use questpro_wire::Json;

use crate::client::{closed_loop, Request, Response, Sample, Script as ScriptTrait};
use crate::layers::{self, SessionCase};
use crate::oracle::{Id, Query, World};
use crate::report::{Measured, Report, ServerView, KNOWN_FAULT_TAG, MAIN, OTHER, SIDE};
use crate::rng::Rng;
use crate::server::Server;
use crate::Settings;

/// One world: its upload body and the checker's copy.
pub struct WorldIn {
    /// Name it is registered under.
    pub name: String,
    /// Triple text, as uploaded.
    pub text: String,
    /// `POST /ontologies` body.
    pub upload: String,
    /// The checker's copy.
    pub oracle: World,
}

impl WorldIn {
    /// Serializes `ont` and parses the text back into the checker.
    pub fn new(name: &str, ont: &Ontology) -> Result<WorldIn, String> {
        let text = triples::serialize(ont);
        let oracle = World::from_text(&text)?;
        let upload = Json::obj([
            ("name", Json::str(name)),
            ("triples", Json::str(text.clone())),
        ])
        .to_text();
        Ok(WorldIn {
            name: name.to_string(),
            text,
            upload,
            oracle,
        })
    }

    /// Registers the world with the server.
    pub fn upload(&self, server: &Server) -> Result<(), String> {
        let mut c = server.connect()?;
        let resp = c
            .call(&Request::new(OTHER, "POST", "/ontologies", &self.upload))
            .map_err(|e| format!("upload {}: {e}", self.name))?;
        if resp.status != 201 {
            return Err(format!(
                "upload {}: status {} {}",
                self.name,
                resp.status,
                resp.text()
            ));
        }
        Ok(())
    }
}

/// One session of the pass.
struct Spec {
    world: usize,
    query_id: &'static str,
    query: UnionQuery,
    target: BTreeSet<Id>,
    examples: String,
    seed: u64,
    dis: Vec<Id>,
    create: String,
    /// The [`KNOWN_FAULT`] session: its failed check is counted but
    /// does not make the run incorrect.
    known_fault: bool,
}

/// Samples an example-set for `target` with the checker: up to `n`
/// distinct results, each with one of its first eight provenance images.
pub fn sample_examples(
    w: &World,
    target: &Query,
    answers: &BTreeSet<Id>,
    n: usize,
    rng: &mut Rng,
) -> (String, Vec<Id>) {
    let mut results: Vec<Id> = answers.iter().copied().collect();
    rng.shuffle(&mut results);
    let mut text = String::new();
    let mut dis = Vec::new();
    for r in results {
        if dis.len() == n {
            break;
        }
        let imgs = target.images(w, r, 8);
        if imgs.is_empty() {
            continue;
        }
        let img = &imgs[rng.below(imgs.len())];
        if !text.is_empty() {
            text.push('\n');
        }
        text.push_str(&format!("dis {}\n", w.name(r)));
        for t in img {
            text.push_str(&format!(
                "{} {} {}\n",
                w.name(t[0]),
                w.name(t[1]),
                w.name(t[2])
            ));
        }
        dis.push(r);
    }
    (text, dis)
}

/// Example-sets per catalog query in one pass.
const SETS_PER_QUERY: usize = 8;

/// The seed the example-sets are drawn with. It is fixed, so every run
/// replays the same sessions and a failed session is a fault of the
/// program, not of a seed; the run seed only orders the pass.
const EXAMPLE_SEED: u64 = 1;

/// An example-set on which refinement ends with a final query that
/// excludes a result the user said *yes* to (`article_430`; see the
/// `FOUND` lines of CHANGES.md): target q2 on sp2b, the five
/// explanations [`sample_examples`] drew for seed 62 with 16 sets per
/// query, and its session seed. It runs once per pass, and its failed
/// check is counted in `failed`.
const KNOWN_FAULT: (&str, &str, u64) = (
    "q2",
    "dis article_97
article_12 creator author_186
article_12 journal journal_14
article_12 year year_1996
article_97 creator author_20
article_97 journal journal_6
article_97 year year_1994
article_97 cites article_12

dis article_428
article_97 creator author_20
article_97 journal journal_6
article_97 year year_1994
article_428 creator author_4
article_428 journal journal_11
article_428 year year_1998
article_428 cites article_97

dis article_508
article_90 creator author_15
article_90 journal journal_22
article_90 year year_2004
article_508 creator author_15
article_508 journal journal_5
article_508 year year_2010
article_508 cites article_90

dis article_563
article_426 creator author_23
article_426 journal journal_16
article_426 year year_2007
article_563 creator Paul_Erdos
article_563 journal journal_8
article_563 year year_2010
article_563 cites article_426

dis article_279
article_205 creator author_60
article_205 journal journal_14
article_205 year year_1995
article_279 creator author_5
article_279 journal journal_1
article_279 year year_2000
article_279 cites article_205
",
    2_195_670_845_002_447,
);

struct Inputs {
    worlds: Vec<WorldIn>,
    specs: Vec<Spec>,
}

/// Checks a finished session: its final query's answers (cached by
/// text) contain every example and agree with every verdict.
fn check_final<'c>(
    finals: &'c mut HashMap<(usize, String), BTreeSet<Id>>,
    w: &World,
    world: usize,
    fin: &str,
    dis: &[Id],
    verdicts: &[(Id, bool)],
) -> Result<&'c BTreeSet<Id>, String> {
    let key = (world, fin.to_string());
    if !finals.contains_key(&key) {
        let q = Query::parse(fin).map_err(|e| format!("final query does not parse: {e}"))?;
        finals.insert(key.clone(), q.answers(w));
    }
    let answers = &finals[&key];
    if let Some(&d) = dis.iter().find(|d| !answers.contains(d)) {
        return Err(format!("final query misses example {}", w.name(d)));
    }
    if let Some(&(r, v)) = verdicts.iter().find(|(r, v)| answers.contains(r) != *v) {
        return Err(format!(
            "final query disagrees with verdict {v} on {}",
            w.name(r)
        ));
    }
    Ok(answers)
}

fn inputs(s: &Settings) -> Result<Inputs, String> {
    let worlds = vec![
        WorldIn::new("bench_sp2b", &generate_sp2b(&Sp2bConfig::default()))?,
        WorldIn::new("bench_bsbm", &generate_bsbm(&BsbmConfig::default()))?,
        WorldIn::new("bench_movies", &generate_movies(&MoviesConfig::default()))?,
    ];
    let mut catalog = sp2b_workload();
    catalog.extend(bsbm_workload());
    catalog.extend(movie_workload());
    if s.smoke {
        // Two queries per world keep every code path in a smoke run.
        let mut per = HashMap::new();
        catalog.retain(|q| {
            let n = per.entry(q.kind as u8).or_insert(0);
            *n += 1;
            *n <= 2
        });
    }
    let sets = if s.smoke { 1 } else { SETS_PER_QUERY };
    let mut inp = Inputs {
        worlds,
        specs: Vec::new(),
    };
    for (i, q) in catalog.iter().enumerate() {
        let world = match q.kind {
            OntologyKind::Sp2b => 0,
            OntologyKind::Bsbm => 1,
            OntologyKind::Movies => 2,
        };
        let w = &inp.worlds[world].oracle;
        let target = Query::parse(&sparql::format_union(&q.query))?;
        let answers = target.answers(w);
        for k in 0..sets {
            let mut rng = Rng::new(EXAMPLE_SEED, 0x5e55 + (i * sets + k) as u64);
            let (examples, dis) = sample_examples(w, &target, &answers, 5, &mut rng);
            if dis.len() < 2 {
                return Err(format!(
                    "{}: fewer than two results to sample examples from",
                    q.id
                ));
            }
            let seed = rng.next_u64() >> 11;
            inp.specs
                .push(inp.spec(world, q, &answers, examples, seed, dis, false));
        }
        if q.id == KNOWN_FAULT.0 && world == 0 {
            let (_, examples, seed) = KNOWN_FAULT;
            let dis = examples
                .lines()
                .filter_map(|l| l.strip_prefix("dis "))
                .map(|n| {
                    w.id(n)
                        .ok_or_else(|| format!("known fault: unknown node {n}"))
                })
                .collect::<Result<Vec<Id>, String>>()?;
            inp.specs
                .push(inp.spec(world, q, &answers, examples.into(), seed, dis, true));
        }
    }
    Rng::new(s.seed, 0x0bde).shuffle(&mut inp.specs);
    Ok(inp)
}

impl Inputs {
    /// A session spec with its `POST /sessions` body.
    #[allow(clippy::too_many_arguments)]
    fn spec(
        &self,
        world: usize,
        q: &questpro_data::WorkloadQuery,
        answers: &BTreeSet<Id>,
        examples: String,
        seed: u64,
        dis: Vec<Id>,
        known_fault: bool,
    ) -> Spec {
        let create = Json::obj([
            ("ontology", Json::str(self.worlds[world].name.clone())),
            ("examples", Json::str(examples.clone())),
            ("refine", Json::Bool(true)),
            ("seed", Json::from(seed)),
        ])
        .to_text();
        Spec {
            world,
            query_id: q.id,
            query: q.query.clone(),
            target: answers.clone(),
            examples,
            seed,
            dis,
            create,
            known_fault,
        }
    }
}

/// Where the current session stands.
enum Step {
    /// Ready to start the next session of the pass.
    Free,
    /// A session is open; `answer` is the verdict to send next.
    Open {
        spec: usize,
        id: u64,
        t0: Instant,
        answer: bool,
        verdicts: Vec<(Id, bool)>,
    },
    /// Waiting for `POST /sessions`.
    Starting { spec: usize, t0: Instant },
    /// The session is over; delete it.
    Closing { id: u64 },
}

struct Script<'a> {
    inp: &'a Inputs,
    deadline: Instant,
    trace: bool,
    next: usize,
    passes: u64,
    /// When each pass began.
    round_starts: Vec<Instant>,
    step: Step,
    /// Each completed session, in completion order.
    sessions: Vec<Sample>,
    questions: u64,
    recovered: u64,
    finals: HashMap<(usize, String), BTreeSet<Id>>,
    bodies: Vec<String>,
}

impl<'a> Script<'a> {
    fn new(inp: &'a Inputs, deadline: Instant, trace: bool) -> Script<'a> {
        Script {
            inp,
            deadline,
            trace,
            next: inp.specs.len(),
            passes: 0,
            round_starts: Vec::new(),
            step: Step::Free,
            sessions: Vec::new(),
            questions: 0,
            recovered: 0,
            finals: HashMap::new(),
            bodies: Vec::new(),
        }
    }

    /// Reads a session state reply: answers the pending question, or
    /// checks the final query and closes the session.
    fn state(
        &mut self,
        spec: usize,
        id: u64,
        t0: Instant,
        mut verdicts: Vec<(Id, bool)>,
        body: &Json,
    ) -> Result<(), String> {
        let sp = &self.inp.specs[spec];
        let w = &self.inp.worlds[sp.world].oracle;
        match body.get("pending") {
            Some(Json::Obj(_)) => {
                let p = body.get("pending").expect("matched above");
                let shown = p
                    .get("result")
                    .and_then(Json::as_str)
                    .ok_or("question without a result")?;
                let r = w
                    .id(shown)
                    .ok_or_else(|| format!("question shows unknown node {shown:?}"))?;
                let yes = sp.target.contains(&r);
                verdicts.push((r, yes));
                self.step = Step::Open {
                    spec,
                    id,
                    t0,
                    answer: yes,
                    verdicts,
                };
                return Ok(());
            }
            Some(Json::Null) => {}
            _ => return Err("reply without a pending field".into()),
        }
        self.step = Step::Closing { id };
        let fin = body
            .get("final")
            .and_then(Json::as_str)
            .ok_or("session ended without a final query")?;
        if body.get("phase").and_then(Json::as_str) != Some("done") {
            return Err("no pending question but the phase is not done".into());
        }
        let answers = check_final(&mut self.finals, w, sp.world, fin, &sp.dis, &verdicts)?;
        if *answers == sp.target {
            self.recovered += 1;
        }
        let at = Instant::now();
        let ms = at.duration_since(t0).as_secs_f64() * 1e3;
        self.sessions.push(Sample {
            kind: MAIN,
            at,
            ms,
            bytes: 0,
        });
        self.questions += verdicts.len() as u64;
        Ok(())
    }
}

impl ScriptTrait for Script<'_> {
    fn next(&mut self) -> Option<Request> {
        match &self.step {
            Step::Free => {
                if self.next == self.inp.specs.len() {
                    if Instant::now() >= self.deadline {
                        return None;
                    }
                    self.next = 0;
                    self.passes += 1;
                    self.round_starts.push(Instant::now());
                }
                let spec = self.next;
                self.next += 1;
                self.step = Step::Starting {
                    spec,
                    t0: Instant::now(),
                };
                Some(Request::new(
                    MAIN,
                    "POST",
                    "/sessions",
                    &self.inp.specs[spec].create,
                ))
            }
            Step::Open { id, answer, .. } => Some(Request::new(
                SIDE,
                "POST",
                &format!("/sessions/{id}/feedback"),
                if *answer {
                    "{\"answer\":true}"
                } else {
                    "{\"answer\":false}"
                },
            )),
            Step::Closing { id } => Some(Request::new(
                OTHER,
                "DELETE",
                &format!("/sessions/{id}"),
                "",
            )),
            Step::Starting { .. } => unreachable!("a reply always follows a start"),
        }
    }

    fn reply(&mut self, req: &Request, resp: Response, _ms: f64) -> Result<(), String> {
        let step = std::mem::replace(&mut self.step, Step::Free);
        if req.kind == OTHER {
            return if resp.status == 204 {
                Ok(())
            } else {
                Err(format!("DELETE: status {}", resp.status))
            };
        }
        if self.trace && self.bodies.len() < 400 {
            self.bodies.push(resp.text().to_string());
        }
        let (spec, id, t0, verdicts) = match step {
            Step::Starting { spec, t0 } => (spec, None, t0, Vec::new()),
            Step::Open {
                spec,
                id,
                t0,
                verdicts,
                ..
            } => (spec, Some(id), t0, verdicts),
            _ => return Err("reply to no request".into()),
        };
        let want = if id.is_none() { 201 } else { 200 };
        let body = (resp.status == want)
            .then(|| questpro_wire::parse(resp.text()).ok())
            .flatten();
        let id = id.or_else(|| body.as_ref()?.get("id")?.as_u64());
        let result = match (&body, id) {
            (Some(b), Some(id)) => self.state(spec, id, t0, verdicts, b),
            _ => Err(format!(
                "status {} (want {want}): {}",
                resp.status,
                resp.text()
            )),
        };
        if let Err(e) = result {
            // Close what is open, then go on with the pass.
            if let Some(id) = id {
                self.step = Step::Closing { id };
            }
            let sp = &self.inp.specs[spec];
            let tag = if sp.known_fault { KNOWN_FAULT_TAG } else { "" };
            return Err(format!("{tag}{}: {e}", sp.query_id));
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Report, String> {
    let inp = inputs(s)?;
    eprintln!(
        "sessions: {} sessions per pass over {} worlds",
        inp.specs.len(),
        inp.worlds.len()
    );
    let log = s.work_dir.join("server-sessions.log");
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..s.setups() {
        if let Some(old) = server.take() {
            old.shutdown()?;
        }
        let t = Instant::now();
        let srv = Server::spawn(&s.server, &[], &log)?;
        for w in &inp.worlds {
            w.upload(&srv)?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(srv);
    }
    let server = server.expect("at least one set-up");
    let mut conn = server.connect()?;
    let io = |e: std::io::Error| format!("client: {e}");
    let mut warm = Script::new(
        &inp,
        Instant::now() + Duration::from_secs_f64(s.warmup()),
        false,
    );
    let warm_tally = closed_loop(&mut conn, &mut warm).map_err(io)?;
    let before = s.trace.then(|| server.metrics()).transpose()?;
    let t = Instant::now();
    let mut run = Script::new(&inp, t + Duration::from_secs_f64(s.seconds), s.trace);
    let tally = closed_loop(&mut conn, &mut run).map_err(io)?;
    let after = s.trace.then(|| server.metrics()).transpose()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;

    let sessions = run.sessions.len() as f64;
    let attempted = warm_tally.attempted + tally.attempted;
    let mut failures = warm_tally.failures.clone();
    failures.extend(tally.failures.iter().cloned());
    let measured = Measured {
        setup_s,
        peak_rss_mb,
        start: t,
        round_starts: run.round_starts.clone(),
        requests_per_op: ratio(sessions + run.questions as f64, sessions),
        ops: run.sessions.clone(),
        tally,
    };
    eprintln!(
        "sessions: {} whole passes, {} sessions, {} questions",
        run.passes, sessions, run.questions
    );
    let mut report = Report::new(&measured, attempted, failures);
    if let (Some(before), Some(after)) = (before, after) {
        let delta = crate::server::Metrics::delta(&before, &after);
        // Every session started, the known fault's too, ran inference
        // and was closed, so each wrote one telemetry record.
        let started = (run.passes as usize * inp.specs.len()) as f64;
        ServerView {
            delta: &delta,
            after: &after,
            tally: &measured.tally,
            routes: ["POST /sessions", "POST /sessions/:id/feedback"],
            sessions: started,
            eval_results: 0.0,
        }
        .add_to(&mut report);
        let records = delta.get("questpro_session_records_total");
        if records != started {
            report.failures.push(format!(
                "telemetry recorded {records} sessions, the client started {started}"
            ));
        }
        in_process(&mut report, &inp, &run)?;
    }
    Ok(report)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run's in-process layer timings on the same inputs.
fn in_process(r: &mut Report, inp: &Inputs, run: &Script<'_>) -> Result<(), String> {
    let mut bodies: Vec<String> = inp.specs.iter().map(|s| s.create.clone()).collect();
    bodies.extend(run.bodies.iter().cloned());
    layers::wire(r, &bodies)?;
    let texts: Vec<&str> = inp.worlds.iter().map(|w| w.text.as_str()).collect();
    let onts = layers::graph_parse(r, &texts)?;
    let replays = inp
        .specs
        .iter()
        .map(|sp| {
            layers::replay(&SessionCase {
                ont: &onts[sp.world],
                examples: &sp.examples,
                seed: sp.seed,
                max_answers: usize::MAX,
                world: &inp.worlds[sp.world].oracle,
                target: &sp.target,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    layers::feedback(r, &replays);
    let sessions = run.sessions.len() as f64;
    r.layer(
        "feedback.target_recovered",
        ratio(run.recovered as f64, sessions),
        "ratio",
        format!("{} of {sessions} sessions", run.recovered),
    );
    let cases: Vec<(&Ontology, &UnionQuery)> = inp
        .specs
        .iter()
        .map(|s| (&onts[s.world], &s.query))
        .collect();
    layers::engine(r, &cases);
    layers::graph_delta(r, &onts[0], &level_batches("bench"))?;
    layers::store(r, onts.len(), &|i| {
        TripleStore::from_ontology(&onts[i]).map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// Two 8-triple batches on fresh nodes: one inserts, the next deletes
/// the same triples, so the world's size comes back level.
pub fn level_batches(prefix: &str) -> Vec<questpro_graph::TripleDelta> {
    let triples: Vec<[String; 3]> = (0..8)
        .map(|i| {
            [
                format!("{prefix}_upd{}", i / 2),
                "wb".to_string(),
                format!("{prefix}_node{i}"),
            ]
        })
        .collect();
    vec![
        questpro_graph::TripleDelta {
            inserts: triples.clone(),
            deletes: Vec::new(),
        },
        questpro_graph::TripleDelta {
            inserts: Vec::new(),
            deletes: triples,
        },
    ]
}
